// Binary trace files: one format for both record kinds.
//
//   header: 4-byte magic, u32 version, u64 record count, u64 reserved
//   records, packed:
//     block ("FTTR"): u64 lbn, u8 op (9 bytes)
//     kv    ("FTKV"): u64 key, u8 op, u32 size (13 bytes)
//   footer: CRC32-C over all records
//
// A record kind is its codec (magic, record size, pack, unpack), so one
// reader and one writer serve both. Open reads the whole file once, so a
// truncated or altered file, one of the other kind, or a record whose op
// byte names no operation is refused there (kCorrupt) rather than replayed.
// ClassifyTraceFile() peeks a file's magic so tools can dispatch on kind.

#ifndef FLASHTIER_TRACE_TRACE_FILE_H_
#define FLASHTIER_TRACE_TRACE_FILE_H_

#include <cstdio>
#include <string>

#include "src/trace/kv_trace.h"
#include "src/trace/trace.h"
#include "src/util/status.h"

namespace flashtier {

enum class TraceFileKind : uint8_t { kUnknown = 0, kBlock, kKv };

// Reads just enough of `path` to classify it (does not validate the CRC).
TraceFileKind ClassifyTraceFile(const std::string& path);

// Streams records to a file; finalizes header+footer on Close().
template <typename Record>
class RecordFileWriter {
 public:
  RecordFileWriter() = default;
  ~RecordFileWriter();

  RecordFileWriter(const RecordFileWriter&) = delete;
  RecordFileWriter& operator=(const RecordFileWriter&) = delete;

  Status Open(const std::string& path);
  Status Append(const Record& record);
  Status Close();

  uint64_t written() const { return count_; }

 private:
  FILE* file_ = nullptr;
  uint64_t count_ = 0;
  uint32_t crc_ = 0;
};

// Reads a trace file as a RecordSource. Validates the header, every record
// and the footer CRC.
template <typename Record>
class RecordFileReader final : public RecordSource<Record> {
 public:
  RecordFileReader() = default;
  ~RecordFileReader() override;

  RecordFileReader(const RecordFileReader&) = delete;
  RecordFileReader& operator=(const RecordFileReader&) = delete;

  Status Open(const std::string& path);

  bool Next(Record* record) override;
  void Rewind() override;
  uint64_t size_hint() const override { return count_; }

 private:
  FILE* file_ = nullptr;
  uint64_t count_ = 0;
  uint64_t pos_ = 0;
};

extern template class RecordFileWriter<TraceRecord>;
extern template class RecordFileWriter<KvTraceRecord>;
extern template class RecordFileReader<TraceRecord>;
extern template class RecordFileReader<KvTraceRecord>;

using TraceFileWriter = RecordFileWriter<TraceRecord>;
using TraceFileReader = RecordFileReader<TraceRecord>;
using KvTraceFileWriter = RecordFileWriter<KvTraceRecord>;
using KvTraceFileReader = RecordFileReader<KvTraceRecord>;

}  // namespace flashtier

#endif  // FLASHTIER_TRACE_TRACE_FILE_H_
