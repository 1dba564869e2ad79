#include "src/trace/trace_file.h"

#include <cstring>

#include "src/util/crc32.h"

namespace flashtier {
namespace {

constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderSize = 4 + 4 + 8 + 8;

// A record kind's on-disk form. Unpack returns false when the op byte names
// no operation of the kind.
template <typename Record>
struct Codec;

template <>
struct Codec<TraceRecord> {
  static constexpr char kMagic[4] = {'F', 'T', 'T', 'R'};
  static constexpr size_t kSize = 8 + 1;

  static void Pack(const TraceRecord& r, uint8_t* out) {
    std::memcpy(out, &r.lbn, 8);
    out[8] = static_cast<uint8_t>(r.op);
  }
  static bool Unpack(const uint8_t* in, TraceRecord* r) {
    std::memcpy(&r->lbn, in, 8);
    r->op = static_cast<TraceOp>(in[8]);
    return in[8] <= static_cast<uint8_t>(TraceOp::kWrite);
  }
};

template <>
struct Codec<KvTraceRecord> {
  static constexpr char kMagic[4] = {'F', 'T', 'K', 'V'};
  static constexpr size_t kSize = 8 + 1 + 4;

  static void Pack(const KvTraceRecord& r, uint8_t* out) {
    std::memcpy(out, &r.key, 8);
    out[8] = static_cast<uint8_t>(r.op);
    std::memcpy(out + 9, &r.size, 4);
  }
  static bool Unpack(const uint8_t* in, KvTraceRecord* r) {
    std::memcpy(&r->key, in, 8);
    r->op = static_cast<KvOp>(in[8]);
    std::memcpy(&r->size, in + 9, 4);
    return in[8] <= static_cast<uint8_t>(KvOp::kDelete);
  }
};

template <typename Record>
bool WriteHeader(FILE* file, uint64_t count) {
  uint8_t header[kHeaderSize] = {};
  std::memcpy(header, Codec<Record>::kMagic, 4);
  std::memcpy(header + 4, &kVersion, 4);
  std::memcpy(header + 8, &count, 8);
  return std::fwrite(header, 1, kHeaderSize, file) == kHeaderSize;
}

}  // namespace

TraceFileKind ClassifyTraceFile(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return TraceFileKind::kUnknown;
  }
  char magic[4] = {};
  const size_t n = std::fread(magic, 1, 4, f);
  std::fclose(f);
  if (n != 4) {
    return TraceFileKind::kUnknown;
  }
  if (std::memcmp(magic, Codec<TraceRecord>::kMagic, 4) == 0) {
    return TraceFileKind::kBlock;
  }
  if (std::memcmp(magic, Codec<KvTraceRecord>::kMagic, 4) == 0) {
    return TraceFileKind::kKv;
  }
  return TraceFileKind::kUnknown;
}

template <typename Record>
RecordFileWriter<Record>::~RecordFileWriter() {
  if (file_ != nullptr) {
    // A destructor has no channel to report a failed flush; callers that
    // need the verdict must call Close() themselves before destruction.
    (void)Close();
  }
}

template <typename Record>
Status RecordFileWriter<Record>::Open(const std::string& path) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    return Status::kIoError;
  }
  count_ = 0;
  crc_ = 0;
  // Placeholder header, rewritten on Close with the final count.
  return WriteHeader<Record>(file_, 0) ? Status::kOk : Status::kIoError;
}

template <typename Record>
Status RecordFileWriter<Record>::Append(const Record& record) {
  if (file_ == nullptr) {
    return Status::kInvalidArgument;
  }
  uint8_t buf[Codec<Record>::kSize];
  Codec<Record>::Pack(record, buf);
  if (std::fwrite(buf, 1, sizeof(buf), file_) != sizeof(buf)) {
    return Status::kIoError;
  }
  crc_ = Crc32c(crc_, buf, sizeof(buf));
  ++count_;
  return Status::kOk;
}

template <typename Record>
Status RecordFileWriter<Record>::Close() {
  if (file_ == nullptr) {
    return Status::kInvalidArgument;
  }
  Status result = Status::kOk;
  if (std::fwrite(&crc_, 1, 4, file_) != 4) {
    result = Status::kIoError;
  }
  if (std::fseek(file_, 0, SEEK_SET) != 0 || !WriteHeader<Record>(file_, count_)) {
    result = Status::kIoError;
  }
  std::fclose(file_);
  file_ = nullptr;
  return result;
}

template <typename Record>
RecordFileReader<Record>::~RecordFileReader() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

template <typename Record>
Status RecordFileReader<Record>::Open(const std::string& path) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    return Status::kIoError;
  }
  uint8_t header[kHeaderSize];
  if (std::fread(header, 1, kHeaderSize, file_) != kHeaderSize ||
      std::memcmp(header, Codec<Record>::kMagic, 4) != 0) {
    return Status::kCorrupt;
  }
  uint32_t version = 0;
  std::memcpy(&version, header + 4, 4);
  if (version != kVersion) {
    return Status::kCorrupt;
  }
  std::memcpy(&count_, header + 8, 8);
  // Validate every record and the footer CRC by streaming the file once.
  uint32_t crc = 0;
  uint8_t buf[Codec<Record>::kSize];
  Record record;
  for (uint64_t i = 0; i < count_; ++i) {
    if (std::fread(buf, 1, sizeof(buf), file_) != sizeof(buf) ||
        !Codec<Record>::Unpack(buf, &record)) {
      return Status::kCorrupt;
    }
    crc = Crc32c(crc, buf, sizeof(buf));
  }
  uint32_t stored = 0;
  if (std::fread(&stored, 1, 4, file_) != 4 || stored != crc) {
    return Status::kCorrupt;
  }
  Rewind();
  return Status::kOk;
}

template <typename Record>
bool RecordFileReader<Record>::Next(Record* record) {
  if (file_ == nullptr || pos_ >= count_) {
    return false;
  }
  uint8_t buf[Codec<Record>::kSize];
  if (std::fread(buf, 1, sizeof(buf), file_) != sizeof(buf) ||
      !Codec<Record>::Unpack(buf, record)) {
    return false;
  }
  ++pos_;
  return true;
}

template <typename Record>
void RecordFileReader<Record>::Rewind() {
  pos_ = 0;
  if (file_ != nullptr) {
    std::fseek(file_, static_cast<long>(kHeaderSize), SEEK_SET);
  }
}

template class RecordFileWriter<TraceRecord>;
template class RecordFileWriter<KvTraceRecord>;
template class RecordFileReader<TraceRecord>;
template class RecordFileReader<KvTraceRecord>;

}  // namespace flashtier
