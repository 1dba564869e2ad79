// Must not compile: it discards two Status results, which the top-level
// -Werror=unused-result turns into errors. ctest's
// discarded_status_does_not_compile builds it and expects that error.

#include <cstdint>
#include <functional>

#include "src/ssc/ssc_device.h"

namespace flashtier {

void DiscardStatuses(SscDevice& ssc, const std::function<Status()>& recover) {
  uint64_t token = 0;
  ssc.Read(1, &token);
  recover();
}

}  // namespace flashtier
