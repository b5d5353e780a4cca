#include "core/planner.h"

#include <algorithm>

namespace lambada::core {

int64_t AdaptiveChunkBytes(int64_t scan_bytes_per_worker, int connections) {
  constexpr int64_t kMiB = 1024 * 1024;
  constexpr int64_t kSaturationBytes = 16 * kMiB;  // Fig. 7: 1-conn knee.
  constexpr int64_t kMinChunk = kMiB;              // Fig. 7: cost floor.
  int64_t chunk = kSaturationBytes / std::max(1, connections);
  if (scan_bytes_per_worker > 0) {
    chunk = std::min(chunk, std::max(kMinChunk, scan_bytes_per_worker / 8));
  }
  return std::clamp(chunk, kMinChunk, kSaturationBytes);
}

}  // namespace lambada::core
