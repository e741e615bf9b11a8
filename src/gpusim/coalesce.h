// Per-warp memory coalescing: lane addresses → unique memory sectors.
//
// A warp memory instruction touches, per lane, `bytes` at `addr`. The
// hardware merges those into 32-byte sector transactions; the number of
// unique sectors is what the memory system is charged for. This is the
// mechanism behind the paper's §4.3 observation: lanes of one warp access
// one instance's contiguous data (few sectors), but different blocks walk
// different heap allocations (no cross-block merging happens anywhere).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/address.h"

namespace dgc::sim {

/// One lane's contribution to a warp memory instruction.
struct LaneAccess {
  DeviceAddr addr = 0;
  std::uint32_t bytes = 0;  ///< 0 marks an inactive lane
};

/// Computes the unique sector indices (addr / sector_bytes) touched by the
/// given lane accesses. The result is sorted and deduplicated; inactive
/// lanes (bytes == 0) contribute nothing. An access may straddle sector
/// boundaries and then contributes every covered sector.
///
/// This is the optimized entry point: full-warp unit-stride runs compute
/// their sector interval directly, and already-sorted patterns skip the
/// sort. The output is defined to be identical to CoalesceSectorsScalar
/// for every input.
void CoalesceSectors(std::span<const LaneAccess> accesses,
                     std::uint32_t sector_bytes,
                     std::vector<std::uint64_t>& sectors_out);

/// Reference implementation: per-lane sector expansion followed by
/// sort+unique, with no shape-dependent shortcuts. The oracle the tests pin
/// CoalesceSectors against.
void CoalesceSectorsScalar(std::span<const LaneAccess> accesses,
                           std::uint32_t sector_bytes,
                           std::vector<std::uint64_t>& sectors_out);

/// The minimum number of sectors any permutation of these accesses could
/// produce (= ceil(total distinct bytes / sector size) is a lower bound; we
/// report the tight bound assuming perfect packing). Used by stats to
/// report a coalescing-efficiency ratio.
std::uint64_t IdealSectorCount(std::span<const LaneAccess> accesses,
                               std::uint32_t sector_bytes);

/// IdealSectorCount when the caller already holds the byte total (the warp
/// issue loops accumulate it while gathering lane accesses, saving a
/// second pass over the group).
inline std::uint64_t IdealSectorCountForBytes(std::uint64_t total_bytes,
                                              std::uint32_t sector_bytes) {
  return total_bytes == 0 ? 0
                          : (total_bytes + sector_bytes - 1) / sector_bytes;
}

}  // namespace dgc::sim
