#include "gpusim/coalesce.h"

#include <algorithm>
#include <bit>

namespace dgc::sim {
namespace {

/// Sorts a warp-sized run of sector ids. Inputs here are at most a few
/// dozen elements (32 lanes, rarely straddling), where an inlined
/// insertion sort beats the generic introsort dispatch; the result is the
/// same sorted sequence either way.
void SortSectors(std::vector<std::uint64_t>& v) {
  if (v.size() > 64) {
    std::sort(v.begin(), v.end());
    return;
  }
  for (std::size_t i = 1; i < v.size(); ++i) {
    const std::uint64_t key = v[i];
    std::size_t j = i;
    for (; j > 0 && v[j - 1] > key; --j) v[j] = v[j - 1];
    v[j] = key;
  }
}

}  // namespace

void CoalesceSectorsScalar(std::span<const LaneAccess> accesses,
                           std::uint32_t sector_bytes,
                           std::vector<std::uint64_t>& sectors_out) {
  sectors_out.clear();
  for (const LaneAccess& a : accesses) {
    if (a.bytes == 0) continue;
    const std::uint64_t first = a.addr / sector_bytes;
    const std::uint64_t last = (a.addr + a.bytes - 1) / sector_bytes;
    for (std::uint64_t s = first; s <= last; ++s) sectors_out.push_back(s);
  }
  std::sort(sectors_out.begin(), sectors_out.end());
  sectors_out.erase(std::unique(sectors_out.begin(), sectors_out.end()),
                    sectors_out.end());
}

void CoalesceSectors(std::span<const LaneAccess> accesses,
                     std::uint32_t sector_bytes,
                     std::vector<std::uint64_t>& sectors_out) {
  sectors_out.clear();

  // Sector size is a power of two on every real device, so addr→sector is
  // a shift; a hardware u64 divide (two per lane otherwise) only backs the
  // exotic-geometry fallback. Same quotients either way.
  const int shift = std::has_single_bit(sector_bytes)
                        ? std::countr_zero(sector_bytes)
                        : -1;
  const auto sector_of = [&](std::uint64_t addr) {
    return shift >= 0 ? addr >> shift : addr / sector_bytes;
  };

  // Fast path: the dominant shape is a full warp of equal-width lanes
  // walking one contiguous ascending run (unit stride). The touched bytes
  // then form a single interval, and the sector run falls out of its two
  // endpoints — no per-lane expansion, no sort, no dedup.
  if (accesses.size() > 1) {
    const std::uint32_t bytes = accesses.front().bytes;
    bool contiguous = bytes != 0;
    for (std::size_t i = 1; contiguous && i < accesses.size(); ++i) {
      contiguous = accesses[i].bytes == bytes &&
                   accesses[i].addr == accesses[i - 1].addr + bytes;
    }
    if (contiguous) {
      const std::uint64_t first = sector_of(accesses.front().addr);
      const std::uint64_t last = sector_of(accesses.back().addr + bytes - 1);
      sectors_out.reserve(std::size_t(last - first + 1));
      for (std::uint64_t s = first; s <= last; ++s) sectors_out.push_back(s);
      return;
    }
  }

  // General path: expand per-lane sector ranges while tracking whether the
  // output is already non-decreasing (typical for sorted-but-gappy
  // patterns); sort only when it is not.
  bool sorted = true;
  std::uint64_t prev = 0;
  for (const LaneAccess& a : accesses) {
    if (a.bytes == 0) continue;
    const std::uint64_t first = sector_of(a.addr);
    const std::uint64_t last = sector_of(a.addr + a.bytes - 1);
    if (!sectors_out.empty() && first < prev) sorted = false;
    for (std::uint64_t s = first; s <= last; ++s) sectors_out.push_back(s);
    prev = last;
  }
  if (!sorted) SortSectors(sectors_out);
  sectors_out.erase(std::unique(sectors_out.begin(), sectors_out.end()),
                    sectors_out.end());
}

std::uint64_t IdealSectorCount(std::span<const LaneAccess> accesses,
                               std::uint32_t sector_bytes) {
  std::uint64_t total = 0;
  for (const LaneAccess& a : accesses) total += a.bytes;
  return IdealSectorCountForBytes(total, sector_bytes);
}

}  // namespace dgc::sim
