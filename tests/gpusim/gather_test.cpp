// Tests for the pipelined batch-load (Gather / LoadRun) mechanism.
#include <gtest/gtest.h>

#include "gpusim/block.h"
#include "gpusim/ctx.h"
#include "gpusim/device.h"
#include "gpusim/memcheck.h"

namespace dgc::sim {
namespace {

std::unique_ptr<Device> MakeDevice() {
  return std::make_unique<Device>(DeviceSpec::TestDevice());
}

TEST(Gather, LoadsAllValuesInOrder) {
  auto dev = MakeDevice();
  const int n = 64;
  auto buf = *dev->Malloc(n * sizeof(double));
  auto p = buf.Typed<double>();
  for (int i = 0; i < n; ++i) p[i] = i * 1.5;

  std::vector<double> seen(n, 0);
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {1, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    auto g = ctx.LoadRun(p, n);
    co_await g;
    for (int i = 0; i < n; ++i) seen[std::size_t(i)] = g.Result(std::uint32_t(i));
  });
  ASSERT_TRUE(result.ok());
  for (int i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(seen[std::size_t(i)], i * 1.5);
}

TEST(Gather, ArbitraryAddressesAndTypes) {
  auto dev = MakeDevice();
  auto buf = *dev->Malloc(256 * sizeof(std::uint32_t));
  auto p = buf.Typed<std::uint32_t>();
  for (int i = 0; i < 256; ++i) p[i] = std::uint32_t(i * i);

  std::uint64_t sum = 0;
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {1, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    auto g = ctx.Gather<std::uint32_t>();
    for (int i = 0; i < 10; ++i) g.Add(p + i * 25);  // scattered
    co_await g;
    for (std::uint32_t i = 0; i < 10; ++i) sum += g.Result(i);
  });
  ASSERT_TRUE(result.ok());
  std::uint64_t expect = 0;
  for (int i = 0; i < 10; ++i) expect += std::uint64_t(i * 25) * (i * 25);
  EXPECT_EQ(sum, expect);
}

TEST(Gather, EmptyGatherIsReadyImmediately) {
  auto dev = MakeDevice();
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {1, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    auto g = ctx.Gather<double>();
    co_await g;  // count == 0: must not suspend or deadlock
    co_await ctx.Work(1);
  });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok());
}

TEST(Gather, CapacitySaturatesAtKMaxGather) {
  auto dev = MakeDevice();
  auto buf = *dev->Malloc((detail::kMaxGather + 8) * sizeof(double));
  auto p = buf.Typed<double>();
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {1, 1, 1}};
  bool full_before_extra = false;
  std::uint32_t count = 0;
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    auto g = ctx.Gather<double>();
    for (std::uint32_t i = 0; i < detail::kMaxGather + 8; ++i) {
      if (i == detail::kMaxGather) full_before_extra = g.Full();
      g.Add(p + i);
    }
    count = g.count;
    co_await g;
  });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(full_before_extra);
  EXPECT_EQ(count, detail::kMaxGather);  // extras ignored
}

TEST(Gather, CapacityNSaturatesAtN) {
  auto dev = MakeDevice();
  auto buf = *dev->Malloc(8 * sizeof(double));
  auto p = buf.Typed<double>();
  for (int i = 0; i < 8; ++i) p[i] = i + 0.5;
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {1, 1, 1}};
  bool full_before_extra = false;
  std::uint32_t count = 0;
  std::vector<double> seen;
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    auto g = ctx.Gather<double, 5>();
    for (std::uint32_t i = 0; i < 8; ++i) {
      if (i == 5) full_before_extra = g.Full();
      g.Add(p + i);
    }
    count = g.count;
    co_await g;
    for (std::uint32_t i = 0; i < g.count; ++i) seen.push_back(g.Result(i));
  });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(full_before_extra);
  EXPECT_EQ(count, 5u);  // extras ignored
  EXPECT_EQ(seen, (std::vector<double>{0.5, 1.5, 2.5, 3.5, 4.5}));
  EXPECT_EQ(result->stats.ideal_sectors, 2u);  // 40 bytes, not 64
}

TEST(Gather, RunsReturnPackedNarrowResults) {
  auto dev = MakeDevice();
  auto bytes_buf = *dev->Malloc(64);
  auto ints_buf = *dev->Malloc(64 * sizeof(std::int32_t));
  auto pb = bytes_buf.Typed<std::uint8_t>();
  auto pi = ints_buf.Typed<std::int32_t>();
  for (int i = 0; i < 64; ++i) pb[i] = std::uint8_t(200 + i);
  for (int i = 0; i < 64; ++i) pi[i] = -1000 * i + 7;

  std::vector<std::uint8_t> bytes_seen;
  std::vector<std::int32_t> ints_seen;
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {1, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    auto b = ctx.LoadRun<16>(pb + 3, 13);  // odd base, odd count
    co_await b;
    auto n = ctx.LoadRun<8>(pi + 5, 7);
    co_await n;
    for (std::uint32_t i = 0; i < 13; ++i) bytes_seen.push_back(b.Result(i));
    for (std::uint32_t i = 0; i < 7; ++i) ints_seen.push_back(n.Result(i));
  });
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->ok());
  ASSERT_EQ(bytes_seen.size(), 13u);
  for (int i = 0; i < 13; ++i) {
    EXPECT_EQ(bytes_seen[std::size_t(i)], std::uint8_t(203 + i)) << i;
  }
  ASSERT_EQ(ints_seen.size(), 7u);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(ints_seen[std::size_t(i)], -1000 * (5 + i) + 7) << i;
  }
}

/// Every lane of a warp loads `per` doubles from p + 5 * lane (overlapping
/// windows) as a run or as a list gather of the same addresses; returns the
/// launch statistics and each lane's values.
LaunchStats RunOrList(bool as_run, std::vector<double>& seen) {
  constexpr std::uint32_t kLanes = 32, kPer = 7;
  auto dev = MakeDevice();
  auto buf = *dev->Malloc(256 * sizeof(double));
  auto p = buf.Typed<double>();
  for (int i = 0; i < 256; ++i) p[i] = 0.25 * i;
  seen.assign(kLanes * kPer, -1.0);
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {kLanes, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    const auto base = p + 5 * ctx.thread_id;
    double* out = &seen[ctx.thread_id * kPer];
    if (as_run) {
      auto g = ctx.LoadRun<kPer>(base, kPer);
      co_await g;
      for (std::uint32_t i = 0; i < kPer; ++i) out[i] = g.Result(i);
    } else {
      auto g = ctx.Gather<double, kPer>();
      for (std::uint32_t i = 0; i < kPer; ++i) g.Add(base + i);
      co_await g;
      for (std::uint32_t i = 0; i < kPer; ++i) out[i] = g.Result(i);
    }
  });
  EXPECT_TRUE(result.ok() && result->ok());
  return result->stats;
}

TEST(Gather, RunAndListOverTheSameAddressesAgree) {
  std::vector<double> run_seen, list_seen;
  const LaunchStats run = RunOrList(true, run_seen);
  const LaunchStats list = RunOrList(false, list_seen);
  EXPECT_EQ(run_seen, list_seen);
  EXPECT_EQ(run_seen[5 * 7 + 3], 0.25 * (5 * 5 + 3));
  EXPECT_EQ(run.load_instructions, 1u);
  EXPECT_EQ(run.load_instructions, list.load_instructions);
  EXPECT_EQ(run.global_sectors, list.global_sectors);
  EXPECT_EQ(run.ideal_sectors, list.ideal_sectors);
  EXPECT_EQ(run.elapsed_cycles, list.elapsed_cycles);
}

TEST(Gather, OutOfBoundsElementReadsZeroAndIsReportedAlikeInBothForms) {
  // A 32-double allocation fills its 256-byte arena slot exactly, so
  // element 32 has no backing storage: memcheck vetoes it.
  auto run_once = [](bool as_run, std::vector<double>& seen) {
    Device device(DeviceSpec::TestDevice());
    Memcheck memcheck;
    memcheck.Attach(device.memory());
    auto buf = *device.Malloc(32 * sizeof(double));
    auto p = buf.Typed<double>();
    for (int i = 0; i < 32; ++i) p[i] = 1.0 + i;
    LaunchConfig cfg{.grid = {1, 1, 1}, .block = {1, 1, 1}};
    cfg.memcheck = &memcheck;
    auto result = device.Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
      if (as_run) {
        auto g = ctx.LoadRun<4>(p + 30, 3);
        co_await g;
        for (std::uint32_t i = 0; i < 3; ++i) seen.push_back(g.Result(i));
      } else {
        auto g = ctx.Gather<double, 4>();
        for (std::uint32_t i = 0; i < 3; ++i) g.Add(p + 30 + i);
        co_await g;
        for (std::uint32_t i = 0; i < 3; ++i) seen.push_back(g.Result(i));
      }
    });
    EXPECT_TRUE(result.ok());
    std::vector<std::string> findings;
    for (const MemcheckFinding& f : memcheck.report().findings) {
      EXPECT_EQ(f.kind, MemcheckErrorKind::kOutOfBounds);
      EXPECT_EQ(f.op, DeviceOp::Kind::kLoadBatch);
      EXPECT_EQ(f.addr, buf.addr + 32 * sizeof(double));
      findings.push_back(f.ToString());
    }
    return findings;
  };
  std::vector<double> run_seen, list_seen;
  const std::vector<std::string> run = run_once(true, run_seen);
  const std::vector<std::string> list = run_once(false, list_seen);
  EXPECT_EQ(run_seen, (std::vector<double>{31.0, 32.0, 0.0}));
  EXPECT_EQ(list_seen, run_seen);
  ASSERT_EQ(run.size(), 1u);
  EXPECT_EQ(run, list);
}

TEST(GatherDeathTest, LoadRunBeyondCapacityFailsACheck) {
  // A run longer than its capacity would silently drop elements an app
  // reads back; it must stop the program instead.
  ThreadCtx ctx;
  DevicePtr<double> p{kGlobalBase, nullptr};
  EXPECT_DEATH((void)ctx.LoadRun<4>(p, 5), "LoadRun count exceeds");
}

TEST(Gather, BatchIsFasterThanDependentScalarLoads) {
  // The point of the mechanism: N independent loads in one batch pay one
  // latency, N scalar loads pay N.
  auto dev = MakeDevice();
  const int n = 32, reps = 50;
  auto buf = *dev->Malloc(std::uint64_t(n) * reps * sizeof(double));
  auto p = buf.Typed<double>();

  auto run = [&](bool batched) {
    LaunchConfig cfg{.grid = {1, 1, 1}, .block = {32, 1, 1}};
    auto r = dev->Launch(cfg, [&, batched](ThreadCtx& ctx) -> DeviceTask<void> {
      double acc = 0;
      for (int rep = 0; rep < reps; ++rep) {
        auto base = p + rep * n;
        if (batched) {
          auto g = ctx.LoadRun(base, n);
          co_await g;
          for (int i = 0; i < n; ++i) acc += g.Result(std::uint32_t(i));
        } else {
          for (int i = 0; i < n; ++i) acc += co_await ctx.Load(base + i);
        }
      }
      (void)acc;
    });
    return r->stats.elapsed_cycles;
  };
  const auto scalar = run(false);
  const auto batch = run(true);
  EXPECT_GT(scalar, batch * 5);
}

TEST(Gather, CountsSectorsLikeScalarLoads) {
  auto dev = MakeDevice();
  const int n = 64;  // 64 doubles = 16 sectors
  auto buf = *dev->Malloc(n * sizeof(double));
  auto p = buf.Typed<double>();
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {1, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    auto g = ctx.LoadRun(p, n);
    co_await g;
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.global_sectors, 16u);
  EXPECT_DOUBLE_EQ(result->stats.CoalescingEfficiency(), 1.0);
}

TEST(Gather, WarpLanesCoalesceAcrossBatches) {
  // 32 lanes each gathering their own contiguous 2-element run over a
  // shared array: the warp instruction coalesces all 64 elements.
  auto dev = MakeDevice();
  auto buf = *dev->Malloc(64 * sizeof(double));
  auto p = buf.Typed<double>();
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {32, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    auto g = ctx.LoadRun(p + ctx.thread_id * 2, 2);
    co_await g;
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.global_sectors, 16u);          // 512B / 32B
  EXPECT_EQ(result->stats.load_instructions, 1u);        // one warp instr
}

TEST(Gather, MixedWithComputeAndStoresVerifies) {
  auto dev = MakeDevice();
  const std::uint32_t n = 512;
  auto in = *dev->Malloc(n * sizeof(double));
  auto out = *dev->Malloc(n * sizeof(double));
  auto pi = in.Typed<double>(), po = out.Typed<double>();
  for (std::uint32_t i = 0; i < n; ++i) pi[i] = i;

  LaunchConfig cfg{.grid = {2, 1, 1}, .block = {64, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    const std::uint32_t gid = ctx.block_id * ctx.block_threads + ctx.thread_id;
    const std::uint32_t per = n / 128;
    auto g = ctx.LoadRun(pi + gid * per, per);
    co_await g;
    co_await ctx.Work(10);
    for (std::uint32_t j = 0; j < per; ++j) {
      co_await ctx.Store(po + (gid * per + j), g.Result(j) * 3.0);
    }
  });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok());
  for (std::uint32_t i = 0; i < n; ++i) ASSERT_DOUBLE_EQ(po[i], 3.0 * i) << i;
}

}  // namespace
}  // namespace dgc::sim

namespace dgc::sim {
namespace {

TEST(Scatter, WritesAllValues) {
  auto dev = std::make_unique<Device>(DeviceSpec::TestDevice());
  const int n = 48;
  auto buf = *dev->Malloc(n * sizeof(double));
  auto p = buf.Typed<double>();
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {1, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    auto s = ctx.Scatter<double>();
    for (int i = 0; i < n; ++i) s.Add(p + i, i * 2.5);
    co_await s;
  });
  ASSERT_TRUE(result.ok());
  for (int i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(p[i], i * 2.5) << i;
  EXPECT_EQ(result->stats.store_instructions, 1u);
}

TEST(Scatter, CapacityNSaturatesAtN) {
  auto dev = std::make_unique<Device>(DeviceSpec::TestDevice());
  auto buf = *dev->Malloc(8 * sizeof(double));
  auto p = buf.Typed<double>();
  for (int i = 0; i < 8; ++i) p[i] = -1.0;
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {1, 1, 1}};
  bool full_before_extra = false;
  std::uint32_t count = 0;
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    auto s = ctx.Scatter<double, 3>();
    for (int i = 0; i < 8; ++i) {
      if (i == 3) full_before_extra = s.Full();
      s.Add(p + i, i * 2.0);
    }
    count = s.count;
    co_await s;
  });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(full_before_extra);
  EXPECT_EQ(count, 3u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(p[i], i < 3 ? i * 2.0 : -1.0) << i;  // extras ignored
  }
}

TEST(Scatter, EmptyScatterDoesNotSuspend) {
  auto dev = std::make_unique<Device>(DeviceSpec::TestDevice());
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {1, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    auto s = ctx.Scatter<double>();
    co_await s;
    co_await ctx.Work(1);
  });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok());
}

TEST(Scatter, BatchedStoresFasterThanScalarChain) {
  auto dev = std::make_unique<Device>(DeviceSpec::TestDevice());
  const int n = 32, reps = 40;
  auto buf = *dev->Malloc(std::uint64_t(n) * reps * sizeof(double));
  auto p = buf.Typed<double>();
  auto run = [&](bool batched) {
    LaunchConfig cfg{.grid = {1, 1, 1}, .block = {32, 1, 1}};
    auto r = dev->Launch(cfg, [&, batched](ThreadCtx& ctx) -> DeviceTask<void> {
      for (int rep = 0; rep < reps; ++rep) {
        auto base = p + rep * n;
        if (batched) {
          auto s = ctx.Scatter<double>();
          for (int i = 0; i < n; ++i) s.Add(base + i, 1.0);
          co_await s;
        } else {
          for (int i = 0; i < n; ++i) co_await ctx.Store(base + i, 1.0);
        }
      }
    });
    return r->stats.elapsed_cycles;
  };
  EXPECT_GT(run(false), run(true) * 3);
}

TEST(Scatter, GatherAfterScatterObservesValues) {
  auto dev = std::make_unique<Device>(DeviceSpec::TestDevice());
  auto buf = *dev->Malloc(64 * sizeof(std::uint64_t));
  auto p = buf.Typed<std::uint64_t>();
  std::uint64_t sum = 0;
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {1, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    auto s = ctx.Scatter<std::uint64_t>();
    for (std::uint64_t i = 0; i < 64; ++i) s.Add(p + i, i + 1);
    co_await s;
    auto g = ctx.LoadRun(p, 64);
    co_await g;
    for (std::uint32_t i = 0; i < 64; ++i) sum += g.Result(i);
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(sum, 64u * 65u / 2);
}

}  // namespace
}  // namespace dgc::sim
