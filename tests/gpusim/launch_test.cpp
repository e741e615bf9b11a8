// End-to-end kernel execution tests: coroutine kernels through the full
// warp scheduler, memory hierarchy, and event engine.
#include <gtest/gtest.h>

#include <numeric>

#include "gpusim/block.h"
#include "gpusim/ctx.h"
#include "gpusim/device.h"

namespace dgc::sim {
namespace {

std::unique_ptr<Device> MakeDevice() {
  return std::make_unique<Device>(DeviceSpec::TestDevice());
}

TEST(Launch, VectorAdd) {
  auto dev = MakeDevice();
  const int n = 1024;
  auto a = *dev->Malloc(n * sizeof(double));
  auto b = *dev->Malloc(n * sizeof(double));
  auto c = *dev->Malloc(n * sizeof(double));
  for (int i = 0; i < n; ++i) {
    a.Typed<double>()[i] = i;
    b.Typed<double>()[i] = 2.0 * i;
  }

  auto pa = a.Typed<double>(), pb = b.Typed<double>(), pc = c.Typed<double>();
  LaunchConfig cfg{.grid = {4, 1, 1}, .block = {64, 1, 1}, .name = "vecadd"};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    const std::uint32_t stride = ctx.block_threads * ctx.grid_blocks;
    for (std::uint32_t i = ctx.block_id * ctx.block_threads + ctx.thread_id;
         i < n; i += stride) {
      const double x = co_await ctx.Load(pa + i);
      const double y = co_await ctx.Load(pb + i);
      co_await ctx.Store(pc + i, x + y);
    }
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ok());
  for (int i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(c.Typed<double>()[i], 3.0 * i) << i;
  }
  EXPECT_GT(result->cycles, 0u);
  EXPECT_EQ(result->stats.blocks_launched, 4u);
  EXPECT_GT(result->stats.load_instructions, 0u);
  EXPECT_GT(result->stats.store_instructions, 0u);
}

TEST(Launch, DeterministicCycleCounts) {
  auto run = [] {
    auto dev = MakeDevice();
    const int n = 512;
    auto a = *dev->Malloc(n * sizeof(float));
    auto p = a.Typed<float>();
    LaunchConfig cfg{.grid = {2, 1, 1}, .block = {32, 1, 1}};
    auto r = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
      for (std::uint32_t i = ctx.block_id * ctx.block_threads + ctx.thread_id;
           i < n; i += ctx.block_threads * ctx.grid_blocks) {
        co_await ctx.Store(p + i, float(i));
        co_await ctx.Work(10);
      }
    });
    return r->cycles;
  };
  EXPECT_EQ(run(), run());
}

TEST(Launch, NestedDeviceFunctions) {
  auto dev = MakeDevice();
  auto buf = *dev->Malloc(sizeof(std::uint64_t) * 32);
  auto p = buf.Typed<std::uint64_t>();

  struct Helpers {
    static DeviceTask<std::uint64_t> Inner(ThreadCtx& ctx,
                                           DevicePtr<std::uint64_t> q) {
      const std::uint64_t v = co_await ctx.Load(q);
      co_await ctx.Work(5);
      co_return v * 2;
    }
    static DeviceTask<std::uint64_t> Middle(ThreadCtx& ctx,
                                            DevicePtr<std::uint64_t> q) {
      const std::uint64_t v = co_await Inner(ctx, q);
      co_return v + 1;
    }
  };

  for (int i = 0; i < 32; ++i) p[i] = std::uint64_t(i);
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {32, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    const std::uint64_t r = co_await Helpers::Middle(ctx, p + ctx.thread_id);
    co_await ctx.Store(p + ctx.thread_id, r);
  });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok());
  for (std::uint64_t i = 0; i < 32; ++i) EXPECT_EQ(p[std::ptrdiff_t(i)], i * 2 + 1);
}

TEST(Launch, AtomicReductionExact) {
  auto dev = MakeDevice();
  auto buf = *dev->Malloc(sizeof(std::uint64_t));
  auto p = buf.Typed<std::uint64_t>();
  *p = 0;
  const int blocks = 8, threads = 64;
  LaunchConfig cfg{.grid = {std::uint32_t(blocks), 1, 1},
                   .block = {std::uint32_t(threads), 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    const std::uint64_t v =
        std::uint64_t(ctx.block_id) * ctx.block_threads + ctx.thread_id + 1;
    co_await ctx.AtomicAdd(p, v);
  });
  ASSERT_TRUE(result.ok());
  const std::uint64_t n = std::uint64_t(blocks) * threads;
  EXPECT_EQ(*p, n * (n + 1) / 2);
  EXPECT_EQ(result->stats.atomic_instructions, n / 32);  // one per warp
}

TEST(Launch, AtomicReturnsOldValue) {
  auto dev = MakeDevice();
  auto buf = *dev->Malloc(2 * sizeof(std::uint64_t));
  auto counter = buf.Typed<std::uint64_t>();
  auto seen = buf.Typed<std::uint64_t>(1);
  *counter = 0;
  *seen = 0;
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {32, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    const std::uint64_t ticket = co_await ctx.AtomicAdd(counter, std::uint64_t{1});
    // Tickets must be unique in [0,32): accumulate a bitmask.
    co_await ctx.AtomicAdd(seen, std::uint64_t(1) << ticket);
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*counter, 32u);
  EXPECT_EQ(*seen, ~std::uint64_t(0) >> 32);  // low 32 bits set
}

TEST(Launch, SyncThreadsOrdersPhases) {
  auto dev = MakeDevice();
  const int threads = 128;
  auto buf = *dev->Malloc(threads * sizeof(std::uint64_t));
  auto p = buf.Typed<std::uint64_t>();
  for (int i = 0; i < threads; ++i) p[i] = 1;

  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {std::uint32_t(threads), 1, 1}};
  // Phase 1: every thread writes its slot. Barrier. Phase 2: thread i reads
  // slot (i+1) % n. Without the barrier this would read stale values for
  // some interleavings; with it, every read must observe phase-1 data.
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    co_await ctx.Store(p + ctx.thread_id, std::uint64_t(ctx.thread_id) + 100);
    co_await ctx.SyncThreads();
    const std::uint64_t next =
        co_await ctx.Load(p + (ctx.thread_id + 1) % threads);
    co_await ctx.SyncThreads();
    co_await ctx.Store(p + ctx.thread_id, next);
  });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok());
  for (int i = 0; i < threads; ++i) {
    EXPECT_EQ(p[i], std::uint64_t((i + 1) % threads) + 100) << i;
  }
  EXPECT_GE(result->stats.barrier_arrivals, std::uint64_t(2 * threads));
}

TEST(Launch, EarlyExitingLanesDoNotDeadlockBarrier) {
  auto dev = MakeDevice();
  auto buf = *dev->Malloc(sizeof(std::uint64_t));
  auto p = buf.Typed<std::uint64_t>();
  *p = 0;
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {64, 1, 1}};
  // Half the lanes exit immediately; the rest sync then count themselves.
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    if (ctx.thread_id % 2 == 0) co_return;
    co_await ctx.SyncThreads();
    co_await ctx.AtomicAdd(p, std::uint64_t{1});
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*p, 32u);
}

TEST(Launch, SharedMemoryBlockLocalReduction) {
  auto dev = MakeDevice();
  const int blocks = 4, threads = 64;
  auto out = *dev->Malloc(std::uint64_t(blocks) * sizeof(std::uint64_t));
  auto po = out.Typed<std::uint64_t>();
  LaunchConfig cfg{.grid = {std::uint32_t(blocks), 1, 1},
                   .block = {std::uint32_t(threads), 1, 1},
                   .shared_bytes = 64};
  // Each block reduces its thread ids into ITS OWN shared slot (the CUDA
  // `__shared__` idiom, via SharedAt). Cross-block isolation ⇒ every block
  // computes the same local sum.
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    auto slot = ctx.block->SharedAt<std::uint64_t>(0);
    if (ctx.thread_id == 0) co_await ctx.Store(slot, std::uint64_t{0});
    co_await ctx.SyncThreads();
    co_await ctx.AtomicAdd(slot, std::uint64_t(ctx.thread_id));
    co_await ctx.SyncThreads();
    if (ctx.thread_id == 0) {
      const std::uint64_t sum = co_await ctx.Load(slot);
      co_await ctx.Store(po + ctx.block_id, sum);
    }
  });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok()) << (result->failures.empty() ? "" : result->failures[0]);
  const std::uint64_t expect = std::uint64_t(threads) * (threads - 1) / 2;
  for (int b = 0; b < blocks; ++b) EXPECT_EQ(po[b], expect) << b;
  EXPECT_GT(result->stats.smem_accesses, 0u);
}

TEST(Launch, WorkOccupiesIssuePipes) {
  // One warp doing N work ops of C cycles takes at least N*C cycles.
  auto dev = MakeDevice();
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {32, 1, 1}};
  const int iters = 50;
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    for (int i = 0; i < iters; ++i) co_await ctx.Work(100);
    (void)ctx;
  });
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->stats.elapsed_cycles, std::uint64_t(iters) * 100);
  EXPECT_EQ(result->stats.compute_cycles_issued, std::uint64_t(iters) * 100);
}

TEST(Launch, ComputeThroughputSharedWithinSm) {
  // TestDevice has 2 issue pipes per SM. 4 warps of pure compute on 1 block
  // must take ~2x the single-warp time.
  auto dev = MakeDevice();
  const int iters = 20;
  auto run = [&](std::uint32_t threads) {
    LaunchConfig cfg{.grid = {1, 1, 1}, .block = {threads, 1, 1}};
    auto r = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
      for (int i = 0; i < iters; ++i) co_await ctx.Work(200);
      (void)ctx;
    });
    return r->stats.elapsed_cycles;
  };
  const auto t1 = run(32);    // 1 warp
  const auto t4 = run(128);   // 4 warps, 2 pipes
  EXPECT_GE(t4, t1 * 3 / 2);
  EXPECT_LE(t4, t1 * 3);
}

TEST(Launch, MoreBlocksThanSlotsQueue) {
  // TestDevice: 2 SMs × 4 blocks → 8 resident; launch 32 small blocks.
  auto dev = MakeDevice();
  auto buf = *dev->Malloc(32 * sizeof(std::uint64_t));
  auto p = buf.Typed<std::uint64_t>();
  LaunchConfig cfg{.grid = {32, 1, 1}, .block = {32, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    if (ctx.thread_id == 0) {
      co_await ctx.Store(p + ctx.block_id, std::uint64_t(ctx.block_id) + 1);
    }
    co_await ctx.Work(500);
  });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok());
  for (int i = 0; i < 32; ++i) EXPECT_EQ(p[i], std::uint64_t(i) + 1);
  EXPECT_EQ(result->stats.blocks_launched, 32u);
}

TEST(Launch, KernelExceptionReportedAsLaneFailure) {
  auto dev = MakeDevice();
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {32, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    if (ctx.thread_id == 7) throw std::runtime_error("lane 7 exploded");
    co_return;
  });
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->ok());
  EXPECT_EQ(result->failure_count, 1u);
  ASSERT_EQ(result->failures.size(), 1u);
  // A lane outside any instance gets no instance= prefix.
  EXPECT_EQ(result->failures[0], "block 0 thread 7: lane 7 exploded");

  // The prefix names the instance the lane's row runs.
  result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    if (ctx.thread_id == 7) {
      ctx.SetRowInstance(3, 0);
      throw std::runtime_error("lane 7 exploded");
    }
    co_return;
  });
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->failures.size(), 1u);
  EXPECT_EQ(result->failures[0], "instance=3 block 0 thread 7: lane 7 exploded");
}

TEST(Launch, ExceptionPropagatesThroughNestedTasks) {
  auto dev = MakeDevice();
  struct Helpers {
    static DeviceTask<int> Thrower(ThreadCtx& ctx) {
      co_await ctx.Work(1);
      throw std::runtime_error("deep failure");
    }
    static DeviceTask<int> Caller(ThreadCtx& ctx) {
      co_return co_await Thrower(ctx);
    }
  };
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {1, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    try {
      (void)co_await Helpers::Caller(ctx);
      co_await ctx.Store(DevicePtr<int>{}, 0);  // unreachable
    } catch (const std::runtime_error& e) {
      if (std::string(e.what()) != "deep failure") throw;
    }
  });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok()) << (result->failures.empty() ? "" : result->failures[0]);
}

TEST(Launch, InvalidConfigsRejected) {
  auto dev = MakeDevice();
  auto noop = [](ThreadCtx&) -> DeviceTask<void> { co_return; };
  {
    LaunchConfig cfg{.grid = {0, 1, 1}};
    EXPECT_FALSE(dev->Launch(cfg, noop).ok());
  }
  {
    LaunchConfig cfg{.block = {2048, 1, 1}};
    EXPECT_FALSE(dev->Launch(cfg, noop).ok());
  }
  {
    LaunchConfig cfg{.shared_bytes = 10u << 20};
    EXPECT_FALSE(dev->Launch(cfg, noop).ok());
  }
  EXPECT_FALSE(dev->Launch(LaunchConfig{}, KernelFn{}).ok());
}

TEST(Launch, CoalescedFasterThanStridedWhenBandwidthBound) {
  // Same element count, enough concurrent warps to saturate DRAM: the
  // strided layout moves `stride`× the bytes and must be clearly slower.
  auto dev = MakeDevice();
  const std::uint32_t n = 65536;
  const int stride = 8;
  auto buf = *dev->Malloc(std::uint64_t(n) * stride * sizeof(double));
  auto p = buf.Typed<double>();
  auto run = [&](int step) {
    LaunchConfig cfg{.grid = {8, 1, 1}, .block = {256, 1, 1}};
    auto r = dev->Launch(cfg, [&, step](ThreadCtx& ctx) -> DeviceTask<void> {
      const std::uint32_t gstride = ctx.block_threads * ctx.grid_blocks;
      double acc = 0;
      for (std::uint32_t i = ctx.block_id * ctx.block_threads + ctx.thread_id;
           i < n; i += gstride) {
        acc += co_await ctx.Load(p + std::ptrdiff_t(i) * step);
      }
      (void)acc;
    });
    return r->stats.elapsed_cycles;
  };
  const auto t_coalesced = run(1);
  const auto t_strided = run(stride);
  EXPECT_GT(t_strided, t_coalesced * 2);
}

TEST(Launch, HostCallRoundTrip) {
  auto dev = MakeDevice();
  auto buf = *dev->Malloc(32 * sizeof(std::uint64_t));
  auto p = buf.Typed<std::uint64_t>();
  int host_calls = 0;
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {32, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    std::function<std::uint64_t()> handler =
        [&host_calls, tid = ctx.thread_id]() -> std::uint64_t {
      ++host_calls;
      return tid * 10;
    };
    const std::uint64_t reply = co_await ctx.HostCall(&handler, 500);
    co_await ctx.Store(p + ctx.thread_id, reply);
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(host_calls, 32);
  for (std::uint64_t i = 0; i < 32; ++i) EXPECT_EQ(p[std::ptrdiff_t(i)], i * 10);
  // 32 serialized host calls at 500 cycles each dominate the runtime.
  EXPECT_GE(result->stats.elapsed_cycles, 32u * 500u);
  EXPECT_EQ(result->stats.external_calls, 32u);
}

TEST(Launch, DivergentBranchesSerialize) {
  auto dev = MakeDevice();
  auto buf = *dev->Malloc(64 * sizeof(double));
  auto p = buf.Typed<double>();
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {32, 1, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    if (ctx.thread_id % 2 == 0) {
      co_await ctx.Store(p + ctx.thread_id, 1.0);
    } else {
      co_await ctx.Work(10);
      co_await ctx.Store(p + ctx.thread_id, 2.0);
    }
  });
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.divergent_replays, 0u);
  for (int i = 0; i < 32; ++i) EXPECT_DOUBLE_EQ(p[i], i % 2 == 0 ? 1.0 : 2.0);
}

TEST(Launch, TransferCostsModelled) {
  auto dev = MakeDevice();
  auto buf = *dev->Malloc(1 << 16);
  std::vector<std::byte> host(1 << 16, std::byte{7});
  const std::uint64_t up = dev->CopyToDevice(buf, host.data(), host.size());
  EXPECT_GT(up, std::uint64_t(dev->spec().pcie_latency_cycles));
  EXPECT_EQ(buf.host[100], std::byte{7});
  buf.host[100] = std::byte{9};
  const std::uint64_t down = dev->CopyFromDevice(host.data(), buf, host.size());
  EXPECT_EQ(host[100], std::byte{9});
  EXPECT_EQ(up, down);
}

TEST(Launch, LifetimeStatsAccumulate) {
  auto dev = MakeDevice();
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {32, 1, 1}};
  auto k = [](ThreadCtx& ctx) -> DeviceTask<void> { co_await ctx.Work(10); };
  ASSERT_TRUE(dev->Launch(cfg, k).ok());
  ASSERT_TRUE(dev->Launch(cfg, k).ok());
  EXPECT_EQ(dev->launches(), 2u);
  EXPECT_EQ(dev->lifetime_stats().blocks_launched, 2u);
}

TEST(Launch, ThreeDimBlockIds) {
  auto dev = MakeDevice();
  auto buf = *dev->Malloc(64 * sizeof(std::uint32_t));
  auto p = buf.Typed<std::uint32_t>();
  LaunchConfig cfg{.grid = {1, 1, 1}, .block = {8, 8, 1}};
  auto result = dev->Launch(cfg, [&](ThreadCtx& ctx) -> DeviceTask<void> {
    // Encode (x,y) to verify the 3-D decomposition of the linear id.
    co_await ctx.Store(p + ctx.thread_id, ctx.tid3.x * 100 + ctx.tid3.y);
  });
  ASSERT_TRUE(result.ok());
  for (std::uint32_t y = 0; y < 8; ++y) {
    for (std::uint32_t x = 0; x < 8; ++x) {
      EXPECT_EQ(p[y * 8 + x], x * 100 + y);
    }
  }
}

}  // namespace
}  // namespace dgc::sim
