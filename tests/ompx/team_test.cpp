// Tests for the OpenMP-style team runtime: worker state machine, parallel
// regions, reductions, and the multi-team-per-block mapping.
#include <gtest/gtest.h>

#include "ompx/league.h"
#include "ompx/team.h"

namespace dgc::ompx {
namespace {

using sim::Device;
using sim::DevicePtr;
using sim::DeviceSpec;
using sim::DeviceTask;
using sim::ThreadCtx;

std::unique_ptr<Device> MakeDevice() {
  return std::make_unique<Device>(DeviceSpec::TestDevice());
}

TEST(LaunchTeams, SequentialTeamMainRunsOncePerTeam) {
  auto dev = MakeDevice();
  const std::uint32_t teams = 6;
  auto buf = *dev->Malloc(teams * sizeof(std::uint64_t));
  auto p = buf.Typed<std::uint64_t>();
  TeamsConfig cfg{.num_teams = teams, .thread_limit = 64};
  auto result =
      LaunchTeams(*dev, cfg, [&](TeamCtx& team) -> DeviceTask<void> {
        // Only the initial thread executes this (sequential semantics).
        co_await team.hw->Store(p + team.team_id,
                                std::uint64_t(team.team_id) * 7 + 1);
      });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ok()) << (result->failures.empty() ? "" : result->failures[0]);
  for (std::uint64_t t = 0; t < teams; ++t) {
    EXPECT_EQ(p[std::ptrdiff_t(t)], t * 7 + 1);
  }
}

TEST(LaunchTeams, ParallelForCoversEveryIndexExactlyOnce) {
  auto dev = MakeDevice();
  const std::uint64_t n = 1000;
  auto buf = *dev->Malloc(n * sizeof(std::uint64_t));
  auto p = buf.Typed<std::uint64_t>();
  for (std::uint64_t i = 0; i < n; ++i) p[std::ptrdiff_t(i)] = 0;

  TeamsConfig cfg{.num_teams = 1, .thread_limit = 64};
  auto result =
      LaunchTeams(*dev, cfg, [&](TeamCtx& team) -> DeviceTask<void> {
        co_await ParallelFor(team, n,
                             [&](ThreadCtx& ctx, std::uint64_t i)
                                 -> DeviceTask<void> {
                               const std::uint64_t v = co_await ctx.Load(p + i);
                               co_await ctx.Store(p + i, v + i + 1);
                             });
      });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok()) << (result->failures.empty() ? "" : result->failures[0]);
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(p[std::ptrdiff_t(i)], i + 1) << i;  // exactly one increment
  }
}

TEST(LaunchTeams, SequentialThenParallelThenSequential) {
  auto dev = MakeDevice();
  const std::uint64_t n = 256;
  auto data = *dev->Malloc(n * sizeof(double));
  auto out = *dev->Malloc(sizeof(double));
  auto pd = data.Typed<double>();
  auto po = out.Typed<double>();

  TeamsConfig cfg{.num_teams = 1, .thread_limit = 32};
  auto result =
      LaunchTeams(*dev, cfg, [&](TeamCtx& team) -> DeviceTask<void> {
        // Sequential phase 1: init.
        for (std::uint64_t i = 0; i < n; ++i) {
          co_await team.hw->Store(pd + i, 1.0);
        }
        // Parallel phase: double everything.
        co_await ParallelFor(team, n,
                             [&](ThreadCtx& ctx, std::uint64_t i)
                                 -> DeviceTask<void> {
                               const double v = co_await ctx.Load(pd + i);
                               co_await ctx.Store(pd + i, v * 2.0);
                             });
        // Sequential phase 2: sum.
        double sum = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
          sum += co_await team.hw->Load(pd + i);
        }
        co_await team.hw->Store(po, sum);
      });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok()) << (result->failures.empty() ? "" : result->failures[0]);
  EXPECT_DOUBLE_EQ(*po, 2.0 * double(n));
}

TEST(LaunchTeams, MultipleParallelRegionsStayAligned) {
  auto dev = MakeDevice();
  auto buf = *dev->Malloc(sizeof(std::uint64_t));
  auto p = buf.Typed<std::uint64_t>();
  *p = 0;
  TeamsConfig cfg{.num_teams = 1, .thread_limit = 64};
  const int regions = 5;
  auto result =
      LaunchTeams(*dev, cfg, [&](TeamCtx& team) -> DeviceTask<void> {
        for (int r = 0; r < regions; ++r) {
          co_await Parallel(team, [&](ThreadCtx& ctx, std::uint32_t,
                                      std::uint32_t) -> DeviceTask<void> {
            co_await ctx.AtomicAdd(p, std::uint64_t{1});
          });
        }
      });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok()) << (result->failures.empty() ? "" : result->failures[0]);
  EXPECT_EQ(*p, std::uint64_t(regions) * 64);
}

TEST(LaunchTeams, EveryThreadSeesReductionTotal) {
  auto dev = MakeDevice();
  const std::uint32_t threads = 32;
  TeamsConfig cfg{.num_teams = 2, .thread_limit = threads};
  auto result =
      LaunchTeams(*dev, cfg, [&](TeamCtx& team) -> DeviceTask<void> {
        co_await Parallel(team, [&](ThreadCtx&, std::uint32_t rank,
                                    std::uint32_t) -> DeviceTask<void> {
          const double total = co_await TeamReduceSum(team, double(rank) + 1);
          // Every thread, not just rank 0, sees the full team sum.
          if (total != double(threads) * (threads + 1) / 2) {
            throw std::runtime_error("bad reduction total");
          }
          co_return;
        });
      });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok()) << (result->failures.empty() ? "" : result->failures[0]);
}

TEST(LaunchTeams, TeamReduceSumTotals) {
  auto dev = MakeDevice();
  const std::uint32_t teams = 3, threads = 32;
  auto buf = *dev->Malloc(teams * sizeof(double));
  auto p = buf.Typed<double>();
  TeamsConfig cfg{.num_teams = teams, .thread_limit = threads};
  auto result =
      LaunchTeams(*dev, cfg, [&](TeamCtx& team) -> DeviceTask<void> {
        auto out = p + team.team_id;
        co_await Parallel(team, [&, out](ThreadCtx& ctx, std::uint32_t rank,
                                         std::uint32_t) -> DeviceTask<void> {
          const double total = co_await TeamReduceSum(team, double(rank) + 1);
          if (rank == 0) co_await ctx.Store(out, total);
        });
      });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok()) << (result->failures.empty() ? "" : result->failures[0]);
  for (std::uint32_t t = 0; t < teams; ++t) {
    EXPECT_DOUBLE_EQ(p[t], double(threads) * (threads + 1) / 2) << t;
  }
}

TEST(LaunchTeams, SingleThreadTeamRunsParallelInline) {
  auto dev = MakeDevice();
  auto buf = *dev->Malloc(sizeof(std::uint64_t));
  auto p = buf.Typed<std::uint64_t>();
  *p = 0;
  TeamsConfig cfg{.num_teams = 1, .thread_limit = 1};
  auto result =
      LaunchTeams(*dev, cfg, [&](TeamCtx& team) -> DeviceTask<void> {
        co_await ParallelFor(team, 10,
                             [&](ThreadCtx& ctx, std::uint64_t)
                                 -> DeviceTask<void> {
                               co_await ctx.AtomicAdd(p, std::uint64_t{1});
                             });
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*p, 10u);
}

TEST(LaunchTeams, MultiDimMappingTwoTeamsPerBlock) {
  // Paper §3.1: M=2 teams per block, block shape (threads, 2, 1). Each team
  // must behave exactly like a standalone team.
  auto dev = MakeDevice();
  const std::uint32_t teams = 8, threads = 32, m = 2;
  auto buf = *dev->Malloc(teams * sizeof(double));
  auto p = buf.Typed<double>();
  TeamsConfig cfg{.num_teams = teams,
                  .thread_limit = threads,
                  .teams_per_block = m};
  auto result =
      LaunchTeams(*dev, cfg, [&](TeamCtx& team) -> DeviceTask<void> {
        auto out = p + team.team_id;
        co_await Parallel(team, [&, out](ThreadCtx& ctx, std::uint32_t rank,
                                         std::uint32_t) -> DeviceTask<void> {
          const double total = co_await TeamReduceSum(
              team, double(team.team_id) * 100 + rank);
          if (rank == 0) co_await ctx.Store(out, total);
        });
      });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ok()) << (result->failures.empty() ? "" : result->failures[0]);
  EXPECT_EQ(result->stats.blocks_launched, teams / m);
  for (std::uint32_t t = 0; t < teams; ++t) {
    const double expect = double(t) * 100 * threads +
                          double(threads) * (threads - 1) / 2;
    EXPECT_DOUBLE_EQ(p[t], expect) << t;
  }
}

TEST(LaunchTeams, OddTeamCountWithMultiDimPadding) {
  auto dev = MakeDevice();
  const std::uint32_t teams = 5, m = 2;
  auto buf = *dev->Malloc(teams * sizeof(std::uint64_t));
  auto p = buf.Typed<std::uint64_t>();
  TeamsConfig cfg{.num_teams = teams, .thread_limit = 16, .teams_per_block = m};
  auto result =
      LaunchTeams(*dev, cfg, [&](TeamCtx& team) -> DeviceTask<void> {
        co_await team.hw->Store(p + team.team_id, std::uint64_t{1});
      });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok());
  EXPECT_EQ(result->stats.blocks_launched, 3u);  // ceil(5/2)
  for (std::uint32_t t = 0; t < teams; ++t) EXPECT_EQ(p[t], 1u) << t;
}

TEST(LaunchTeams, FailingTeamMainDoesNotHangWorkers) {
  auto dev = MakeDevice();
  TeamsConfig cfg{.num_teams = 2, .thread_limit = 64};
  auto result =
      LaunchTeams(*dev, cfg, [&](TeamCtx& team) -> DeviceTask<void> {
        co_await team.hw->Work(5);
        if (team.team_id == 1) throw std::runtime_error("instance failed");
        co_return;
      });
  ASSERT_TRUE(result.ok()) << result.status().ToString();  // no deadlock
  EXPECT_EQ(result->failure_count, 1u);
}

TEST(LaunchTeams, InvalidConfigsRejected) {
  auto dev = MakeDevice();
  auto noop = [](TeamCtx&) -> DeviceTask<void> { co_return; };
  EXPECT_FALSE(LaunchTeams(*dev, {.num_teams = 0}, noop).ok());
  EXPECT_FALSE(LaunchTeams(*dev, {.thread_limit = 0}, noop).ok());
  EXPECT_FALSE(
      LaunchTeams(*dev, {.thread_limit = 2048}, noop).ok());
  EXPECT_FALSE(
      LaunchTeams(*dev, {.thread_limit = 512, .teams_per_block = 4}, noop)
          .ok());
}

}  // namespace
}  // namespace dgc::ompx

namespace dgc::ompx {
namespace {

using sim::DevicePtr;

TEST(Schedule, ChunkedCoversEveryIndexExactlyOnce) {
  auto dev = std::make_unique<sim::Device>(sim::DeviceSpec::TestDevice());
  const std::uint64_t n = 777;  // deliberately not a multiple of team size
  auto buf = *dev->Malloc(n * sizeof(std::uint64_t));
  auto p = buf.Typed<std::uint64_t>();
  for (std::uint64_t i = 0; i < n; ++i) p[std::ptrdiff_t(i)] = 0;

  TeamsConfig cfg{.num_teams = 1, .thread_limit = 64};
  auto result = LaunchTeams(*dev, cfg, [&](TeamCtx& team) -> sim::DeviceTask<void> {
    co_await ParallelFor(
        team, n,
        [&](sim::ThreadCtx& ctx, std::uint64_t i) -> sim::DeviceTask<void> {
          co_await ctx.AtomicAdd(p + i, std::uint64_t{1});
        },
        Schedule::kStaticChunked);
  });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok());
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(p[std::ptrdiff_t(i)], 1u) << i;
}

TEST(Schedule, InterleavedCoalescesBetterThanChunked) {
  // The reason LLVM uses schedule(static,1) on GPUs: with interleaved
  // scheduling a warp's lanes touch consecutive elements.
  auto run = [](Schedule schedule) {
    sim::Device dev(sim::DeviceSpec::TestDevice());
    const std::uint64_t n = 1 << 14;
    auto buf = *dev.Malloc(n * sizeof(double));
    auto p = buf.Typed<double>();
    TeamsConfig cfg{.num_teams = 1, .thread_limit = 256};
    auto result = LaunchTeams(dev, cfg, [&](TeamCtx& team) -> sim::DeviceTask<void> {
      co_await ParallelFor(
          team, n,
          [&](sim::ThreadCtx& ctx, std::uint64_t i) -> sim::DeviceTask<void> {
            co_await ctx.Store(p + i, 1.0);
          },
          schedule);
    });
    DGC_CHECK(result.ok());
    return result->stats;
  };
  const auto interleaved = run(Schedule::kStaticInterleaved);
  const auto chunked = run(Schedule::kStaticChunked);
  EXPECT_LT(interleaved.global_sectors, chunked.global_sectors);
  EXPECT_GT(interleaved.CoalescingEfficiency(),
            chunked.CoalescingEfficiency());
}

TEST(TeamReduce, MinAndMax) {
  auto dev = std::make_unique<sim::Device>(sim::DeviceSpec::TestDevice());
  const std::uint32_t threads = 64;
  double got_min = 0, got_max = 0;
  TeamsConfig cfg{.num_teams = 1, .thread_limit = threads};
  auto result = LaunchTeams(*dev, cfg, [&](TeamCtx& team) -> sim::DeviceTask<void> {
    co_await Parallel(team, [&](sim::ThreadCtx&, std::uint32_t rank,
                                std::uint32_t) -> sim::DeviceTask<void> {
      // Values 7-(rank*0.5): min at the last rank, max at rank 0.
      const double v = 7.0 - 0.5 * double(rank);
      const double mn = co_await TeamReduceMin(team, v);
      const double mx = co_await TeamReduceMax(team, v);
      if (rank == 0) {
        got_min = mn;
        got_max = mx;
      }
    });
  });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok()) << (result->failures.empty() ? "" : result->failures[0]);
  EXPECT_DOUBLE_EQ(got_min, 7.0 - 0.5 * (threads - 1));
  EXPECT_DOUBLE_EQ(got_max, 7.0);
}

TEST(TeamReduce, SingleThreadTeam) {
  auto dev = std::make_unique<sim::Device>(sim::DeviceSpec::TestDevice());
  double got = 0;
  TeamsConfig cfg{.num_teams = 1, .thread_limit = 1};
  auto result = LaunchTeams(*dev, cfg, [&](TeamCtx& team) -> sim::DeviceTask<void> {
    got = co_await TeamReduceSum(team, 3.25);
  });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok());
  EXPECT_DOUBLE_EQ(got, 3.25);
}

}  // namespace
}  // namespace dgc::ompx

namespace dgc::ompx {
namespace {

TEST(NestedParallel, InnerRegionSerializesPerThread) {
  // OpenMP default on devices: one level of parallelism — an inner
  // Parallel runs inline as a team of one on each encountering thread.
  auto dev = std::make_unique<sim::Device>(sim::DeviceSpec::TestDevice());
  auto buf = *dev->Malloc(2 * sizeof(std::uint64_t));
  auto outer_count = buf.Typed<std::uint64_t>();
  auto inner_count = buf.Typed<std::uint64_t>(1);
  *outer_count = 0;
  *inner_count = 0;
  TeamsConfig cfg{.num_teams = 1, .thread_limit = 32};
  auto result = LaunchTeams(*dev, cfg, [&](TeamCtx& team) -> sim::DeviceTask<void> {
    co_await Parallel(team, [&](sim::ThreadCtx& ctx, std::uint32_t,
                                std::uint32_t) -> sim::DeviceTask<void> {
      co_await ctx.AtomicAdd(outer_count, std::uint64_t{1});
      co_await Parallel(team, [&](sim::ThreadCtx& ictx, std::uint32_t irank,
                                  std::uint32_t isize) -> sim::DeviceTask<void> {
        // Inner region: a serialized team of one.
        if (irank != 0 || isize != 1) throw std::runtime_error("not serial");
        co_await ictx.AtomicAdd(inner_count, std::uint64_t{1});
      });
    });
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ok()) << (result->failures.empty() ? "" : result->failures[0]);
  EXPECT_EQ(*outer_count, 32u);
  EXPECT_EQ(*inner_count, 32u);  // once per outer thread
}

}  // namespace
}  // namespace dgc::ompx
