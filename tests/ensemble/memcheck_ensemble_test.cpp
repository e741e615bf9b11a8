// Ensemble-level memcheck integration: the §3.3 cross-instance race
// detector over shared vs isolated globals, and clean reports on real
// ensemble application runs.
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/common.h"
#include "dgcf/libc.h"
#include "dgcf/rpc.h"
#include "ensemble/isolation.h"
#include "ensemble/loader.h"
#include "gpusim/memcheck.h"
#include "ompx/league.h"
#include "support/str.h"

namespace dgc::ensemble {
namespace {

using ompx::TeamCtx;
using sim::Device;
using sim::DeviceSpec;
using sim::DeviceTask;

// Four teams, one instance each, every team writing "its" replica of a
// single declared global — the ablation_isolation bench in miniature.
sim::MemcheckReport RunGlobalsWrites(GlobalsMode mode) {
  Device device(DeviceSpec::TestDevice());
  sim::Memcheck memcheck;
  memcheck.Attach(device.memory());

  const std::uint32_t teams = 4;
  IsolatedGlobals globals;
  EXPECT_TRUE(globals.Declare("g_state", sizeof(std::uint64_t)).ok());
  EXPECT_TRUE(globals.Materialize(device, teams, mode, &memcheck).ok());

  ompx::TeamsConfig cfg{.num_teams = teams, .thread_limit = 32};
  cfg.launch.name = "globals-probe";
  cfg.launch.memcheck = &memcheck;
  auto result = ompx::LaunchTeams(
      device, cfg, [&](TeamCtx& team) -> DeviceTask<void> {
        team.hw->SetRowInstance(std::int32_t(team.team_id), 0);
        auto slot = globals.Slot<std::uint64_t>(team.team_id, "g_state");
        EXPECT_TRUE(slot.ok());
        co_await team.hw->Store(*slot, std::uint64_t(team.team_id) + 1);
      });
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  globals.Release(device);
  return memcheck.report();
}

TEST(EnsembleMemcheck, SharedGlobalsReportCrossInstanceRaces) {
  const sim::MemcheckReport report = RunGlobalsWrites(GlobalsMode::kShared);
  // Four instances write the single shared copy: the first claims it, the
  // other three race.
  EXPECT_EQ(report.cross_instance_count, 3u) << report.ToString();
  ASSERT_FALSE(report.findings.empty());
  EXPECT_EQ(report.findings[0].kind, sim::MemcheckErrorKind::kCrossInstance);
  EXPECT_EQ(report.findings[0].region_label, "globals (shared)");
}

TEST(EnsembleMemcheck, IsolatedGlobalsAreClean) {
  const sim::MemcheckReport report = RunGlobalsWrites(GlobalsMode::kIsolated);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST(EnsembleMemcheck, WriteToForeignReplicaIsFlagged) {
  Device device(DeviceSpec::TestDevice());
  sim::Memcheck memcheck;
  memcheck.Attach(device.memory());

  IsolatedGlobals globals;
  ASSERT_TRUE(globals.Declare("g", sizeof(std::uint64_t)).ok());
  ASSERT_TRUE(
      globals.Materialize(device, 2, GlobalsMode::kIsolated, &memcheck).ok());

  ompx::TeamsConfig cfg{.num_teams = 1, .thread_limit = 32};
  cfg.launch.memcheck = &memcheck;
  auto result = ompx::LaunchTeams(
      device, cfg, [&](TeamCtx& team) -> DeviceTask<void> {
        team.hw->SetRowInstance(0, 0);
        // Instance 0 writes instance 1's replica — exactly the bug class
        // §3.3's isolation is meant to rule out.
        auto foreign = globals.Slot<std::uint64_t>(1, "g");
        EXPECT_TRUE(foreign.ok());
        co_await team.hw->Store(*foreign, std::uint64_t{7});
      });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  globals.Release(device);

  EXPECT_EQ(memcheck.report().cross_instance_count, 1u)
      << memcheck.report().ToString();
  EXPECT_EQ(memcheck.report().findings[0].region_owner, 1);
  EXPECT_EQ(memcheck.report().findings[0].instance, 0);
}

// A real application ensemble under the sanitizer: a correct app must
// produce a completely clean report (no leaks: instances free their heap).
TEST(EnsembleMemcheck, RealAppEnsembleRunsClean) {
  apps::RegisterAllApps();
  Device device(DeviceSpec::TestDevice());
  dgcf::RpcHost rpc(device);
  dgcf::DeviceLibc libc(device);
  dgcf::AppEnv env{&device, &rpc, &libc};
  sim::Memcheck memcheck;
  memcheck.Attach(device.memory());

  EnsembleOptions opt;
  opt.app = "rsbench";
  for (std::uint32_t i = 0; i < 4; ++i) {
    opt.instance_args.push_back(
        {"-u", "6", "-w", "4", "-l", "64", "-s", StrFormat("%u", i + 1)});
  }
  opt.thread_limit = 32;
  opt.memcheck = &memcheck;

  auto run = RunEnsemble(env, opt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->all_ok());
  EXPECT_TRUE(run->memcheck.clean()) << run->memcheck.ToString();
  EXPECT_EQ(run->stats.memcheck_findings, 0u);
  EXPECT_EQ(libc.failed_frees(), 0u);
}

// One record names the instance a team is running: four instances on two
// teams, so each team runs two in turn, and the counter attribution, the heap
// owner (mem_peak_bytes), the loader's "instance=I contained:" line and the
// memcheck findings must all name the same instance (the lane-failure prefix
// is checked by Launch.KernelExceptionReportedAsLaneFailure). Instance I is
// told apart by its argc (I + 2): it allocates (I + 1) * 256 - 8 bytes,
// issues I + 1 loads, stores into the allocator's rounding padding (an
// out-of-bounds finding), and aborts with the buffer still live (a leak
// finding).
TEST(EnsembleMemcheck, AllAttributionsNameTheSameInstance) {
  dgcf::AppRegistry::Instance().Register(
      {"attribution_probe", "test app: instance-distinct work, heap, finding",
       [](dgcf::AppEnv& env, TeamCtx& team, int argc, dgcf::DeviceArgv)
           -> DeviceTask<int> {
         sim::ThreadCtx& ctx = *team.hw;
         const std::uint64_t slots = std::uint64_t(argc - 1);  // I + 1
         sim::DeviceBuffer buf =
             co_await env.libc->Malloc(ctx, slots * 256 - 8);
         auto p = buf.Typed<std::uint64_t>();
         for (std::uint64_t k = 0; k < slots; ++k) {
           (void)co_await ctx.Load(p + k);
         }
         co_await ctx.Store(p + (slots * 32 - 1), std::uint64_t{1});
         dgcf::DeviceLibc::Abort("attribution probe");
         co_return 0;
       }});

  Device device(DeviceSpec::TestDevice());
  dgcf::RpcHost rpc(device);
  dgcf::DeviceLibc libc(device);
  dgcf::AppEnv env{&device, &rpc, &libc};
  sim::Memcheck memcheck;
  memcheck.Attach(device.memory());

  const std::uint32_t ni = 4;
  EnsembleOptions opt;
  opt.app = "attribution_probe";
  for (std::uint32_t i = 0; i < ni; ++i) {
    opt.instance_args.push_back(std::vector<std::string>(i + 1, "x"));
  }
  opt.num_teams = 2;
  opt.thread_limit = 32;
  opt.memcheck = &memcheck;

  auto run = RunEnsemble(env, opt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->instances.size(), ni);
  std::vector<std::uint32_t> oob_findings(ni, 0);
  for (const sim::MemcheckFinding& f : run->memcheck.findings) {
    ASSERT_TRUE(f.has_region) << f.ToString();
    const std::int32_t owner = std::int32_t((f.region_bytes + 8) / 256) - 1;
    EXPECT_EQ(f.instance, owner) << f.ToString();
    if (f.kind == sim::MemcheckErrorKind::kOutOfBounds &&
        f.instance == owner) {
      ++oob_findings[std::size_t(owner)];
    }
  }
  for (std::uint32_t i = 0; i < ni; ++i) {
    SCOPED_TRACE(StrFormat("instance %u", i));
    const sim::LaunchStats& stats = run->instances[i].stats;
    EXPECT_EQ(stats.load_instructions, i + 1u);
    EXPECT_EQ(stats.store_instructions, 1u);
    EXPECT_EQ(run->instances[i].mem_peak_bytes, (i + 1u) * 256u);
    EXPECT_EQ(run->instances[i].reason, dgcf::TerminationReason::kTrapAbort);
    EXPECT_EQ(std::count_if(run->failures.begin(), run->failures.end(),
                            [&](const std::string& f) {
                              return f.starts_with(
                                  StrFormat("instance=%u contained: ", i));
                            }),
              1);
    EXPECT_EQ(oob_findings[i], 1u);
  }
  // Nothing the instances did leaks into the unattributed bucket.
  EXPECT_EQ(run->unattributed.load_instructions, 0u);
  EXPECT_EQ(run->unattributed.store_instructions, 0u);
}

// Identical runs with and without the sanitizer must cost identical cycles:
// checking is observation, not simulation work.
TEST(EnsembleMemcheck, SanitizerDoesNotPerturbTiming) {
  apps::RegisterAllApps();
  auto run_once = [](bool check) -> std::uint64_t {
    Device device(DeviceSpec::TestDevice());
    dgcf::RpcHost rpc(device);
    dgcf::DeviceLibc libc(device);
    dgcf::AppEnv env{&device, &rpc, &libc};
    sim::Memcheck memcheck;
    if (check) memcheck.Attach(device.memory());

    EnsembleOptions opt;
    opt.app = "rsbench";
    for (std::uint32_t i = 0; i < 3; ++i) {
      opt.instance_args.push_back(
          {"-u", "4", "-w", "3", "-l", "32", "-s", StrFormat("%u", i + 1)});
    }
    opt.thread_limit = 32;
    if (check) opt.memcheck = &memcheck;
    auto run = RunEnsemble(env, opt);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return run->kernel_cycles;
  };
  EXPECT_EQ(run_once(false), run_once(true));
}

}  // namespace
}  // namespace dgc::ensemble
