// Fault-tolerant ensemble execution, end to end: a trapping or hanging
// instance is contained to its own InstanceResult while siblings run to
// completion; retry-relaunch recovers recoverable instances on a smaller
// wave; and fault-injected sweeps stay byte-identical for any --jobs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "dgcf/libc.h"
#include "dgcf/loader.h"
#include "dgcf/rpc.h"
#include "ensemble/experiment.h"
#include "ensemble/loader.h"
#include "gpusim/device.h"
#include "gpusim/profiler.h"
#include "ompx/team.h"
#include "support/str.h"

namespace dgc::ensemble {
namespace {

using dgcf::AppEnv;
using dgcf::DeviceArgv;
using dgcf::DeviceLibc;
using dgcf::TerminationReason;
using ompx::TeamCtx;
using sim::Device;
using sim::DeviceSpec;
using sim::DeviceTask;
using sim::FaultPlan;
using sim::ThreadCtx;

struct Env {
  Device device{DeviceSpec::TestDevice()};
  dgcf::RpcHost rpc{device};
  DeviceLibc libc{device};
  AppEnv app_env{&device, &rpc, &libc};
};

// A fault-probe app, one failure mode per flag:
//   -x <code>  return <code> (a *completed* execution, never retried)
//   -h         hang: spin forever (killed by a watchdog)
//   -o         allocate via the unchecked-malloc path (traps on OOM)
//   -a         call abort()
//   -p         printf via RPC; returns 7 when the RPC call fails
//   -w <n>     n units of well-behaved compute (the default citizen)
DeviceTask<int> FaultProbeMain(AppEnv& env, TeamCtx& team, int argc,
                               DeviceArgv argv) {
  ThreadCtx& ctx = *team.hw;
  for (int i = 1; i < argc; ++i) {
    if (DeviceLibc::StrCmp(argv[i], "-x") == 0 && i + 1 < argc) {
      co_return int(std::strtol(DeviceLibc::ToString(argv[++i]).c_str(),
                                nullptr, 10));
    } else if (DeviceLibc::StrCmp(argv[i], "-h") == 0) {
      while (true) co_await ctx.Work(100);
    } else if (DeviceLibc::StrCmp(argv[i], "-o") == 0) {
      auto buf = co_await env.libc->MallocOrTrap(ctx, 256);
      co_await env.libc->Free(ctx, buf.addr);
    } else if (DeviceLibc::StrCmp(argv[i], "-a") == 0) {
      DeviceLibc::Abort();
    } else if (DeviceLibc::StrCmp(argv[i], "-p") == 0) {
      const int n = co_await env.rpc->Print(ctx, "probe\n");
      if (n < 0) co_return 7;
    } else if (DeviceLibc::StrCmp(argv[i], "-w") == 0 && i + 1 < argc) {
      const long reps =
          std::strtol(DeviceLibc::ToString(argv[++i]).c_str(), nullptr, 10);
      for (long r = 0; r < reps; ++r) co_await ctx.Work(50);
    } else {
      co_return dgcf::kExitUsage;
    }
  }
  co_return 0;
}

DGC_REGISTER_APP(faultprobe, "fault-injection probe", FaultProbeMain)

// The acceptance scenario: 8 instances, instance 2 hits an injected OOM
// trap, instance 5 hangs until the per-instance watchdog kills it, the
// other six run to completion.
EnsembleOptions MixedOptions() {
  EnsembleOptions opt;
  opt.app = "faultprobe";
  for (std::uint32_t i = 0; i < 8; ++i) {
    if (i == 2) opt.instance_args.push_back({"-o"});
    else if (i == 5) opt.instance_args.push_back({"-h"});
    else opt.instance_args.push_back({"-w", "20"});
  }
  opt.thread_limit = 8;
  opt.instance_watchdog_cycles = 100000;
  return opt;
}

TEST(FaultEnsemble, MixedOutcomesAreContainedPerInstance) {
  Env env;
  auto opt = MixedOptions();
  opt.faults = *FaultPlan::Parse("malloc-fail@1");
  auto run = RunEnsemble(env.app_env, opt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->instances.size(), 8u);
  EXPECT_EQ(run->waves, 1u);

  // The injected-OOM instance.
  EXPECT_FALSE(run->instances[2].completed);
  EXPECT_EQ(run->instances[2].reason, TerminationReason::kTrapOOM);
  EXPECT_NE(run->instances[2].detail.find("malloc"), std::string::npos);
  EXPECT_EQ(run->instances[2].attempts, 1u);

  // The hung instance, retired by the per-instance watchdog.
  EXPECT_FALSE(run->instances[5].completed);
  EXPECT_EQ(run->instances[5].reason, TerminationReason::kWatchdog);
  EXPECT_EQ(run->instances[5].attempts, 1u);

  // Six siblings exit 0, untouched.
  std::set<TerminationReason> failure_reasons;
  for (std::uint32_t i = 0; i < 8; ++i) {
    if (i == 2 || i == 5) {
      failure_reasons.insert(run->instances[i].reason);
      continue;
    }
    EXPECT_TRUE(run->instances[i].completed) << i;
    EXPECT_EQ(run->instances[i].exit_code, 0) << i;
    EXPECT_EQ(run->instances[i].reason, TerminationReason::kReturned) << i;
    EXPECT_GT(run->instances[i].cycles, 0u) << i;
  }
  EXPECT_EQ(failure_reasons.size(), 2u);  // two distinct reasons
  EXPECT_FALSE(run->all_ok());

  // Failures name their owning instance.
  bool oom_attributed = false, watchdog_attributed = false;
  for (const std::string& f : run->failures) {
    if (f.find("instance=2") != std::string::npos) oom_attributed = true;
    if (f.find("instance=5") != std::string::npos) watchdog_attributed = true;
  }
  EXPECT_TRUE(oom_attributed);
  EXPECT_TRUE(watchdog_attributed);
  EXPECT_GE(run->stats.watchdog_traps, 1u);
}

TEST(FaultEnsemble, RetryRecoversTheOomInstanceOnASmallerWave) {
  Env env;
  auto opt = MixedOptions();
  opt.faults = *FaultPlan::Parse("malloc-fail@1");
  opt.max_attempts = 2;
  auto run = RunEnsemble(env.app_env, opt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->waves, 2u);

  // The injected allocation failure was consumed in wave 1, so the retry's
  // malloc succeeds: the instance recovers.
  EXPECT_TRUE(run->instances[2].completed);
  EXPECT_EQ(run->instances[2].exit_code, 0);
  EXPECT_EQ(run->instances[2].reason, TerminationReason::kReturned);
  EXPECT_EQ(run->instances[2].attempts, 2u);

  // The hang is deterministic: the watchdog kills it again.
  EXPECT_FALSE(run->instances[5].completed);
  EXPECT_EQ(run->instances[5].reason, TerminationReason::kWatchdog);
  EXPECT_EQ(run->instances[5].attempts, 2u);
  EXPECT_FALSE(run->all_ok());
}

TEST(FaultEnsemble, RetryWaveHalvesTheTeamCap) {
  // Eight allocating instances on eight teams; the first six mallocs fail,
  // so more instances fail than half the team cap. Wave 2 must launch
  // min(cap / 2, pending) = 4 teams (one block each), and each of them
  // recovers its share of the six failed instances.
  Env env;
  EnsembleOptions opt;
  opt.app = "faultprobe";
  opt.instance_args.assign(8, {"-o"});
  opt.thread_limit = 8;
  opt.faults = *FaultPlan::Parse("malloc-fail@1,2,3,4,5,6");
  opt.max_attempts = 2;
  auto run = RunEnsemble(env.app_env, opt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->waves, 2u);
  EXPECT_EQ(run->stats.blocks_launched, 8u + 4u);
  std::uint32_t retried = 0;
  for (const dgcf::InstanceResult& inst : run->instances) {
    EXPECT_TRUE(inst.completed);
    EXPECT_EQ(inst.exit_code, 0);
    if (inst.attempts == 2) ++retried;
  }
  EXPECT_EQ(retried, 6u);
  EXPECT_TRUE(run->all_ok());
}

TEST(FaultEnsemble, RetryWaveLeavesFirstWaveSiblingsUntouched) {
  // The first wave must be identical whether or not a retry follows it:
  // run the mixed ensemble with and without retry and compare the
  // successful siblings' results cycle for cycle.
  auto run_with = [](std::uint32_t attempts) {
    Env env;
    auto opt = MixedOptions();
    opt.faults = *FaultPlan::Parse("malloc-fail@1");
    opt.max_attempts = attempts;
    auto run = RunEnsemble(env.app_env, opt);
    EXPECT_TRUE(run.ok());
    return *run;
  };
  const dgcf::RunResult base = run_with(1);
  const dgcf::RunResult retried = run_with(2);
  for (std::uint32_t i = 0; i < 8; ++i) {
    if (i == 2 || i == 5) continue;
    EXPECT_EQ(base.instances[i].exit_code, retried.instances[i].exit_code) << i;
    EXPECT_EQ(base.instances[i].completed, retried.instances[i].completed) << i;
    EXPECT_EQ(base.instances[i].cycles, retried.instances[i].cycles) << i;
    EXPECT_EQ(base.instances[i].attempts, retried.instances[i].attempts) << i;
  }
}

TEST(FaultEnsemble, AttributionIsIdenticalWithAndWithoutProfiler) {
  // Four instances on two teams, so each team runs two in turn; instance 1
  // hits an injected OOM and recovers on a retry wave. The per-instance
  // counters come from the launch, so attaching a profiler (which only
  // samples the timeline) must leave every one of them unchanged.
  sim::Profiler profiler(sim::Profiler::Options{.sample_interval = 256});
  auto run_with = [](sim::Profiler* observer) {
    Env env;
    EnsembleOptions opt;
    opt.app = "faultprobe";
    opt.instance_args = {{"-w", "20"}, {"-o", "-w", "5"}, {"-w", "30"},
                         {"-w", "10"}};
    opt.thread_limit = 8;
    opt.num_teams = 2;
    opt.faults = *FaultPlan::Parse("malloc-fail@1");
    opt.max_attempts = 2;
    opt.profiler = observer;
    auto run = RunEnsemble(env.app_env, opt);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return *run;
  };
  const dgcf::RunResult plain = run_with(nullptr);
  const dgcf::RunResult profiled = run_with(&profiler);
  ASSERT_EQ(plain.waves, 2u);
  EXPECT_EQ(profiler.waves(), 2u);
  EXPECT_TRUE(plain.all_ok());
  EXPECT_EQ(plain.instances[1].attempts, 2u);

  EXPECT_TRUE(plain.stats == profiled.stats);
  EXPECT_TRUE(plain.unattributed == profiled.unattributed);
  sim::LaunchStats sum = plain.unattributed;
  for (std::uint32_t i = 0; i < 4; ++i) {
    SCOPED_TRACE(StrFormat("instance %u", i));
    const sim::LaunchStats& stats = plain.instances[i].stats;
    EXPECT_TRUE(stats == profiled.instances[i].stats);
    EXPECT_EQ(stats.elapsed_cycles, plain.instances[i].cycles);
    EXPECT_GT(stats.warp_instructions, 0u);
    sim::LaunchStats work = stats;
    work.elapsed_cycles = 0;
    sum.AccumulateSequential(work);
  }
  // Instances and the unattributed slot partition the run's counters; the
  // contained OOM is in the run's trap count only.
  EXPECT_EQ(sum.warp_instructions, plain.stats.warp_instructions);
  EXPECT_EQ(sum.compute_cycles_issued, plain.stats.compute_cycles_issued);
  EXPECT_EQ(sum.barrier_arrivals, plain.stats.barrier_arrivals);
  EXPECT_EQ(sum.lane_traps, 0u);
  EXPECT_EQ(plain.stats.lane_traps, 1u);
}

TEST(FaultEnsemble, NonzeroExitIsCompletedAndNeverRetried) {
  Env env;
  EnsembleOptions opt;
  opt.app = "faultprobe";
  opt.instance_args = {{"-x", "3"}, {"-w", "5"}};
  opt.thread_limit = 4;
  opt.max_attempts = 3;
  auto run = RunEnsemble(env.app_env, opt);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->waves, 1u);  // nothing retryable: one wave only
  EXPECT_TRUE(run->instances[0].completed);
  EXPECT_EQ(run->instances[0].exit_code, 3);
  EXPECT_EQ(run->instances[0].attempts, 1u);
  EXPECT_FALSE(run->all_ok());  // nonzero exit still fails the run
}

TEST(FaultEnsemble, AbortTrapsAreContainedAndAttributed) {
  Env env;
  EnsembleOptions opt;
  opt.app = "faultprobe";
  opt.instance_args = {{"-w", "5"}, {"-a"}, {"-w", "5"}};
  opt.thread_limit = 4;
  auto run = RunEnsemble(env.app_env, opt);
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(run->instances[1].completed);
  EXPECT_EQ(run->instances[1].reason, TerminationReason::kTrapAbort);
  EXPECT_TRUE(run->instances[0].completed);
  EXPECT_TRUE(run->instances[2].completed);
}

TEST(FaultEnsemble, RpcFailureIsAnErrnoReturnNotACrash) {
  Env env;
  EnsembleOptions opt;
  opt.app = "faultprobe";
  opt.instance_args = {{"-p"}};
  opt.thread_limit = 4;
  opt.faults = *FaultPlan::Parse("rpc-fail@1");
  auto run = RunEnsemble(env.app_env, opt);
  ASSERT_TRUE(run.ok());
  // The app sees -1 from the failed printf and turns it into exit 7 — a
  // completed execution.
  EXPECT_TRUE(run->instances[0].completed);
  EXPECT_EQ(run->instances[0].exit_code, 7);
  EXPECT_EQ(env.rpc.calls_failed(), 1u);
  EXPECT_TRUE(env.rpc.stdout_text().empty());  // the print never landed
}

TEST(FaultEnsemble, SameSeedSameResultsAcrossRuns) {
  // Two calls on ONE EnsembleOptions: each call runs its own copy of the
  // plan, so the second call injects the same faults as the first (the
  // first call's consumed counters never leak into it).
  auto opt = MixedOptions();
  opt.faults = *FaultPlan::Parse("seed@9;malloc-fail@1");
  opt.max_attempts = 2;
  auto run_once = [&opt] {
    Env env;
    auto run = RunEnsemble(env.app_env, opt);
    EXPECT_TRUE(run.ok());
    return *run;
  };
  const dgcf::RunResult a = run_once();
  const dgcf::RunResult b = run_once();
  EXPECT_EQ(opt.faults.malloc_calls, 0u);  // the options were not consumed
  // Both calls hit instance 2's malloc and recovered it on the retry.
  for (const dgcf::RunResult* run : {&a, &b}) {
    EXPECT_EQ(run->waves, 2u);
    EXPECT_EQ(run->instances[2].attempts, 2u);
    EXPECT_TRUE(run->instances[2].completed);
  }
  EXPECT_EQ(a.kernel_cycles, b.kernel_cycles);
  EXPECT_EQ(a.waves, b.waves);
  ASSERT_EQ(a.instances.size(), b.instances.size());
  for (std::size_t i = 0; i < a.instances.size(); ++i) {
    EXPECT_EQ(a.instances[i].exit_code, b.instances[i].exit_code) << i;
    EXPECT_EQ(a.instances[i].cycles, b.instances[i].cycles) << i;
    EXPECT_EQ(int(a.instances[i].reason), int(b.instances[i].reason)) << i;
    EXPECT_EQ(a.instances[i].attempts, b.instances[i].attempts) << i;
  }
  EXPECT_EQ(a.failures, b.failures);
}

// --- One-instance containment -----------------------------------------------

EnsembleOptions OneProbe(std::vector<std::string> args) {
  EnsembleOptions opt;
  opt.app = "faultprobe";
  opt.instance_args = {std::move(args)};
  opt.thread_limit = 4;
  return opt;
}

TEST(FaultSingle, AbortIsContainedWithAReason) {
  Env env;
  auto run = RunEnsemble(env.app_env, OneProbe({"-a"}));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(run->instances[0].completed);
  EXPECT_EQ(run->instances[0].reason, TerminationReason::kTrapAbort);
  EXPECT_NE(run->instances[0].detail.find("abort"), std::string::npos);
  EXPECT_FALSE(run->all_ok());
  ASSERT_FALSE(run->failures.empty());
  EXPECT_NE(run->failures[0].find("instance=0"), std::string::npos);
}

TEST(FaultSingle, WatchdogKillsAHungSingleInstance) {
  Env env;
  auto opt = OneProbe({"-h"});
  opt.watchdog_cycles = 100000;
  auto run = RunEnsemble(env.app_env, opt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(run->instances[0].completed);
  EXPECT_EQ(run->instances[0].reason, TerminationReason::kWatchdog);
}

TEST(FaultSingle, AllOkIsFalseForAnEmptyRun) {
  // "No instance ran" must never read as success (documented contract).
  dgcf::RunResult empty;
  EXPECT_FALSE(empty.all_ok());
}

// --- Sweep-level behaviour ---------------------------------------------------

ExperimentConfig FaultSweepConfig() {
  ExperimentConfig cfg;
  cfg.run.app = "faultprobe";
  // Instance 3 allocates through the unchecked path; everyone else is pure
  // compute. With malloc-fail@1, the first device malloc of each point
  // fails — which is instance 3's, the only one that allocates. Points
  // with fewer than 4 instances never allocate and run clean.
  for (std::uint32_t i = 0; i < 8; ++i) {
    cfg.run.instance_args.push_back(
        i == 3 ? std::vector<std::string>{"-o"}
               : std::vector<std::string>{"-w", StrFormat("%u", 10 + i)});
  }
  cfg.run.thread_limit = 8;
  cfg.run.faults = *FaultPlan::Parse("malloc-fail@1");
  cfg.instance_counts = {1, 2, 4, 8};
  cfg.spec = DeviceSpec::TestDevice();
  return cfg;
}

TEST(FaultSweep, FaultingPointIsSkippedNotFatal) {
  auto series = MeasureSpeedup(FaultSweepConfig());
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  ASSERT_EQ(series->points.size(), 4u);
  EXPECT_TRUE(series->points[0].ran);   // n=1: no malloc, clean
  EXPECT_TRUE(series->points[1].ran);   // n=2: clean
  EXPECT_FALSE(series->points[2].ran);  // n=4: instance 3 traps
  EXPECT_FALSE(series->points[3].ran);  // n=8: instance 3 traps
  EXPECT_NE(series->points[2].note.find("failed"), std::string::npos);
  EXPECT_NE(series->points[2].note.find("instance=3"), std::string::npos);
}

TEST(FaultSweep, InjectedSweepIsByteIdenticalForAnyJobCount) {
  // Two series × four points, every point's run copying the configured
  // FaultPlan: the rendered CSV must not depend on how many worker threads
  // ran the points.
  auto run_with_jobs = [](std::uint32_t jobs) {
    ExperimentConfig a = FaultSweepConfig();
    ExperimentConfig b = FaultSweepConfig();
    b.run.thread_limit = 4;
    SweepOptions options;
    options.jobs = jobs;
    auto series = RunSweeps({a, b}, options);
    EXPECT_TRUE(series.ok());
    return FormatSpeedupCsv(*series);
  };
  const std::string serial = run_with_jobs(1);
  const std::string parallel = run_with_jobs(8);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find(",0,,"), std::string::npos);  // skipped points present
}

TEST(FaultSweep, RetryInSweepRecoversInjectedPoint) {
  ExperimentConfig cfg = FaultSweepConfig();
  cfg.run.max_attempts = 2;
  auto series = MeasureSpeedup(cfg);
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  // With a retry, the injected allocation failure is consumed in wave 1
  // and instance 3 recovers in wave 2: every point measures.
  for (const SpeedupPoint& p : series->points) {
    EXPECT_TRUE(p.ran) << "n=" << p.instances << ": " << p.note;
  }
}

}  // namespace
}  // namespace dgc::ensemble
