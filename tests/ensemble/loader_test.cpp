// End-to-end tests of the ensemble loader — the paper's core contribution.
#include <gtest/gtest.h>

#include <set>

#include <fstream>

#include "dgcf/libc.h"
#include "dgcf/rpc.h"
#include "ensemble/isolation.h"
#include "ensemble/loader.h"
#include "gpusim/device.h"
#include "gpusim/memcheck.h"
#include "gpusim/trace.h"
#include "ompx/team.h"
#include "support/str.h"

namespace dgc::ensemble {
namespace {

using dgcf::AppEnv;
using dgcf::DeviceArgv;
using dgcf::DeviceLibc;
using ompx::TeamCtx;
using sim::Device;
using sim::DeviceSpec;
using sim::DeviceTask;
using sim::ThreadCtx;

struct Env {
  Device device{DeviceSpec::TestDevice()};
  dgcf::RpcHost rpc{device};
  DeviceLibc libc{device};
  AppEnv app_env{&device, &rpc, &libc};
};

// An ensemble-style app: parses -s <size> -v <value>, mallocs, fills in
// parallel, checks the sum, prints a line, and exits with the size modulo
// 100 so the test can verify per-instance argument routing.
DeviceTask<int> EnsembleProbeMain(AppEnv& env, TeamCtx& team, int argc,
                                  DeviceArgv argv) {
  std::uint64_t size = 0;
  std::uint64_t value = 1;
  for (int i = 1; i < argc; ++i) {
    if (DeviceLibc::StrCmp(argv[i], "-s") == 0 && i + 1 < argc) {
      size = std::uint64_t(
          std::strtoll(DeviceLibc::ToString(argv[++i]).c_str(), nullptr, 10));
    } else if (DeviceLibc::StrCmp(argv[i], "-v") == 0 && i + 1 < argc) {
      value = std::uint64_t(
          std::strtoll(DeviceLibc::ToString(argv[++i]).c_str(), nullptr, 10));
    } else {
      co_return dgcf::kExitUsage;
    }
  }
  if (size == 0) co_return dgcf::kExitUsage;

  auto buf = co_await env.libc->Malloc(*team.hw, size * sizeof(std::uint64_t));
  if (buf.host == nullptr) co_return dgcf::kExitNoMem;
  auto p = buf.Typed<std::uint64_t>();

  co_await ompx::ParallelFor(
      team, size, [&](ThreadCtx& ctx, std::uint64_t i) -> DeviceTask<void> {
        co_await ctx.Store(p + i, value);
      });

  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < size; ++i) {
    sum += co_await team.hw->Load(p + i);
  }
  co_await env.libc->Free(*team.hw, buf.addr);
  if (sum != size * value) co_return 99;  // corruption across instances
  co_return int(size % 100);
}

DGC_REGISTER_APP(ensemble_probe, "per-instance argument probe",
                 EnsembleProbeMain)

EnsembleOptions ProbeOptions(std::uint32_t instances,
                             std::uint32_t thread_limit = 32) {
  EnsembleOptions opt;
  opt.app = "ensemble_probe";
  for (std::uint32_t i = 0; i < instances; ++i) {
    opt.instance_args.push_back(
        {"-s", StrFormat("%u", 100 + i), "-v", StrFormat("%u", i + 1)});
  }
  opt.thread_limit = thread_limit;
  return opt;
}

TEST(EnsembleLoader, EachInstanceGetsItsOwnArguments) {
  Env env;
  auto run = RunEnsemble(env.app_env, ProbeOptions(6));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->instances.size(), 6u);
  for (std::uint32_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(run->instances[i].completed) << i;
    EXPECT_EQ(run->instances[i].exit_code, int(100 + i) % 100) << i;
  }
  EXPECT_GT(run->kernel_cycles, 0u);
}

TEST(EnsembleLoader, SingleKernelLaunchForAllInstances) {
  Env env;
  const auto launches_before = env.device.launches();
  ASSERT_TRUE(RunEnsemble(env.app_env, ProbeOptions(4)).ok());
  EXPECT_EQ(env.device.launches(), launches_before + 1);
}

TEST(EnsembleLoader, OneTeamPerInstanceByDefault) {
  Env env;
  auto run = RunEnsemble(env.app_env, ProbeOptions(5));
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->stats.blocks_launched, 5u);
}

TEST(EnsembleLoader, NumInstancesSelectsPrefixOfFile) {
  Env env;
  auto opt = ProbeOptions(6);
  opt.num_instances = 3;
  auto run = RunEnsemble(env.app_env, opt);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->instances.size(), 3u);
}

TEST(EnsembleLoader, MoreInstancesThanLinesRejected) {
  Env env;
  auto opt = ProbeOptions(2);
  opt.num_instances = 4;
  auto run = RunEnsemble(env.app_env, opt);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), ErrorCode::kInvalidArgument);
}

TEST(EnsembleLoader, FewerTeamsThanInstancesDistributes) {
  // Fig. 4's distribute loop: team t runs instances t, t+N, ...
  Env env;
  auto opt = ProbeOptions(8);
  opt.num_teams = 2;
  auto run = RunEnsemble(env.app_env, opt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->stats.blocks_launched, 2u);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(run->instances[i].exit_code, int(100 + i) % 100) << i;
  }
}

TEST(EnsembleLoader, MultiDimMappingPacksInstancesPerBlock) {
  Env env;
  auto opt = ProbeOptions(8, /*thread_limit=*/16);
  opt.teams_per_block = 4;  // (16, 4, 1) blocks
  auto run = RunEnsemble(env.app_env, opt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->stats.blocks_launched, 2u);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(run->instances[i].completed);
    EXPECT_EQ(run->instances[i].exit_code, int(100 + i) % 100) << i;
  }
}

TEST(EnsembleLoader, InstanceResultsIndependentOfCoResidents) {
  // Property: an instance's exit code must not depend on which other
  // instances share the kernel (isolation).
  Env env1, env2;
  auto solo = RunEnsemble(env1.app_env, ProbeOptions(1));
  auto packed = RunEnsemble(env2.app_env, ProbeOptions(6));
  ASSERT_TRUE(solo.ok());
  ASSERT_TRUE(packed.ok());
  EXPECT_EQ(solo->instances[0].exit_code, packed->instances[0].exit_code);
}

TEST(EnsembleLoader, OomInstanceReportsExitCode) {
  Env env;  // 64 MiB test device
  EnsembleOptions opt;
  opt.app = "ensemble_probe";
  opt.instance_args.push_back({"-s", "100"});
  opt.instance_args.push_back({"-s", "100000000"});  // 800 MB → OOM
  opt.thread_limit = 32;
  auto run = RunEnsemble(env.app_env, opt);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->instances[0].exit_code, 0);
  EXPECT_EQ(run->instances[1].exit_code, dgcf::kExitNoMem);
  EXPECT_FALSE(run->all_ok());
}

TEST(EnsembleLoader, UnknownAppRejected) {
  Env env;
  EnsembleOptions opt;
  opt.app = "ghost";
  opt.instance_args.push_back({"-s", "1"});
  EXPECT_EQ(RunEnsemble(env.app_env, opt).status().code(),
            ErrorCode::kNotFound);
}

TEST(EnsembleLoader, EmptyArgsRejected) {
  Env env;
  EnsembleOptions opt;
  opt.app = "ensemble_probe";
  EXPECT_EQ(RunEnsemble(env.app_env, opt).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(EnsembleLoader, ZeroThreadLimitRejectedByName) {
  // Library callers bypass the CLI's flag checks; the loader must still
  // reject a zeroed field with a message that names it.
  Env env;
  auto opt = ProbeOptions(2);
  opt.thread_limit = 0;
  auto run = RunEnsemble(env.app_env, opt);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(run.status().message().find("thread_limit"), std::string::npos)
      << run.status().ToString();
}

TEST(EnsembleLoader, ZeroTeamsPerBlockRejectedByName) {
  Env env;
  auto opt = ProbeOptions(2);
  opt.teams_per_block = 0;
  auto run = RunEnsemble(env.app_env, opt);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(run.status().message().find("teams_per_block"), std::string::npos)
      << run.status().ToString();
}

TEST(EnsembleLoader, CliFrontEndMatchesFig5c) {
  Env env;
  const std::string path = testing::TempDir() + "/dgc_ensemble_args.txt";
  {
    std::ofstream out(path);
    for (int i = 0; i < 4; ++i) out << "-s " << (100 + i) << "\n";
  }
  auto args =
      ParseLoaderArgs("ensemble_probe", {"-f", path, "-n", "4", "-t", "32"});
  ASSERT_TRUE(args.ok()) << args.status().ToString();
  auto run = RunEnsemble(env.app_env, *args);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->instances.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(run->instances[std::size_t(i)].exit_code, i);
  std::remove(path.c_str());
}

TEST(EnsembleLoader, CliScriptMode) {
  Env env;
  const std::string path = testing::TempDir() + "/dgc_ensemble_script.txt";
  {
    std::ofstream out(path);
    out << "@repeat 3 : -s {i+100}\n";
  }
  auto args =
      ParseLoaderArgs("ensemble_probe", {"-f", path, "-t", "32", "--script"});
  ASSERT_TRUE(args.ok()) << args.status().ToString();
  auto run = RunEnsemble(env.app_env, *args);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->instances.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(run->instances[std::size_t(i)].exit_code, i);
  std::remove(path.c_str());
}

TEST(EnsembleLoader, CliRejectsBadFlags) {
  EXPECT_FALSE(ParseLoaderArgs("ensemble_probe", {"-n", "4"}).ok());
  EXPECT_FALSE(ParseLoaderArgs("ensemble_probe", {"-f", "/nope"}).ok());
  // A bad --inject spec is reported as such, before the file is read.
  auto bad_inject =
      ParseLoaderArgs("ensemble_probe", {"-f", "/nope", "--inject=bogus:1"});
  ASSERT_FALSE(bad_inject.ok());
  EXPECT_EQ(bad_inject.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(bad_inject.status().message().find("--inject"), std::string::npos)
      << bad_inject.status().ToString();
}

TEST(EnsembleLoader, CliParsesAttachedAndEqualsForms) {
  const std::string path = testing::TempDir() + "/dgc_ensemble_forms.txt";
  {
    std::ofstream out(path);
    out << "-s 100\n-s 101\n";
  }
  auto attached = ParseLoaderArgs("ensemble_probe",
                                  {"-f", path, "-t64", "-m2", "--teams=1"});
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  EXPECT_EQ(attached->thread_limit, 64u);
  EXPECT_EQ(attached->teams_per_block, 2u);
  EXPECT_EQ(attached->num_teams, 1u);
  EXPECT_EQ(attached->instance_args.size(), 2u);
  auto equals = ParseLoaderArgs(
      "ensemble_probe", {"--file=" + path, "--thread-limit=64",
                         "--inject=trap@b0.w0.c5000", "--share-data=off"});
  ASSERT_TRUE(equals.ok()) << equals.status().ToString();
  EXPECT_EQ(equals->thread_limit, 64u);
  EXPECT_EQ(equals->faults.ToString(), "trap@b0.w0.c5000");
  EXPECT_FALSE(equals->share_data);
  std::remove(path.c_str());
}

// --- One instance ------------------------------------------------------------
// The original framework's main wrapper ([26]) ran ONE instance on one team;
// here that is RunEnsemble with a single argument row, the T1 baseline.

// A miniature "legacy CPU application": parses -n <count> and -x <value>,
// device-mallocs a vector, fills it in parallel, reduces, prints the total,
// and returns 0 (or a usage / OOM error).
DeviceTask<int> FillReduceMain(AppEnv& env, TeamCtx& team, int argc,
                               DeviceArgv argv) {
  std::uint64_t n = 0;
  double x = 1.0;
  for (int i = 1; i < argc; ++i) {
    if (DeviceLibc::StrCmp(argv[i], "-n") == 0 && i + 1 < argc) {
      n = std::uint64_t(std::strtoll(DeviceLibc::ToString(argv[++i]).c_str(),
                                     nullptr, 10));
    } else if (DeviceLibc::StrCmp(argv[i], "-x") == 0 && i + 1 < argc) {
      x = std::strtod(DeviceLibc::ToString(argv[++i]).c_str(), nullptr);
    } else {
      co_return dgcf::kExitUsage;
    }
  }
  if (n == 0) co_return dgcf::kExitUsage;

  sim::DeviceBuffer buf =
      co_await env.libc->Malloc(*team.hw, n * sizeof(double));
  if (buf.host == nullptr) co_return dgcf::kExitNoMem;
  auto p = buf.Typed<double>();

  co_await ompx::ParallelFor(
      team, n, [&](ThreadCtx& ctx, std::uint64_t i) -> DeviceTask<void> {
        co_await ctx.Store(p + i, x);
      });

  double sum = 0;
  co_await ompx::Parallel(
      team, [&](ThreadCtx&, std::uint32_t rank,
                std::uint32_t size) -> DeviceTask<void> {
        double local = 0;
        for (std::uint64_t i = rank; i < n; i += size) {
          local += co_await team.hw->Load(p + i);
        }
        const double total = co_await ompx::TeamReduceSum(team, local);
        if (rank == 0) sum = total;
      });

  co_await env.rpc->Print(*team.hw, StrFormat("sum=%.1f\n", sum));
  co_await env.libc->Free(*team.hw, buf.addr);
  co_return dgcf::kExitOk;
}

DGC_REGISTER_APP(fill_reduce, "fill-and-reduce smoke app", FillReduceMain)

EnsembleOptions OneInstance(std::string app, std::vector<std::string> args,
                            std::uint32_t thread_limit) {
  EnsembleOptions opt;
  opt.app = std::move(app);
  opt.instance_args = {std::move(args)};
  opt.thread_limit = thread_limit;
  return opt;
}

TEST(SingleLoader, RunsAppEndToEnd) {
  Env env;
  auto run = RunEnsemble(
      env.app_env, OneInstance("fill_reduce", {"-n", "500", "-x", "2.0"}, 64));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->instances.size(), 1u);
  EXPECT_TRUE(run->instances[0].completed);
  EXPECT_EQ(run->instances[0].exit_code, dgcf::kExitOk);
  EXPECT_EQ(env.rpc.stdout_text(), "sum=1000.0\n");
  EXPECT_GT(run->kernel_cycles, 0u);
  EXPECT_GT(run->transfer_cycles, 0u);
  EXPECT_TRUE(run->all_ok());
}

TEST(SingleLoader, MemcheckCleanOnCorrectApp) {
  Env env;
  sim::Memcheck memcheck;
  memcheck.Attach(env.device.memory());
  auto opt = OneInstance("fill_reduce", {"-n", "500", "-x", "2.0"}, 64);
  opt.memcheck = &memcheck;
  auto run = RunEnsemble(env.app_env, opt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->all_ok());
  EXPECT_TRUE(run->memcheck.clean()) << run->memcheck.ToString();
  EXPECT_EQ(run->stats.memcheck_findings, 0u);
}

TEST(SingleLoader, UsageErrorSurfacesAsExitCode) {
  Env env;
  auto run =
      RunEnsemble(env.app_env, OneInstance("fill_reduce", {"--bogus"}, 32));
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->instances[0].completed);
  EXPECT_EQ(run->instances[0].exit_code, dgcf::kExitUsage);
  EXPECT_FALSE(run->all_ok());
}

TEST(SingleLoader, OomSurfacesAsExitCode) {
  Env env;
  // 64 MiB test device: ask for 100M doubles.
  auto run = RunEnsemble(env.app_env,
                         OneInstance("fill_reduce", {"-n", "100000000"}, 32));
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->instances[0].exit_code, dgcf::kExitNoMem);
}

TEST(SingleLoader, UnknownAppFails) {
  Env env;
  auto run = RunEnsemble(env.app_env, OneInstance("missing", {}, 1024));
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), ErrorCode::kNotFound);
}

TEST(SingleLoader, ThreadLimitChangesParallelPerformance) {
  Env env;
  auto time_with = [&](std::uint32_t tl) {
    auto run = RunEnsemble(env.app_env,
                           OneInstance("fill_reduce", {"-n", "20000"}, tl));
    EXPECT_TRUE(run.ok());
    return run->kernel_cycles;
  };
  const auto t1 = time_with(1);
  const auto t64 = time_with(64);
  EXPECT_GT(t1, t64);  // the parallel fill/reduce dominates
}

// --- Global-variable isolation (§3.3) --------------------------------------

TEST(IsolatedGlobals, ReplicasAreIndependent) {
  Device device(DeviceSpec::TestDevice());
  IsolatedGlobals globals;
  const double init = 1.5;
  ASSERT_TRUE(globals.Declare("g_total", sizeof(double), &init).ok());
  ASSERT_TRUE(globals.Declare("g_count", sizeof(std::uint64_t)).ok());
  ASSERT_TRUE(
      globals.Materialize(device, 4, GlobalsMode::kIsolated).ok());
  EXPECT_EQ(globals.replicas(), 4u);

  for (std::uint32_t i = 0; i < 4; ++i) {
    auto slot = globals.Slot<double>(i, "g_total");
    ASSERT_TRUE(slot.ok());
    EXPECT_DOUBLE_EQ(*slot->host, 1.5);
    *slot->host += double(i);
  }
  // Writes did not leak between replicas.
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(*globals.Slot<double>(i, "g_total")->host, 1.5 + i);
  }
  globals.Release(device);
  EXPECT_EQ(device.memory().allocation_count(), 0u);
}

TEST(IsolatedGlobals, SharedModeAliases) {
  Device device(DeviceSpec::TestDevice());
  IsolatedGlobals globals;
  ASSERT_TRUE(globals.Declare("g", sizeof(std::uint64_t)).ok());
  ASSERT_TRUE(globals.Materialize(device, 4, GlobalsMode::kShared).ok());
  EXPECT_EQ(globals.replicas(), 1u);
  *globals.Slot<std::uint64_t>(0, "g")->host = 42;
  EXPECT_EQ(*globals.Slot<std::uint64_t>(3, "g")->host, 42u);  // the race
  globals.Release(device);
}

TEST(IsolatedGlobals, DeclarationErrors) {
  Device device(DeviceSpec::TestDevice());
  IsolatedGlobals globals;
  EXPECT_FALSE(globals.Declare("z", 0).ok());
  ASSERT_TRUE(globals.Declare("a", 8).ok());
  EXPECT_FALSE(globals.Declare("a", 8).ok());  // duplicate
  ASSERT_TRUE(globals.Materialize(device, 2, GlobalsMode::kIsolated).ok());
  EXPECT_FALSE(globals.Declare("late", 8).ok());
  EXPECT_FALSE(globals.Slot<int>(9, "a").ok());       // bad instance
  EXPECT_FALSE(globals.Slot<int>(0, "nope").ok());    // bad name
  globals.Release(device);
}

TEST(IsolatedGlobals, ReplicasAreDistinctAllocations) {
  // §4.3: per-instance data lives in distinct, non-contiguous allocations.
  Device device(DeviceSpec::TestDevice());
  IsolatedGlobals globals;
  ASSERT_TRUE(globals.Declare("g", 64).ok());
  const auto before = device.memory().allocation_count();
  ASSERT_TRUE(globals.Materialize(device, 8, GlobalsMode::kIsolated).ok());
  EXPECT_EQ(device.memory().allocation_count(), before + 8);
  globals.Release(device);
}

}  // namespace
}  // namespace dgc::ensemble

namespace dgc::ensemble {
namespace {

TEST(EnsembleLoader, TraceCapturesTheEnsembleKernel) {
  Env env;
  sim::Trace trace;
  auto opt = ProbeOptions(3);
  opt.trace = &trace;
  auto run = RunEnsemble(env.app_env, opt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(trace.events().empty());
  // All three instances (blocks) appear in the trace.
  std::set<std::uint32_t> blocks;
  for (const sim::TraceEvent& e : trace.events()) blocks.insert(e.block);
  EXPECT_EQ(blocks.size(), 3u);
  // The trace spans the kernel: max completion ≈ elapsed cycles.
  std::uint64_t last = 0;
  for (const sim::TraceEvent& e : trace.events()) {
    last = std::max(last, e.complete);
  }
  EXPECT_LE(last, run->stats.elapsed_cycles + 1);
  EXPECT_GE(last, run->stats.elapsed_cycles / 2);
}

}  // namespace
}  // namespace dgc::ensemble
