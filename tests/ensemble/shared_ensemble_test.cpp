// Ensemble-level tests of the shared read-only data segment facility:
// capacity gains on replica ensembles, the §3.3 memcheck contract (reads
// benign, any write a cross-instance race), sharing staying inert for
// distinct workloads, and the exported per-instance memory accounting.
#include <gtest/gtest.h>

#include <tuple>

#include "apps/common.h"
#include "dgcf/libc.h"
#include "dgcf/rpc.h"
#include "ensemble/loader.h"
#include "gpusim/ctx.h"
#include "gpusim/device.h"
#include "gpusim/faults.h"
#include "gpusim/memcheck.h"
#include "ompx/team.h"
#include "support/str.h"
#include "support/units.h"

namespace dgc::ensemble {
namespace {

using dgcf::AppEnv;
using sim::Device;
using sim::DeviceSpec;
using sim::DeviceTask;

/// A small device whose capacity a handful of duplicated Page-Rank replicas
/// exceeds while the shared layout fits comfortably.
DeviceSpec TightDevice() {
  DeviceSpec spec = DeviceSpec::TestDevice();
  spec.global_memory_bytes = 512 * kKiB;
  return spec;
}

std::vector<std::string> ReplicaArgs() {
  return {"-g", "2000", "-d", "8", "-k", "2"};
}

StatusOr<dgcf::RunResult> RunReplicas(const DeviceSpec& spec,
                                      std::uint32_t instances, bool share,
                                      sim::Memcheck* memcheck = nullptr,
                                      bool distinct_seeds = false,
                                      sim::FaultPlan* faults = nullptr,
                                      std::uint32_t max_attempts = 1) {
  apps::RegisterAllApps();
  Device device(spec);
  dgcf::RpcHost rpc(device);
  dgcf::DeviceLibc libc(device);
  AppEnv env{&device, &rpc, &libc};

  EnsembleOptions opt;
  opt.app = "pagerank";
  for (std::uint32_t i = 0; i < instances; ++i) {
    std::vector<std::string> args = ReplicaArgs();
    if (distinct_seeds) {
      args.push_back("-s");
      args.push_back(StrFormat("%u", i + 1));
    }
    opt.instance_args.push_back(std::move(args));
  }
  opt.thread_limit = 32;
  opt.share_data = share;
  opt.memcheck = memcheck;
  opt.faults = faults;
  opt.max_attempts = max_attempts;
  return RunEnsemble(env, opt);
}

// The tentpole claim in miniature: replicas that OOM with duplicated
// read-only inputs all fit — and still verify — once the inputs are shared.
TEST(SharedEnsemble, SharedLayoutFitsWhereDuplicatedOoms) {
  auto duplicated = RunReplicas(TightDevice(), 8, /*share=*/false);
  ASSERT_TRUE(duplicated.ok()) << duplicated.status().ToString();
  bool oom = false;
  for (const auto& inst : duplicated->instances) {
    if (inst.completed && inst.exit_code == dgcf::kExitNoMem) oom = true;
  }
  EXPECT_TRUE(oom) << "duplicated layout unexpectedly fit — shrink the device";

  auto shared = RunReplicas(TightDevice(), 8, /*share=*/true);
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();
  EXPECT_TRUE(shared->all_ok());
  for (const auto& inst : shared->instances) {
    EXPECT_TRUE(inst.completed);
    EXPECT_EQ(inst.exit_code, 0);  // every replica verified its result
  }
  EXPECT_GT(shared->device_mem.shared_attaches, 0u);
  EXPECT_GT(shared->device_mem.shared_bytes_saved, 0u);
  EXPECT_LT(shared->device_mem.peak_bytes, duplicated->device_mem.capacity);
}

// Sharing is content-keyed: instances on distinct inputs never coincide,
// so --share-data=on degrades to the duplicated layout for real ensembles.
TEST(SharedEnsemble, DistinctWorkloadsDoNotShare) {
  auto run = RunReplicas(DeviceSpec::TestDevice(), 4, /*share=*/true,
                         nullptr, /*distinct_seeds=*/true);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->all_ok());
  EXPECT_EQ(run->device_mem.shared_attaches, 0u);
  EXPECT_EQ(run->device_mem.shared_bytes_saved, 0u);
}

// With sharing off nothing reaches the shared facility at all — the legacy
// allocation sequence is preserved by construction.
TEST(SharedEnsemble, OffModeNeverTouchesSharedFacility) {
  auto run = RunReplicas(DeviceSpec::TestDevice(), 4, /*share=*/false);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->all_ok());
  EXPECT_EQ(run->device_mem.shared_materialized, 0u);
  EXPECT_EQ(run->device_mem.shared_attaches, 0u);
}

TEST(SharedEnsemble, SharedRunsAreDeterministic) {
  auto a = RunReplicas(DeviceSpec::TestDevice(), 4, /*share=*/true);
  auto b = RunReplicas(DeviceSpec::TestDevice(), 4, /*share=*/true);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->kernel_cycles, b->kernel_cycles);
  EXPECT_EQ(a->device_mem.peak_bytes, b->device_mem.peak_bytes);
}

// Per-instance accounting: every replica allocated something; the
// materializer (instance 0) carries the shared segments' physical bytes,
// so its peak exceeds a pure attacher's.
TEST(SharedEnsemble, PerInstanceMemoryStatsAreExported) {
  auto run = RunReplicas(DeviceSpec::TestDevice(), 4, /*share=*/true);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->instances.size(), 4u);
  for (const auto& inst : run->instances) {
    EXPECT_GT(inst.mem_peak_bytes, 0u);
    EXPECT_GT(inst.mem_allocations, 0u);
  }
  EXPECT_GT(run->instances[0].mem_peak_bytes,
            run->instances[1].mem_peak_bytes);
  EXPECT_GT(run->device_mem.peak_bytes, 0u);
  EXPECT_EQ(run->device_mem.capacity,
            DeviceSpec::TestDevice().global_memory_bytes);
}

// A correct shared-mode app under the sanitizer: reads from the shared
// segments come from every instance and must all be benign.
TEST(SharedEnsemble, CorrectSharedAppRunsMemcheckClean) {
  sim::Memcheck memcheck;
  auto run = RunReplicas(DeviceSpec::TestDevice(), 4, /*share=*/true,
                         &memcheck);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->all_ok());
  EXPECT_TRUE(run->memcheck.clean()) << run->memcheck.ToString();
}

// Checking is observation: memcheck must not change shared-mode timing.
TEST(SharedEnsemble, MemcheckDoesNotPerturbSharedTiming) {
  auto plain = RunReplicas(DeviceSpec::TestDevice(), 4, /*share=*/true);
  sim::Memcheck memcheck;
  auto checked = RunReplicas(DeviceSpec::TestDevice(), 4, /*share=*/true,
                             &memcheck);
  ASSERT_TRUE(plain.ok() && checked.ok());
  EXPECT_EQ(plain->kernel_cycles, checked->kernel_cycles);
}

// The §3.3 contract's teeth: a device-code write into a shared read-only
// segment — from ANY instance, even the materializer — is reported as a
// cross-instance race against the kReadOnlyShared owner.
TEST(SharedEnsemble, WriteToSharedSegmentIsReportedAsRace) {
  dgcf::AppRegistry::Instance().Register(
      {"shared_writer", "test app: writes its shared read-only segment",
       [](AppEnv& env, ompx::TeamCtx& team, int, dgcf::DeviceArgv)
           -> DeviceTask<int> {
         sim::ThreadCtx& ctx = *team.hw;
         const std::vector<std::uint64_t> sizes{256};
         auto group = co_await env.libc->AcquireSharedGroup(
             ctx, /*content_key=*/0x5eed, sizes, "ro_seg");
         if (!group.ok) co_return dgcf::kExitNoMem;
         auto ptr = group.buffers[0].Typed<std::uint64_t>();
         if (group.first) {
           // Legitimate initialization: an untimed host-side fill.
           for (int i = 0; i < 32; ++i) ptr.host[i] = std::uint64_t(i);
         }
         // The bug under test: a timed device write to shared storage.
         co_await ctx.Store(ptr, std::uint64_t{42});
         co_await env.libc->Free(ctx, group.buffers[0].addr);
         co_return 0;
       }});

  Device device(DeviceSpec::TestDevice());
  dgcf::RpcHost rpc(device);
  dgcf::DeviceLibc libc(device);
  AppEnv env{&device, &rpc, &libc};
  sim::Memcheck memcheck;

  EnsembleOptions opt;
  opt.app = "shared_writer";
  opt.instance_args = {{}, {}};
  opt.thread_limit = 32;
  opt.share_data = true;
  opt.memcheck = &memcheck;

  auto run = RunEnsemble(env, opt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GE(run->memcheck.cross_instance_count, 2u)  // both instances wrote
      << run->memcheck.ToString();
  ASSERT_FALSE(run->memcheck.findings.empty());
  const sim::MemcheckFinding& f = run->memcheck.findings[0];
  EXPECT_EQ(f.kind, sim::MemcheckErrorKind::kCrossInstance);
  EXPECT_EQ(f.region_owner, sim::kReadOnlyShared);
  EXPECT_EQ(f.region_label, "ro_seg[0]");
}

// Retry × shared data: a replica killed mid-wave by an injected trap leaks
// its attach reference, which pins the content-keyed segments past the end
// of the first wave; the retry wave must re-attach to those live segments
// rather than materialize duplicate physical copies.
TEST(SharedEnsemble, RetryWaveReattachesWithoutRematerializing) {
  auto baseline = RunReplicas(DeviceSpec::TestDevice(), 6, /*share=*/true);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_TRUE(baseline->all_ok());
  const std::uint64_t segments = baseline->device_mem.shared_materialized;
  ASSERT_GT(segments, 0u);

  // Block 2 runs instance 2; cycle 50000 is mid-run, well after the
  // allocation/attach phase of a ~214k-cycle replica. The trap fires once,
  // so the retry wave recovers the instance.
  auto plan = *sim::FaultPlan::Parse("trap@b2.w0.c50000");
  auto run = RunReplicas(DeviceSpec::TestDevice(), 6, /*share=*/true,
                         /*memcheck=*/nullptr, /*distinct_seeds=*/false,
                         &plan, /*max_attempts=*/2);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->waves, 2u);
  EXPECT_TRUE(run->all_ok());
  for (std::uint32_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(run->instances[i].completed) << i;
    EXPECT_EQ(run->instances[i].exit_code, 0) << i;
    EXPECT_EQ(run->instances[i].attempts, i == 2 ? 2u : 1u) << i;
  }

  // The tentpole claim: the retry never re-materialized — every physical
  // copy in the faulted run already existed in the clean run's count, and
  // the extra wave shows up purely as additional attaches.
  EXPECT_EQ(run->device_mem.shared_materialized, segments);
  EXPECT_GT(run->device_mem.shared_attaches,
            baseline->device_mem.shared_attaches);
  EXPECT_GT(run->device_mem.shared_bytes_saved,
            baseline->device_mem.shared_bytes_saved);

  // Refcount honesty: the trapped first attempt never released its attach,
  // so exactly the leaked references keep the segments live at the end of
  // the run; the clean baseline releases everything.
  EXPECT_EQ(baseline->device_mem.shared_live, 0u);
  EXPECT_EQ(run->device_mem.shared_live, segments);
}

// The same dance under the sanitizer: reads from retried instances against
// wave-1-materialized segments are benign. The trapped first attempt shows
// up as leaks — and ONLY leaks, attributed to the trapped instance and the
// segments its attach pinned; re-attaching must produce no out-of-bounds,
// lifetime, or cross-instance findings.
TEST(SharedEnsemble, RetryWithSharedDataHasNoRaceOrLifetimeFindings) {
  sim::Memcheck memcheck;
  auto plan = *sim::FaultPlan::Parse("trap@b2.w0.c50000");
  auto run = RunReplicas(DeviceSpec::TestDevice(), 6, /*share=*/true,
                         &memcheck, /*distinct_seeds=*/false, &plan,
                         /*max_attempts=*/2);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->waves, 2u);
  EXPECT_TRUE(run->all_ok());
  ASSERT_FALSE(run->memcheck.findings.empty());  // the leak is real
  for (const auto& finding : run->memcheck.findings) {
    EXPECT_EQ(finding.kind, sim::MemcheckErrorKind::kLeak)
        << run->memcheck.ToString();
  }
}

// Determinism survives the fault + retry path: two identical faulted runs
// agree on timing, attach counts, and peak footprint.
TEST(SharedEnsemble, RetryWithSharedDataIsDeterministic) {
  auto plan_a = *sim::FaultPlan::Parse("trap@b2.w0.c50000");
  auto a = RunReplicas(DeviceSpec::TestDevice(), 6, /*share=*/true, nullptr,
                       false, &plan_a, /*max_attempts=*/2);
  auto plan_b = *sim::FaultPlan::Parse("trap@b2.w0.c50000");
  auto b = RunReplicas(DeviceSpec::TestDevice(), 6, /*share=*/true, nullptr,
                       false, &plan_b, /*max_attempts=*/2);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->kernel_cycles, b->kernel_cycles);
  EXPECT_EQ(a->device_mem.shared_attaches, b->device_mem.shared_attaches);
  EXPECT_EQ(a->device_mem.peak_bytes, b->device_mem.peak_bytes);
}

// Startup unwind at every allocation ordinal: a replica ensemble (two
// identical instances plus one distinct) with the k-th device malloc failing,
// for every k up to one past the last allocation. Only the instance whose
// malloc failed may stop, and it must exit ENOMEM having released all it
// held. In particular, a materializer that fails after replicas attached to
// its shared inputs must not leave them computing on unfilled segments.
class SharedUnwind
    : public testing::TestWithParam<std::tuple<std::string, bool>> {};

std::vector<std::string> UnwindArgs(const std::string& app, int seed) {
  std::vector<std::string> args;
  if (app == "xsbench") args = {"-i", "8", "-g", "64", "-l", "256"};
  if (app == "rsbench") args = {"-u", "6", "-w", "4", "-l", "64"};
  if (app == "amgmk") args = {"-x", "6", "-y", "6", "-z", "6"};
  if (app == "pagerank") args = {"-g", "500", "-d", "4"};
  args.push_back("-s");
  args.push_back(StrFormat("%d", seed));
  return args;
}

TEST_P(SharedUnwind, OnlyTheFaultedInstanceFailsAndNothingLeaks) {
  const auto [app, share] = GetParam();
  apps::RegisterAllApps();
  for (std::uint64_t k = 1;; ++k) {
    SCOPED_TRACE(StrFormat("malloc-fail@%llu", (unsigned long long)k));
    Device device(DeviceSpec::TestDevice());
    dgcf::RpcHost rpc(device);
    dgcf::DeviceLibc libc(device);
    AppEnv env{&device, &rpc, &libc};
    sim::Memcheck memcheck;
    auto plan = *sim::FaultPlan::Parse(
        StrFormat("malloc-fail@%llu", (unsigned long long)k));
    libc.set_fault_plan(&plan);

    EnsembleOptions opt;
    opt.app = app;
    opt.instance_args = {UnwindArgs(app, 1), UnwindArgs(app, 1),
                         UnwindArgs(app, 2)};
    opt.thread_limit = 32;
    opt.share_data = share;
    opt.memcheck = &memcheck;
    opt.faults = &plan;
    auto run = RunEnsemble(env, opt);
    ASSERT_TRUE(run.ok()) << run.status().ToString();

    int failed = 0;
    for (std::size_t i = 0; i < run->instances.size(); ++i) {
      const auto& inst = run->instances[i];
      EXPECT_TRUE(inst.completed) << "instance " << i;
      if (inst.exit_code == dgcf::kExitOk) continue;
      ++failed;
      EXPECT_EQ(inst.exit_code, dgcf::kExitNoMem) << "instance " << i;
    }
    EXPECT_LE(failed, 1);
    EXPECT_EQ(libc.live_allocations(), 0u);
    EXPECT_EQ(run->device_mem.shared_live, 0u);
    EXPECT_TRUE(run->memcheck.clean()) << run->memcheck.ToString();
    // Past the last allocation nothing fails: the sweep is complete.
    if (libc.failed_allocations() == 0) {
      EXPECT_GT(k, 3u);
      EXPECT_EQ(failed, 0);
      break;
    }
    EXPECT_EQ(failed, 1);
  }
}

std::string UnwindName(
    const testing::TestParamInfo<SharedUnwind::ParamType>& param_info) {
  return std::get<0>(param_info.param) +
         (std::get<1>(param_info.param) ? "_shared" : "_duplicated");
}

INSTANTIATE_TEST_SUITE_P(
    Apps, SharedUnwind,
    testing::Combine(testing::Values(std::string("xsbench"), "rsbench",
                                     "amgmk", "pagerank"),
                     testing::Bool()),
    UnwindName);

}  // namespace
}  // namespace dgc::ensemble
