// Tests for the evaluation harness (ensemble/experiment.h) — the machinery
// that regenerates the paper's Fig. 6 series.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>

#include "apps/common.h"
#include "dgcf/libc.h"
#include "dgcf/rpc.h"
#include "ensemble/experiment.h"
#include "ensemble/metrics.h"
#include "gpusim/device.h"
#include "gpusim/device_spec.h"
#include "gpusim/profiler.h"
#include "ompx/team.h"
#include "support/str.h"

namespace dgc::ensemble {
namespace {

/// `count` argument rows of `args`, row i seeded `-s i+1`.
std::vector<std::vector<std::string>> SeededRows(
    const std::vector<std::string>& args, std::uint32_t count) {
  std::vector<std::vector<std::string>> rows(count, args);
  for (std::uint32_t i = 0; i < count; ++i) {
    rows[i].push_back("-s");
    rows[i].push_back(StrFormat("%u", i + 1));
  }
  return rows;
}

// A sweep probe: takes a read-only input and a private buffer through the
// apps' allocation path (so --share-data changes its layout), traps when
// an allocation fails (so a retry wave can recover it) and computes a
// little.
sim::DeviceTask<int> SweepProbeMain(dgcf::AppEnv& env, ompx::TeamCtx& team,
                                    int, dgcf::DeviceArgv) {
  static const std::vector<std::uint32_t> input(64, 7);
  sim::ThreadCtx& ctx = *team.hw;
  std::vector<apps::AppArray> layout;
  layout.push_back(apps::ReadOnlyArray(input));
  layout.push_back(apps::PrivateArray<std::uint32_t>(64));
  apps::AppArrays arrays = co_await apps::AllocateAppArrays(
      env, ctx, "sweepprobe", {}, std::move(layout));
  if (!arrays.ok) {
    throw sim::DeviceTrap(sim::TrapKind::kOOM, "sweepprobe: out of memory");
  }
  for (int r = 0; r < 20; ++r) co_await ctx.Work(50);
  co_await apps::FreeAppArrays(env, ctx, arrays.buffers);
  co_return 0;
}

DGC_REGISTER_APP(sweepprobe, "sweep probe", SweepProbeMain)

class ExperimentTest : public testing::Test {
 protected:
  static void SetUpTestSuite() { apps::RegisterAllApps(); }

  static ExperimentConfig SmallConfig() {
    ExperimentConfig cfg;
    cfg.run.app = "rsbench";
    cfg.run.instance_args = SeededRows({"-u", "6", "-w", "4", "-l", "64"}, 4);
    cfg.run.thread_limit = 32;
    cfg.instance_counts = {1, 2, 4};
    cfg.spec = sim::DeviceSpec::TestDevice();
    return cfg;
  }
};

TEST_F(ExperimentTest, MeasuresAllPoints) {
  auto series = MeasureSpeedup(SmallConfig());
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  ASSERT_EQ(series->points.size(), 3u);
  EXPECT_DOUBLE_EQ(series->points[0].speedup, 1.0);
  for (const auto& p : series->points) {
    EXPECT_TRUE(p.ran);
    EXPECT_GT(p.cycles, 0u);
    EXPECT_GT(p.speedup, 0.0);
    // Near-sub-linear: instances run DIFFERENT seeds, so TN is bounded by
    // the slowest instance, not instance 0's T1 — allow a small excess.
    EXPECT_LE(p.speedup, double(p.instances) * 1.05);
  }
  EXPECT_EQ(series->app, "rsbench");
  EXPECT_EQ(series->thread_limit, 32u);
}

TEST_F(ExperimentTest, SpeedupFormulaIsT1TimesNOverTN) {
  auto series = MeasureSpeedup(SmallConfig());
  ASSERT_TRUE(series.ok());
  const double t1 = double(series->points[0].cycles);
  for (const auto& p : series->points) {
    EXPECT_NEAR(p.speedup, t1 * p.instances / double(p.cycles), 1e-9);
  }
}

TEST_F(ExperimentTest, DeterministicAcrossInvocations) {
  auto a = MeasureSpeedup(SmallConfig());
  auto b = MeasureSpeedup(SmallConfig());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (std::size_t i = 0; i < a->points.size(); ++i) {
    EXPECT_EQ(a->points[i].cycles, b->points[i].cycles);
  }
}

// The tentpole guarantee: a parallel sweep renders byte-identically to the
// serial one — points land in declaration order, speedups are resolved in
// the final sequential pass.
TEST_F(ExperimentTest, ParallelSweepOutputIsByteIdenticalToSerial) {
  // Two series, including one with a not-ran (OOM) tail, so reassembly,
  // baseline resolution, and skip handling are all exercised.
  ExperimentConfig oom = SmallConfig();
  oom.run.app = "pagerank";
  oom.run.instance_args = SeededRows({"-g", "150000", "-d", "12"}, 8);
  oom.instance_counts = {1, 2, 8};
  const std::vector<ExperimentConfig> configs{SmallConfig(), oom};

  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel;
  parallel.jobs = 8;
  auto a = RunSweeps(configs, serial);
  auto b = RunSweeps(configs, parallel);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(FormatSpeedupCsv(*a), FormatSpeedupCsv(*b));
  EXPECT_EQ(FormatSpeedupTable(*a), FormatSpeedupTable(*b));
}

TEST_F(ExperimentTest, ProgressEventsCoverEveryPoint) {
  SweepOptions options;
  options.jobs = 4;
  std::size_t started = 0, finished = 0, max_total = 0;
  bool monotone = true;
  std::size_t last_started = 0, last_finished = 0;
  options.progress = [&](const SweepPointEvent& e) {
    // Serialized by the runner, so plain counters are safe here.
    if (e.kind == SweepPointEvent::Kind::kStarted) ++started;
    else ++finished;
    if (e.points_started < last_started || e.points_finished < last_finished) {
      monotone = false;
    }
    last_started = e.points_started;
    last_finished = e.points_finished;
    max_total = std::max(max_total, e.points_total);
    if (e.kind == SweepPointEvent::Kind::kFinished) {
      if (e.ran) {
        EXPECT_GE(e.wall_seconds, 0.0);
      }
    }
  };
  auto series = MeasureSpeedup(SmallConfig(), options);
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(started, 3u);
  EXPECT_EQ(finished, 3u);
  EXPECT_EQ(max_total, 3u);
  EXPECT_TRUE(monotone);
}

// Regression: a series whose 1-instance baseline cannot run must not
// report speedups at all — T1 = 0 would silently render every later point
// as speedup 0.000000 in the figure.
TEST_F(ExperimentTest, BaselineOomMarksWholeSeriesNotRan) {
  ExperimentConfig cfg = SmallConfig();
  cfg.run.app = "pagerank";
  // One instance alone exceeds the 64 MiB test device.
  cfg.run.instance_args = SeededRows({"-g", "1500000", "-d", "12"}, 2);
  cfg.instance_counts = {1, 2};
  auto series = MeasureSpeedup(cfg);
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  ASSERT_EQ(series->points.size(), 2u);
  for (const auto& p : series->points) {
    EXPECT_FALSE(p.ran);
    EXPECT_EQ(p.speedup, 0.0);
  }
  EXPECT_NE(series->points[0].note.find("memory"), std::string::npos);
  EXPECT_NE(series->points[1].note.find("baseline"), std::string::npos);
  // And the CSV renders absences, not zero measurements.
  const std::string csv = FormatSpeedupCsv({*series});
  EXPECT_EQ(csv.find("0.000000"), std::string::npos);
}

TEST_F(ExperimentTest, RunSweepsPreservesConfigOrder) {
  ExperimentConfig second = SmallConfig();
  second.run.thread_limit = 16;
  auto all = RunSweeps({SmallConfig(), second});
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 2u);
  EXPECT_EQ((*all)[0].thread_limit, 32u);
  EXPECT_EQ((*all)[1].thread_limit, 16u);
}

TEST_F(ExperimentTest, RunSweepsRejectsEmptyConfigList) {
  EXPECT_FALSE(RunSweeps({}).ok());
}

TEST_F(ExperimentTest, OomConfigurationsAreSkippedNotFatal) {
  ExperimentConfig cfg = SmallConfig();
  cfg.run.app = "pagerank";
  // 64 MiB test device; each instance ~11 MiB → 8 instances cannot fit.
  cfg.run.instance_args = SeededRows({"-g", "150000", "-d", "12"}, 8);
  cfg.instance_counts = {1, 2, 8};
  auto series = MeasureSpeedup(cfg);
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  EXPECT_TRUE(series->points[0].ran);
  EXPECT_TRUE(series->points[1].ran);
  EXPECT_FALSE(series->points[2].ran);
  EXPECT_NE(series->points[2].note.find("memory"), std::string::npos);
}

TEST_F(ExperimentTest, RequiresLeadingOne) {
  ExperimentConfig cfg = SmallConfig();
  cfg.instance_counts = {2, 4};
  EXPECT_FALSE(MeasureSpeedup(cfg).ok());
  cfg.instance_counts = {};
  EXPECT_FALSE(MeasureSpeedup(cfg).ok());
}

TEST_F(ExperimentTest, RequiresAnArgumentRowPerInstance) {
  ExperimentConfig cfg = SmallConfig();
  cfg.run.instance_args.pop_back();  // 3 rows for a 4-instance point
  auto series = MeasureSpeedup(cfg);
  ASSERT_FALSE(series.ok());
  EXPECT_EQ(series.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(series.status().message().find("needs 4 argument lines"),
            std::string::npos)
      << series.status().ToString();
}

TEST_F(ExperimentTest, RejectsARunWithObservers) {
  // Points run concurrently, so one trace/memcheck/profiler cannot observe
  // them; per-point profiling goes through `profile`.
  sim::Profiler profiler;
  ExperimentConfig cfg = SmallConfig();
  cfg.run.profiler = &profiler;
  auto series = MeasureSpeedup(cfg);
  ASSERT_FALSE(series.ok());
  EXPECT_EQ(series.status().code(), ErrorCode::kInvalidArgument);
}

// A sweep point IS the configured run at N instances: every loader knob of
// `run` (fault plan, retry, sharing, mapping, watchdog) reaches the point,
// so each point's sidecar equals a profiled RunEnsemble of that run on a
// fresh device, byte for byte.
TEST_F(ExperimentTest, EachPointIsTheRunAtItsInstanceCount) {
  ExperimentConfig cfg;
  cfg.run.app = "sweepprobe";
  cfg.run.instance_args.assign(4, {});
  cfg.run.thread_limit = 8;
  cfg.run.teams_per_block = 2;
  cfg.run.share_data = true;
  cfg.run.faults = *sim::FaultPlan::Parse("malloc-fail@2");
  cfg.run.max_attempts = 2;
  cfg.run.instance_watchdog_cycles = 10'000'000;
  cfg.instance_counts = {1, 2, 4};
  cfg.spec = sim::DeviceSpec::TestDevice();
  cfg.profile = true;
  SweepOptions options;
  options.jobs = 2;
  auto series = MeasureSpeedup(cfg, options);
  ASSERT_TRUE(series.ok()) << series.status().ToString();

  for (const SpeedupPoint& point : series->points) {
    // Every point hits the injected failure and recovers it on a retry.
    ASSERT_TRUE(point.ran) << "n=" << point.instances << ": " << point.note;
    sim::Device device(cfg.spec);
    dgcf::RpcHost rpc(device);
    dgcf::DeviceLibc libc(device);
    dgcf::AppEnv env{&device, &rpc, &libc};
    sim::Profiler profiler;
    EnsembleOptions run = cfg.run;
    run.num_instances = point.instances;
    run.profiler = &profiler;
    auto direct = RunEnsemble(env, run);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    EXPECT_EQ(direct->waves, 2u) << "n=" << point.instances;
    EXPECT_EQ(point.metrics_json, FormatMetricsJson(*direct, &profiler))
        << "n=" << point.instances;
  }
}

TEST_F(ExperimentTest, UnknownAppPropagates) {
  ExperimentConfig cfg = SmallConfig();
  cfg.run.app = "ghost";
  auto series = MeasureSpeedup(cfg);
  ASSERT_FALSE(series.ok());
  EXPECT_EQ(series.status().code(), ErrorCode::kNotFound);
}

TEST_F(ExperimentTest, MaxSpeedupPicksLargestRanPoint) {
  SpeedupSeries s;
  s.points.push_back({.instances = 1, .ran = true, .speedup = 1.0});
  s.points.push_back({.instances = 2, .ran = true, .speedup = 1.8});
  s.points.push_back({.instances = 4, .ran = false, .speedup = 0.0});
  EXPECT_DOUBLE_EQ(s.MaxSpeedup(), 1.8);
}

TEST_F(ExperimentTest, TableFormatsLinearRowAndSkips) {
  SpeedupSeries s;
  s.app = "demo";
  s.points.push_back({.instances = 1, .ran = true, .speedup = 1.0});
  s.points.push_back({.instances = 2, .ran = false, .note = "oom"});
  const std::string table = FormatSpeedupTable({s});
  EXPECT_NE(table.find("Linear"), std::string::npos);
  EXPECT_NE(table.find("demo"), std::string::npos);
  EXPECT_NE(table.find("-"), std::string::npos);  // the skipped point
  EXPECT_EQ(FormatSpeedupTable({}), "(no series)\n");
}

TEST_F(ExperimentTest, MultiDimMappingConfigRuns) {
  ExperimentConfig cfg = SmallConfig();
  cfg.run.thread_limit = 16;
  cfg.run.teams_per_block = 2;
  auto series = MeasureSpeedup(cfg);
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  for (const auto& p : series->points) EXPECT_TRUE(p.ran);
}

}  // namespace
}  // namespace dgc::ensemble

namespace dgc::ensemble {
namespace {

TEST(SpeedupCsv, FormatsHeaderAndRows) {
  SpeedupSeries s;
  s.app = "demo";
  s.thread_limit = 32;
  s.points.push_back({.instances = 1, .ran = true, .cycles = 100, .speedup = 1.0});
  s.points.push_back({.instances = 8, .ran = false, .note = "oom"});
  const std::string csv = FormatSpeedupCsv({s});
  EXPECT_NE(csv.find("benchmark,thread_limit,instances,ran,cycles,speedup"),
            std::string::npos);
  EXPECT_NE(csv.find("demo,32,1,1,100,1.000000"), std::string::npos);
  EXPECT_NE(csv.find("demo,32,8,0,,"), std::string::npos);
}

// Regression: a skipped point must never render as cycles=0,speedup=0 —
// plotting scripts ingest those as real measured zeros.
TEST(SpeedupCsv, NotRanRowsHaveEmptyFieldsNotZeros) {
  SpeedupSeries s;
  s.app = "demo";
  s.thread_limit = 1024;
  s.points.push_back({.instances = 8, .ran = false, .note = "oom"});
  const std::string csv = FormatSpeedupCsv({s});
  EXPECT_NE(csv.find("demo,1024,8,0,,\n"), std::string::npos);
  EXPECT_EQ(csv.find(",0,0,"), std::string::npos);
  EXPECT_EQ(csv.find("0.000000"), std::string::npos);
}

TEST(SpeedupCsv, WritesAndReadsBack) {
  SpeedupSeries s;
  s.app = "demo";
  s.thread_limit = 1024;
  s.points.push_back({.instances = 2, .ran = true, .cycles = 7, .speedup = 1.9});
  const std::string path = testing::TempDir() + "/dgc_csv_test.csv";
  ASSERT_TRUE(WriteSpeedupCsv({s}, path).ok());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, FormatSpeedupCsv({s}));
  std::remove(path.c_str());
}

TEST(SpeedupCsv, BadPathFails) {
  EXPECT_FALSE(WriteSpeedupCsv({}, "/nonexistent/dir/x.csv").ok());
}

}  // namespace
}  // namespace dgc::ensemble
