// Determinism harness for the parallel sweep (ctest label: perf).
//
// A fig6a-style sweep at small scale must render the same CSV and the same
// dgc-metrics-v1 sidecars for any --jobs value. (The coalescer's fast path
// is pinned against its scalar reference per call, in coalesce_test.)
#include <gtest/gtest.h>

#include "apps/common.h"
#include "ensemble/experiment.h"
#include "support/str.h"

namespace dgc::ensemble {
namespace {

/// fig6a methodology (thread limit 32, per-instance seeds) shrunk to test
/// scale: the paper's two lookup benchmarks on the test device.
std::vector<ExperimentConfig> SmallFig6aConfigs() {
  // Multi-warp leg: thread limit 64 puts two warps in amgmk's blocks, so
  // the panel also covers barriers, shared memory and sibling-warp state.
  const struct {
    const char* app;
    std::vector<std::string> args;
    std::uint32_t thread_limit;
  } legs[] = {
      {"xsbench", {"-i", "8", "-g", "64", "-l", "96"}, 32},
      {"rsbench", {"-u", "6", "-w", "4", "-l", "64"}, 32},
      {"amgmk", {"-x", "8", "-y", "8", "-z", "8", "-w", "2"}, 64},
  };
  std::vector<ExperimentConfig> configs;
  for (const auto& leg : legs) {
    ExperimentConfig cfg;
    cfg.run.app = leg.app;
    for (std::uint32_t i = 0; i < 4; ++i) {
      cfg.run.instance_args.push_back(leg.args);
      cfg.run.instance_args.back().push_back("-s");
      cfg.run.instance_args.back().push_back(StrFormat("%u", i + 1));
    }
    cfg.run.thread_limit = leg.thread_limit;
    cfg.instance_counts = {1, 2, 4};
    cfg.spec = sim::DeviceSpec::TestDevice();
    cfg.profile = true;
    configs.push_back(cfg);
  }
  return configs;
}

struct PanelRender {
  std::string csv;
  std::vector<std::string> sidecars;  ///< dgc-metrics-v1 per ran point
};

PanelRender RunPanel(std::uint32_t jobs) {
  apps::RegisterAllApps();
  SweepOptions options;
  options.jobs = jobs;
  auto series = RunSweeps(SmallFig6aConfigs(), options);
  EXPECT_TRUE(series.ok()) << series.status().ToString();
  PanelRender render;
  if (!series.ok()) return render;
  render.csv = FormatSpeedupCsv(*series);
  for (const auto& s : *series) {
    for (const auto& p : s.points) {
      EXPECT_TRUE(p.ran) << s.app << " n=" << p.instances << ": " << p.note;
      render.sidecars.push_back(p.metrics_json);
    }
  }
  return render;
}

TEST(PerfDeterminism, JobsCountDoesNotChangeOutput) {
  const PanelRender serial = RunPanel(/*jobs=*/1);
  const PanelRender parallel = RunPanel(/*jobs=*/4);
  EXPECT_EQ(serial.csv, parallel.csv);
  ASSERT_EQ(serial.sidecars.size(), parallel.sidecars.size());
  for (std::size_t i = 0; i < serial.sidecars.size(); ++i) {
    EXPECT_EQ(serial.sidecars[i], parallel.sidecars[i]) << "sidecar " << i;
  }
}

}  // namespace
}  // namespace dgc::ensemble
