// Extension beyond the paper: the same ensemble sweep on a V100-class
// device (80 SMs, ~60% of the A100's bandwidth). The paper's analysis
// predicts (a) benchmarks limited by bandwidth saturate earlier and
// (b) once the instance count exceeds the SM count, block serialization
// caps even compute-bound ensembles.
#include <cstdio>

#include "apps/common.h"
#include "fig6_common.h"
#include "ensemble/experiment.h"
#include "support/str.h"

using namespace dgc;

int main(int argc, char** argv) {
  apps::RegisterAllApps();
  const std::uint32_t jobs = bench::ParseJobsFlag(argc, argv);

  struct Row {
    const char* app;
    std::vector<std::string> args;  ///< before the per-instance seed
  };
  const std::vector<Row> rows = {
      {"xsbench", {"-i", "24", "-g", "256", "-l", "2048"}},
      {"amgmk", {"-x", "14", "-y", "14", "-z", "14"}},
  };

  std::printf("A100 vs V100 ensembles, thread limit 1024, speedup at 64 "
              "instances\n");
  std::printf("%-10s %-12s %-12s\n", "benchmark", "A100", "V100");
  // One pool over all (benchmark × device) sweeps; configs stay in
  // row-major order so the series map back per row below.
  std::vector<ensemble::ExperimentConfig> configs;
  for (const Row& row : rows) {
    for (const sim::DeviceSpec& spec :
         {sim::DeviceSpec::A100_40GB(512), sim::DeviceSpec::V100_16GB(204)}) {
      ensemble::ExperimentConfig cfg;
      cfg.run.app = row.app;
      cfg.run.instance_args = bench::SeededRows(row.args, 64);
      cfg.run.thread_limit = 1024;
      cfg.instance_counts = {1, 64};
      cfg.spec = spec;
      configs.push_back(std::move(cfg));
    }
  }
  auto all = ensemble::RunSweeps(configs, bench::PanelSweepOptions(jobs));
  if (!all.ok()) {
    std::fprintf(stderr, "failed: %s\n", all.status().ToString().c_str());
    return 1;
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    double speedups[2] = {0, 0};
    for (int k = 0; k < 2; ++k) {
      const auto& point = (*all)[r * 2 + std::size_t(k)].points[1];
      speedups[k] = point.ran ? point.speedup : 0.0;
    }
    std::printf("%-10s %-12.1f %-12.1f\n", rows[r].app, speedups[0],
                speedups[1]);
    if (speedups[1] >= speedups[0]) {
      std::fprintf(stderr,
                   "CHECK FAILED: the smaller part must saturate earlier\n");
      return 1;
    }
  }
  std::printf("\nthe smaller device saturates earlier — ensemble scaling is "
              "a device-resource effect, as §4.3 argues\n");
  return 0;
}
