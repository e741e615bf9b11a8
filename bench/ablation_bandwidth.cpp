// Ablation for §4.3's explanation of the AMGmk scaling gap: the relax
// kernel's ensemble saturates device memory bandwidth. Sweeping the DRAM
// byte rate moves the 32-instance speedup accordingly — the plateau is a
// bandwidth wall, not a scheduling artifact.
#include <cstdio>

#include "apps/common.h"
#include "fig6_common.h"
#include "ensemble/experiment.h"
#include "support/str.h"

using namespace dgc;

int main(int argc, char** argv) {
  apps::RegisterAllApps();
  const std::uint32_t jobs = bench::ParseJobsFlag(argc, argv);
  std::printf("AMGmk ensemble speedup at 32 instances, thread limit 1024, "
              "vs DRAM bandwidth\n");
  std::printf("%-22s %-14s %-10s %s\n", "DRAM bytes/cycle", "T32 cycles",
              "speedup", "DRAM traffic");

  const std::vector<double> bandwidths{275.0, 550.0, 1100.0, 2200.0, 4400.0};
  std::vector<ensemble::ExperimentConfig> configs;
  for (double bw : bandwidths) {
    ensemble::ExperimentConfig cfg;
    cfg.run.app = "amgmk";
    cfg.run.instance_args =
        bench::SeededRows({"-x", "14", "-y", "14", "-z", "14"}, 32);
    cfg.run.thread_limit = 1024;
    cfg.instance_counts = {1, 32};
    cfg.spec = sim::DeviceSpec::A100_40GB(512);
    cfg.spec.dram_bytes_per_cycle = bw;
    configs.push_back(std::move(cfg));
  }

  auto all = ensemble::RunSweeps(configs, bench::PanelSweepOptions(jobs));
  if (!all.ok()) {
    std::fprintf(stderr, "failed: %s\n", all.status().ToString().c_str());
    return 1;
  }
  double prev = 0;
  for (std::size_t k = 0; k < bandwidths.size(); ++k) {
    const auto& p32 = (*all)[k].points[1];
    std::printf("%-22.0f %-14llu %-10.2f %s\n", bandwidths[k],
                (unsigned long long)p32.cycles, p32.speedup,
                FormatBytes(p32.stats.dram_bytes).c_str());
    if (p32.speedup + 0.25 < prev) {
      std::fprintf(stderr, "CHECK FAILED: speedup should rise with bandwidth\n");
      return 1;
    }
    prev = p32.speedup;
  }
  std::printf("\nspeedup scales with DRAM bandwidth: the ensemble plateau "
              "is a bandwidth wall (paper §4.3)\n");
  return 0;
}
