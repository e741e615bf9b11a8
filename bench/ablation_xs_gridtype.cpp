// Ablation: XSBench's three lookup acceleration structures under ensemble
// execution. Real XSBench offers the same trade: the unionized grid buys
// the fastest lookup with an O(n_union × n_isotopes) index table, the hash
// grid bounds the search with a small table, and the plain nuclide grid
// pays a full binary search per (nuclide, lookup). Since every structure
// locates the same bracketing index, all runs verify against one host
// reference hash.
#include <cstdio>

#include "apps/common.h"
#include "apps/xsbench.h"
#include "fig6_common.h"
#include "ensemble/experiment.h"
#include "support/str.h"
#include "support/units.h"

using namespace dgc;

int main(int argc, char** argv) {
  apps::RegisterAllApps();
  const std::uint32_t jobs = bench::ParseJobsFlag(argc, argv);
  std::printf("XSBench grid types: 32-instance ensembles, thread limit 32\n");
  std::printf("%-12s %-14s %-12s %-12s %s\n", "grid", "bytes/instance",
              "T1 cycles", "T32 cycles", "speedup@32");

  const std::vector<apps::XsGridType> types{apps::XsGridType::kUnionized,
                                            apps::XsGridType::kHash,
                                            apps::XsGridType::kNuclide};
  std::vector<ensemble::ExperimentConfig> configs;
  for (apps::XsGridType type : types) {
    ensemble::ExperimentConfig cfg;
    cfg.run.app = "xsbench";
    cfg.run.instance_args = bench::SeededRows(
        {"-i", "24", "-g", "256", "-l", "2048", "-G",
         std::string(apps::ToString(type))},
        32);
    cfg.run.thread_limit = 32;
    cfg.instance_counts = {1, 32};
    cfg.spec = sim::DeviceSpec::A100_40GB(512);
    configs.push_back(std::move(cfg));
  }

  auto all = ensemble::RunSweeps(configs, bench::PanelSweepOptions(jobs));
  if (!all.ok()) {
    std::fprintf(stderr, "failed: %s\n", all.status().ToString().c_str());
    return 1;
  }
  for (std::size_t k = 0; k < types.size(); ++k) {
    const auto& series = (*all)[k];
    apps::XsParams p;
    p.n_isotopes = 24;
    p.n_gridpoints = 256;
    p.n_lookups = 2048;
    p.grid_type = types[k];
    std::printf("%-12s %-14s %-12llu %-12llu %.2f\n",
                std::string(apps::ToString(types[k])).c_str(),
                FormatBytes(p.DeviceBytes()).c_str(),
                (unsigned long long)series.points[0].cycles,
                (unsigned long long)series.points[1].cycles,
                series.points[1].speedup);
  }
  std::printf("\nsmaller acceleration tables trade per-lookup search work "
              "for ensemble memory headroom\n");
  return 0;
}
