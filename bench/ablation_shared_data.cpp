// Ablation for the shared read-only data segment facility: a *replica*
// ensemble (every instance runs the SAME input — a parameter study's
// common case) measured with --share-data on vs off. Sharing collapses
// the duplicated read-only inputs (XS grids, pole tables, CSR matrices)
// to one physical copy, so the per-instance incremental footprint drops
// to the private buffers and the maximum concurrent instance count rises
// to the paper's Fig. 6 capacity and beyond.
#include <cstdio>
#include <string>
#include <vector>

#include "fig6_common.h"
#include "support/units.h"

using namespace dgc;

namespace {

struct AblationApp {
  const char* app;
  std::vector<std::string> args;  ///< identical for every instance
};

/// Workloads tuned so 256 duplicated replicas exceed the Fig. 6 device
/// capacity (1/512-scaled A100) while 256 shared replicas fit: the
/// read-only inputs dominate each app's footprint.
std::vector<AblationApp> AblationApps() {
  return {
      {"xsbench", {"-i", "24", "-g", "256", "-l", "256"}},
      {"rsbench", {"-u", "32", "-w", "64", "-p", "16", "-l", "256"}},
      {"amgmk", {"-x", "14", "-y", "14", "-z", "14"}},
      {"pagerank", {"-g", "10000", "-d", "10"}},
  };
}

std::vector<std::uint32_t> Counts() { return {1, 4, 16, 64, 128, 256}; }

/// Largest instance count whose point ran (0 = none).
std::uint32_t MaxRan(const ensemble::SpeedupSeries& s) {
  std::uint32_t best = 0;
  for (const auto& p : s.points) {
    if (p.ran) best = std::max(best, p.instances);
  }
  return best;
}

const ensemble::SpeedupPoint* FindPoint(const ensemble::SpeedupSeries& s,
                                        std::uint32_t n) {
  for (const auto& p : s.points) {
    if (p.instances == n) return &p;
  }
  return nullptr;
}

/// Incremental device memory per added instance between the 1-instance
/// point and the largest shared point that also ran duplicated.
double PerInstanceBytes(const ensemble::SpeedupSeries& s, std::uint32_t n) {
  const ensemble::SpeedupPoint* base = FindPoint(s, 1);
  const ensemble::SpeedupPoint* point = FindPoint(s, n);
  if (base == nullptr || point == nullptr || !base->ran || !point->ran) {
    return 0.0;
  }
  return double(point->peak_mem_bytes - base->peak_mem_bytes) / double(n - 1);
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint32_t jobs = bench::ParseJobsFlag(argc, argv);
  apps::RegisterAllApps();

  const auto apps_list = AblationApps();
  std::vector<ensemble::ExperimentConfig> configs;
  for (const AblationApp& a : apps_list) {
    for (const bool share : {false, true}) {
      ensemble::ExperimentConfig cfg;
      cfg.run.app = a.app;
      cfg.run.instance_args.assign(Counts().back(), a.args);
      cfg.run.thread_limit = 32;
      cfg.run.share_data = share;
      cfg.instance_counts = Counts();
      cfg.spec = bench::Fig6Spec();
      configs.push_back(std::move(cfg));
    }
  }
  auto all = ensemble::RunSweeps(configs, bench::PanelSweepOptions(jobs));
  if (!all.ok()) {
    std::fprintf(stderr, "sweep failed: %s\n", all.status().ToString().c_str());
    return 1;
  }

  std::printf("shared read-only data segments — replica ensembles, device %s "
              "(%s)\n\n",
              bench::Fig6Spec().name.c_str(),
              FormatBytes(bench::Fig6Spec().global_memory_bytes).c_str());
  std::printf("%-10s %-11s %9s %14s %16s %14s\n", "benchmark", "layout",
              "max n", "peak @ max n", "bytes/instance", "bytes saved");

  bool ok = true;
  auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "SHARED-DATA CHECK FAILED: %s\n", what.c_str());
    ok = false;
  };

  for (std::size_t a = 0; a < apps_list.size(); ++a) {
    const ensemble::SpeedupSeries& dup = (*all)[2 * a];
    const ensemble::SpeedupSeries& shared = (*all)[2 * a + 1];
    const std::string app = apps_list[a].app;

    const std::uint32_t dup_max = MaxRan(dup);
    const std::uint32_t shared_max = MaxRan(shared);
    // The per-instance comparison uses the largest count both layouts ran.
    std::uint32_t common = 0;
    for (const std::uint32_t n : Counts()) {
      if (n > 1 && n <= dup_max && n <= shared_max) common = n;
    }

    for (const bool share : {false, true}) {
      const ensemble::SpeedupSeries& s = share ? shared : dup;
      const std::uint32_t max_n = share ? shared_max : dup_max;
      const ensemble::SpeedupPoint* at_max = FindPoint(s, max_n);
      const ensemble::SpeedupPoint* at_common = FindPoint(s, common);
      std::printf("%-10s %-11s %9u %14s %16s %14s\n", app.c_str(),
                  share ? "shared" : "duplicated", max_n,
                  at_max != nullptr
                      ? FormatBytes(at_max->peak_mem_bytes).c_str()
                      : "-",
                  common != 0
                      ? FormatBytes(std::uint64_t(PerInstanceBytes(s, common)))
                            .c_str()
                      : "-",
                  at_common != nullptr
                      ? FormatBytes(at_common->shared_bytes_saved).c_str()
                      : "-");
    }

    // Tentpole claims: sharing reaches the full 256-replica ensemble on
    // every app; the duplicated layout hits the device capacity first.
    if (shared_max < 256) {
      fail(app + ": shared layout capped at " + StrFormat("%u", shared_max) +
           " instances (want 256)");
    }
    if (dup_max >= 256) {
      fail(app + ": duplicated layout unexpectedly fit 256 instances — the "
                 "workload no longer exercises the capacity boundary");
    }
    if (common != 0) {
      const double per_dup = PerInstanceBytes(dup, common);
      const double per_shared = PerInstanceBytes(shared, common);
      if (!(per_shared < per_dup)) {
        fail(app + StrFormat(": per-instance memory did not shrink "
                             "(shared %.0f vs duplicated %.0f bytes)",
                             per_shared, per_dup));
      }
      const ensemble::SpeedupPoint* sp = FindPoint(shared, common);
      if (sp != nullptr && sp->shared_bytes_saved == 0) {
        fail(app + ": shared run reported no bytes saved");
      }
    } else {
      fail(app + ": no common instance count ran in both layouts");
    }
  }

  if (!ok) return 1;
  std::printf("\nsharing read-only inputs raises the max replica count to "
              "256+ on every app (duplicated layout OOMs first)\n");
  return 0;
}
