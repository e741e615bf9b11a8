// `target teams` launching: runs a league of teams, each starting in its
// initial thread with workers parked — the execution model of
// `#pragma omp target teams` under LLVM OpenMP, including the paper §3.1
// multi-dimensional variant that packs M teams into one thread block.
#pragma once

#include <cstdint>
#include <functional>

#include "gpusim/device.h"
#include "ompx/team.h"

namespace dgc::ompx {

struct TeamsConfig {
  std::uint32_t num_teams = 1;
  /// Maximum threads usable by one team (the paper's -t flag).
  std::uint32_t thread_limit = 32;
  /// M teams per thread block: block shape becomes (thread_limit, M, 1)
  /// with each row an independent team (paper §3.1; 1 = the paper's
  /// implemented mapping).
  std::uint32_t teams_per_block = 1;
  /// The kernel launch: name, observers (trace, memcheck, faults,
  /// profiler) and watchdog budget. LaunchTeams launches a
  /// copy whose grid, block and shared_bytes it derives from the fields
  /// above, so values set for those three here are ignored.
  sim::LaunchConfig launch{.name = "target-teams"};
};

/// The per-team entry point, run by the team's initial thread only (the
/// "sequential part" of the team). Use Parallel/ParallelFor from team.h to
/// fan out to the team's workers.
using TeamMain = std::function<sim::DeviceTask<void>(TeamCtx&)>;

/// Launches `cfg.num_teams` teams and runs `team_main` in each.
/// Returns the kernel's LaunchResult (cycles include launch overhead).
StatusOr<sim::LaunchResult> LaunchTeams(sim::Device& device,
                                        const TeamsConfig& cfg,
                                        const TeamMain& team_main);

}  // namespace dgc::ompx
