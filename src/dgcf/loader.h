// What a loader run reports: how each application instance ended and the
// run's cycles, stats and findings.
//
// There is one loader, ensemble::RunEnsemble (ensemble/loader.h). The main
// wrapper of the original direct GPU compilation framework ([26], §2.2),
// which runs ONE instance on one team, is that loader given a single
// argument row; the evaluation measures T1 exactly that way.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gpusim/faults.h"
#include "gpusim/memcheck.h"
#include "gpusim/memory.h"
#include "gpusim/stats.h"

namespace dgc::dgcf {

/// How one application instance ended. kReturned is the only *completed*
/// execution — `__user_main` came back with an exit code (possibly
/// nonzero). Everything else is an abnormal termination the loader
/// contained to this instance; such instances are candidates for
/// retry-relaunch, a nonzero kReturned exit is not (the program ran).
enum class TerminationReason : std::uint8_t {
  kReturned = 0,   ///< __user_main returned; see exit_code
  kNotStarted,     ///< never reached the device (e.g. team lost earlier)
  kException,      ///< uncaught C++ exception in app code
  kTrapOOM,        ///< unchecked allocation failure (heap or shared memory)
  kTrapAbort,      ///< abort() / failed assert() in app code
  kTrapInjected,   ///< FaultPlan trap site
  kDeadlock,       ///< launch deadlocked while this instance was running
  kWatchdog,       ///< cycle budget exhausted (launch- or instance-level)
};

std::string_view ToString(TerminationReason reason);

/// Maps a contained DeviceTrap to the instance-level reason.
TerminationReason ReasonForTrap(sim::TrapKind kind);

/// Outcome of one application instance.
struct InstanceResult {
  int exit_code = 0;
  /// False when the instance did not return from __user_main (trap,
  /// exception, watchdog, deadlock, or never started).
  bool completed = false;
  TerminationReason reason = TerminationReason::kNotStarted;
  /// Human-readable detail for abnormal terminations (the trap message).
  std::string detail;
  /// Device cycles this instance spent executing (across retry waves).
  std::uint64_t cycles = 0;
  /// Launch waves that ran (or started) this instance; > 1 after a retry.
  std::uint32_t attempts = 0;
  /// Device-memory peak and allocation count attributed to this instance
  /// (from DeviceMemory's per-owner accounting; shared-segment bytes are
  /// charged to the materializing instance only).
  std::uint64_t mem_peak_bytes = 0;
  std::uint64_t mem_allocations = 0;
  /// The launch counters this instance's lanes issued (Lane::instance),
  /// summed over its waves; elapsed_cycles is `cycles`.
  sim::LaunchStats stats;
};

/// Outcome of a loader run.
struct RunResult {
  /// What ran: the application, the device preset and the launch shape
  /// (the header of the dgc-metrics-v1 document).
  std::string app;
  std::string device;
  std::uint32_t thread_limit = 0;
  std::uint32_t teams_per_block = 1;
  std::vector<InstanceResult> instances;
  std::uint64_t kernel_cycles = 0;    ///< device execution incl. launch
  std::uint64_t transfer_cycles = 0;  ///< argv mapping + result map(from:)
  /// Launch waves executed: 1 normally, more when retry-relaunch ran.
  std::uint32_t waves = 0;
  sim::LaunchStats stats;
  /// Lane-failure and containment messages, `instance=I`-prefixed when the
  /// owning instance is known.
  std::vector<std::string> failures;
  /// Sanitizer findings when the run was launched with a memcheck attached
  /// (clean/empty otherwise).
  sim::MemcheckReport memcheck;
  /// Counters of work no instance owned (runtime bookkeeping, padding
  /// lanes, a team between instances). With every InstanceResult::stats
  /// it partitions the launch counters in `stats`; the loader's counts of
  /// contained traps are in `stats` only.
  sim::LaunchStats unattributed;
  /// Device-memory counters at the end of the run (peak is the high-water
  /// mark over the whole run).
  sim::DeviceMemSnapshot device_mem;

  std::uint64_t total_cycles() const { return kernel_cycles + transfer_cycles; }
  /// True when every instance completed with exit code 0. An empty
  /// `instances` vector yields false by definition: "no instance ran" is
  /// not a successful run, so a caller that gates on all_ok() can never
  /// mistake a run that launched nothing for a clean one.
  bool all_ok() const {
    for (const InstanceResult& r : instances) {
      if (!r.completed || r.exit_code != 0) return false;
    }
    return !instances.empty();
  }
};

}  // namespace dgc::dgcf
