// The enhanced (ensemble) loader — the paper's core contribution (§3).
//
// Extends the single-instance main wrapper to launch NI instances of the
// application inside ONE kernel: instance I's command line comes from line
// I of the argument file; each instance is mapped to a team via
// `target teams distribute num_teams(N) thread_limit(T)` (Fig. 4), and the
// per-instance exit codes are mapped back (`map(from:Ret[:NI])`). With one
// argument row it is the single-instance wrapper itself, which is how the
// T1 baseline runs.
//
// The loader's own command line mirrors Fig. 5c:
//   user_app_gpu -f arguments.txt -n 4 -t 128
// plus two extensions: -m (teams per block, §3.1's multi-dimensional
// mapping) and --teams (decouple N from NI; instances distribute
// round-robin over teams, exactly the Fig. 4 loop).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dgcf/app.h"
#include "dgcf/loader.h"
#include "gpusim/faults.h"
#include "support/status.h"

namespace dgc::ensemble {

struct EnsembleOptions {
  std::string app;  ///< registered application name
  /// Per-instance argv[1..] (from -f, an arg script, or built directly).
  std::vector<std::vector<std::string>> instance_args;
  /// Instances to launch (-n). 0 → one per argument line. Must not exceed
  /// the number of argument lines.
  std::uint32_t num_instances = 0;
  /// Thread limit per instance (-t).
  std::uint32_t thread_limit = 1024;
  /// Teams (N in Fig. 4). 0 → equal to the instance count (the paper's
  /// evaluation configuration, §4.2).
  std::uint32_t num_teams = 0;
  /// M instances per thread block (§3.1); 1 = the paper's implementation.
  std::uint32_t teams_per_block = 1;
  /// Optional instruction trace of the ensemble kernel (gpusim/trace.h).
  sim::Trace* trace = nullptr;
  /// Optional shadow-memory sanitizer (gpusim/memcheck.h). The loader
  /// attaches it to the device memory and returns its findings in
  /// RunResult::memcheck; each finding names the instance of the accessing
  /// lane (Lane::instance), which feeds the §3.3 cross-instance checker.
  sim::Memcheck* memcheck = nullptr;
  /// Deterministic fault-injection plan (gpusim/faults.h); empty = off.
  /// RunEnsemble copies it once per call and wires the copy into every
  /// launch wave and into the AppEnv's DeviceLibc and RpcHost. The copy
  /// persists across retry waves, so count-based faults fire exactly once
  /// and a retry can recover the instance they hit; the options are never
  /// mutated, so every call injects the same faults.
  sim::FaultPlan faults;
  /// Launch watchdog: cycle budget for each kernel launch, after which
  /// every still-running lane traps (kWatchdog) and the launch drains.
  /// 0 derives DeviceSpec::DefaultWatchdogCycles().
  std::uint64_t watchdog_cycles = 0;
  /// Per-instance watchdog: cycles one instance may run before its team's
  /// lanes trap. 0 (default) disables; the launch budget still applies.
  std::uint64_t instance_watchdog_cycles = 0;
  /// Optional per-instance overrides of the watchdog budget, indexed by
  /// instance id: entry I (when nonzero) replaces instance_watchdog_cycles
  /// for instance I. Must be empty or have one entry per instance. A
  /// job-stream scheduler uses this to layer per-job deadline budgets on
  /// the watchdog machinery — each packed job gets its own remaining
  /// budget instead of the batch minimum.
  std::vector<std::uint64_t> instance_watchdogs;
  /// Total launch waves an abnormally-terminated instance may consume
  /// (first run + retries). 1 = no retry. Instances that *returned* with a
  /// nonzero exit code completed execution and are never retried. Each
  /// retry wave halves the team cap (min 1 team): relaunching failed
  /// instances on a smaller wave relieves the memory/contention pressure
  /// that commonly caused the failure.
  std::uint32_t max_attempts = 1;
  /// Optional launch profiler (gpusim/profiler.h); null = off. The loader
  /// forwards it to every wave, so one timeline covers all waves.
  /// Per-instance attribution does not need it: every run fills each
  /// InstanceResult::stats and RunResult::unattributed.
  sim::Profiler* profiler = nullptr;
  /// Share content-identical read-only inputs across instances: apps
  /// acquire them via content-keyed shared segments, so identical instances
  /// map one physical copy (flagged read-only to the §3.3 race detector).
  /// Off by default — the duplicated layout is the paper's baseline.
  bool share_data = false;
};

/// Runs the ensemble. Instance I's exit code lands in result.instances[I].
///
/// Failure semantics: an instance that traps (OOM, abort, injected fault,
/// watchdog) or throws is *contained* — its InstanceResult records the
/// TerminationReason and detail while sibling instances run to completion.
/// With max_attempts > 1, instances that did not complete execution are
/// relaunched in follow-up waves (see EnsembleOptions::max_attempts).
StatusOr<dgcf::RunResult> RunEnsemble(dgcf::AppEnv& env,
                                      const EnsembleOptions& options);

/// Fig. 5c front end: parses `-f <file> -n <instances> -t <threads>` (plus
/// -m/--teams/--script/--seed, `--share-data on|off` — default on — and the
/// fault-tolerance flags --inject/--watchdog/--instance-watchdog/--retry)
/// for `app` into the run they describe, with instance_args loaded from the -f
/// file (or expanded from it with --script) and --inject parsed into
/// `faults`. trace/memcheck/profiler are left null for the caller to
/// attach. Every value and the --inject spec are checked before the
/// argument file is read through the host filesystem; any problem is an
/// error Status, so a caller can reject bad usage before building a device.
StatusOr<EnsembleOptions> ParseLoaderArgs(const std::string& app,
                                          const std::vector<std::string>& argv);

}  // namespace dgc::ensemble
