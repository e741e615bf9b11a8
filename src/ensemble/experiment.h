// Evaluation harness for the paper's Fig. 6 methodology (§4.2/§4.3):
// run N ∈ {1,2,4,...} concurrent instances, each team executing one
// instance, and report relative speedup T1·N / TN.
//
// Every (benchmark × thread_limit × instance_count) point is an independent
// simulation on a fresh device, so a sweep decomposes into point-jobs that
// can fill all host cores (the paper's own ensemble argument, applied to
// the harness). The runner is deterministic for any job count: points are
// written into pre-assigned slots, reassembled in declaration order, and
// speedups resolved against the 1-instance baseline in a final sequential
// pass — the rendered output is byte-identical to a serial run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ensemble/loader.h"
#include "gpusim/device_spec.h"
#include "gpusim/stats.h"
#include "support/status.h"

namespace dgc::ensemble {

struct ExperimentConfig {
  /// The run every point repeats. Point N copies it and sets
  /// num_instances = N, so it runs the first N argument rows (each
  /// instance on its own input, as ensembles do) with the same thread
  /// limit, mapping, sharing, retry policy and fault plan. Each point's
  /// RunEnsemble call copies the plan, so every point starts with fresh
  /// consumption counters and the sweep is byte-identical for any --jobs.
  /// trace, memcheck and profiler must be null: points run concurrently
  /// (use `profile` for per-point profiling).
  EnsembleOptions run;
  std::vector<std::uint32_t> instance_counts{1, 2, 4, 8, 16, 32, 64};
  sim::DeviceSpec spec;  ///< fresh device per measurement
  /// Profile every point: each point runs under its own Profiler and fills
  /// SpeedupPoint::metrics_json (the --metrics-json sidecar). Profiling is
  /// deterministic, so sidecars stay byte-identical for any --jobs value.
  bool profile = false;
  /// Timeline sample interval when profiling; 0 = the Profiler default.
  std::uint64_t profile_interval = 0;
};

/// Progress of one sweep point, reported as it starts and finishes so long
/// sweeps are observable. Counters are totals across the whole RunSweeps
/// call (all series), monotone, and include the event being reported.
struct SweepPointEvent {
  enum class Kind : std::uint8_t { kStarted, kFinished };
  Kind kind = Kind::kStarted;
  std::string app;
  std::uint32_t thread_limit = 0;
  std::uint32_t instances = 0;
  std::size_t points_total = 0;
  std::size_t points_started = 0;   ///< points started so far
  std::size_t points_finished = 0;  ///< points finished so far
  bool ran = false;                 ///< kFinished only
  double wall_seconds = 0.0;        ///< kFinished only: host wall time
};

struct SweepOptions {
  /// Concurrent point-jobs. 1 (default) runs fully serial — bit-for-bit
  /// the pre-parallel behaviour, no worker threads; 0 means one job per
  /// hardware thread. Output is identical for every value.
  std::uint32_t jobs = 1;
  /// Optional observer. Invocations are serialized (never concurrent) but
  /// arrive from worker threads when jobs > 1.
  std::function<void(const SweepPointEvent&)> progress;
};

struct SpeedupPoint {
  std::uint32_t instances = 0;
  bool ran = false;        ///< false: configuration skipped (e.g. OOM)
  std::string note{};      ///< skip reason
  std::uint64_t cycles = 0;  ///< TN, kernel execution cycles
  double speedup = 0.0;      ///< T1 · N / TN
  sim::LaunchStats stats{};
  /// Device-memory footprint of the point: high-water mark and the bytes
  /// the shared-segment facility avoided duplicating (0 when sharing is
  /// off or no instances coincide).
  std::uint64_t peak_mem_bytes = 0;
  std::uint64_t shared_bytes_saved = 0;
  /// Complete dgc-metrics-v1 document for this point (ensemble/metrics.h)
  /// when ExperimentConfig::profile is set and the point ran; "" otherwise.
  std::string metrics_json{};
};

struct SpeedupSeries {
  std::string app;
  std::uint32_t thread_limit = 0;
  std::vector<SpeedupPoint> points;

  /// Largest measured speedup (the paper's "up to 51X" headline).
  double MaxSpeedup() const;
};

/// Runs one sweep. The first count must be 1 (it defines T1) and the run
/// must provide an argument row for the largest count. A
/// configuration whose instances cannot all allocate (device OOM) is
/// recorded as ran=false — the paper's Page-Rank case. A point with any
/// failed instance (trap, watchdog, nonzero exit) is likewise recorded as
/// ran=false with the first failure in its note: a faulting point skips
/// that point, never the sweep. If the 1-instance baseline itself cannot
/// run, the whole series is marked not-ran (T1 is undefined, so no point
/// may report a speedup).
StatusOr<SpeedupSeries> MeasureSpeedup(const ExperimentConfig& config,
                                       const SweepOptions& options = {});

/// Runs several sweeps as one pool of independent point-jobs (a full
/// Fig. 6 panel is one call), returning the series in `configs` order.
StatusOr<std::vector<SpeedupSeries>> RunSweeps(
    const std::vector<ExperimentConfig>& configs,
    const SweepOptions& options = {});

/// Renders one or more series as the paper-style text table: one column
/// per instance count, one row per benchmark, plus the Linear bound row.
std::string FormatSpeedupTable(const std::vector<SpeedupSeries>& series);

/// CSV form of the series (one row per benchmark×count) for plotting:
/// benchmark,thread_limit,instances,ran,cycles,speedup. Points with ran=0
/// leave cycles and speedup empty — they are absences, not measured zeros.
std::string FormatSpeedupCsv(const std::vector<SpeedupSeries>& series);

/// Writes the CSV to a file (overwrites).
Status WriteSpeedupCsv(const std::vector<SpeedupSeries>& series,
                       const std::string& path);

}  // namespace dgc::ensemble
