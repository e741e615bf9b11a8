// LaunchContext: the per-launch orchestrator.
//
// Owns the event engine, the blocks, and the SM occupancy bookkeeping for
// one kernel launch: blocks are dispatched to SMs as slots free up (the
// GPU's global block scheduler), and the launch completes when every block
// has retired.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gpusim/engine.h"
#include "gpusim/kernel.h"
#include "gpusim/memsys.h"
#include "gpusim/sm.h"
#include "gpusim/stats.h"

namespace dgc::sim {

class Block;
class Lane;

struct LaunchContext {
  LaunchContext(const DeviceSpec& spec, MemorySystem& memsys,
                const LaunchConfig& config, const KernelFn& kernel);
  ~LaunchContext();

  LaunchContext(const LaunchContext&) = delete;
  LaunchContext& operator=(const LaunchContext&) = delete;

  /// Dispatches initial blocks and drains the event queue. A deadlock
  /// (lanes blocked forever — e.g. a barrier nobody releases) is recorded
  /// as outcome = kDeadlocked plus a failure entry, not an error Status:
  /// a deadlocked point in a sweep fails that point, not the process, and
  /// loaders attribute it to the instances that were still running.
  Status Run();

  void OnBlockFinished(Block* block, std::uint64_t now);
  /// Records one failure of `lane`, prefixed `instance=I` when the lane is
  /// running an instance (Lane::instance). `kind` classifies traps for the
  /// stats counters (kNone for ordinary exceptions).
  void RecordFailure(const Lane& lane, TrapKind kind, const std::string& what);

  /// Stats sink for counter bumps issued on behalf of `lane`: the bucket
  /// of the lane's instance (Lane::instance), folded into `stats` when the
  /// run ends. Never grows the bucket vector (AddInstance does), so a
  /// returned reference stays valid across later calls.
  LaunchStats& IssueStats(const Lane& lane);
  /// Makes sure `instance` (>= -1) has a bucket before any lane running it
  /// issues; called where a lane's instance is set (ThreadCtx::SetRowInstance).
  void AddInstance(std::int32_t instance);

  /// Resident warps summed over all SMs (timeline sampling).
  std::uint32_t ActiveWarps() const;
  /// Occupied block slots summed over all SMs (timeline sampling).
  std::uint32_t ResidentBlocks() const;

  const DeviceSpec& spec;
  MemorySystem& memsys;
  const LaunchConfig& config;
  const KernelFn& kernel;

  Engine engine;
  LaunchStats stats;
  LaunchOutcome outcome = LaunchOutcome::kCompleted;
  std::vector<std::string> failures;
  std::uint64_t failure_count = 0;
  /// Per-instance counter buckets: index 0 collects unattributed (-1) work,
  /// index i + 1 instance i. They partition the counters in `stats`.
  std::vector<LaunchStats> instance_buckets = std::vector<LaunchStats>(1);

 private:
  void TrySchedule(std::uint64_t now);
  /// The event loop: runs events in (cycle, insertion-seq) order until the
  /// queue is empty.
  void DrainEvents();

  std::vector<SM> sms_;
  std::vector<std::unique_ptr<Block>> blocks_;
  std::uint64_t total_blocks_ = 0;
  std::uint64_t next_block_ = 0;
  std::uint64_t done_blocks_ = 0;
  int warps_per_block_ = 0;
};

}  // namespace dgc::sim
