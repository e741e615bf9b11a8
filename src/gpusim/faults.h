// Per-instance traps and deterministic fault injection.
//
// The ensemble loader's promise (paper §3) is that NI *independent*
// instances share one kernel — which only holds if a misbehaving instance
// cannot take its siblings down with it. This header defines the trap
// vocabulary the simulator uses for recoverable device faults (out of
// memory, abort(), watchdog expiry, injected faults) and the seeded
// FaultPlan that injects such faults at deterministic points so the
// containment machinery is testable end to end.
//
// A trap is an exception (DeviceTrap) raised *inside* the faulting lane's
// coroutine at its next resume point. It propagates through the normal
// exception-transparent task machinery, so a loader that wraps an instance
// in try/catch contains the fault to that instance while sibling teams run
// on undisturbed.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "support/status.h"

namespace dgc::sim {

/// Why a lane (or the instance it was running) was terminated abnormally.
enum class TrapKind : std::uint8_t {
  kNone = 0,
  kOOM,       ///< unchecked allocation failure (heap or shared memory)
  kAbort,     ///< abort() / failed assert() in app code
  kWatchdog,  ///< cycle budget exhausted (launch- or instance-level)
  kInjected,  ///< FaultPlan trap site
};

std::string_view ToString(TrapKind kind);

/// The exception type of a device trap. Thrown by device code (device libc
/// abort/OOM paths, shared-memory exhaustion) and by the scheduler at a
/// lane's resume point when a trap is pending (watchdog, injected traps).
class DeviceTrap : public std::runtime_error {
 public:
  DeviceTrap(TrapKind kind, const std::string& message)
      : std::runtime_error(message), kind_(kind) {}

  TrapKind kind() const { return kind_; }

 private:
  TrapKind kind_;
};

/// How a launch as a whole ended. Lane-level failures (including traps) do
/// not prevent completion — the remaining blocks retire normally. Deadlock
/// means the event queue drained with blocks still resident: some lane is
/// parked on a barrier that can never release.
enum class LaunchOutcome : std::uint8_t { kCompleted = 0, kDeadlocked };

std::string_view ToString(LaunchOutcome outcome);

/// A deterministic fault-injection plan. Counters are mutated as the
/// simulation consumes the plan, so one plan shared across retry waves
/// injects each listed fault exactly once (which is what lets a retry
/// recover an injected-OOM instance). Each Device runs single-threaded, so
/// no synchronization is needed. The ensemble loader copies the plan once
/// per run (ensemble::EnsembleOptions::faults), so concurrent runs never
/// share counters.
///
/// Spec grammar (semicolon-separated clauses; see docs/MODEL.md):
///   seed@<n>               seed for the probabilistic clauses (default 1)
///   malloc-fail@<n>[,...]  fail the n-th device malloc call (1-based)
///   malloc-fail@p<pct>     fail each malloc with pct% probability (seeded)
///   rpc-fail@<n>[,...]     fail the n-th host RPC call (1-based)
///   rpc-fail@p<pct>        fail each RPC call with pct% probability
///   trap@b<B>.w<W>.c<C>    trap every lane of block B warp W at the warp's
///                          first turn at cycle >= C (fires once)
///   slow@b<B>.x<F>         multiply block B's compute-op cycles by F
struct FaultPlan {
  struct TrapSite {
    std::uint32_t block = 0;
    std::uint32_t warp = 0;
    std::uint64_t cycle = 0;
    bool fired = false;
  };
  struct Slowdown {
    std::uint32_t block = 0;
    std::uint64_t factor = 1;
  };

  std::uint64_t seed = 1;
  std::vector<std::uint64_t> malloc_fail;  ///< 1-based call ordinals
  double malloc_fail_p = 0.0;              ///< per-call failure probability
  std::vector<std::uint64_t> rpc_fail;     ///< 1-based call ordinals
  double rpc_fail_p = 0.0;
  std::vector<TrapSite> traps;
  std::vector<Slowdown> slowdowns;

  // --- Consumption state (advances as the simulation runs) -----------------
  std::uint64_t malloc_calls = 0;
  std::uint64_t rpc_calls = 0;

  /// True when the plan injects nothing (a default-constructed plan).
  bool empty() const {
    return malloc_fail.empty() && malloc_fail_p == 0.0 && rpc_fail.empty() &&
           rpc_fail_p == 0.0 && traps.empty() && slowdowns.empty();
  }

  /// Counts a device malloc call; true if the plan fails it.
  bool NextMallocFails();
  /// Counts a host RPC call; true if the plan fails it.
  bool NextRpcFails();
  /// First unfired trap site matching (block, warp) with cycle <= now;
  /// marks it fired. Null when none.
  TrapSite* MatchTrap(std::uint32_t block, std::uint32_t warp,
                      std::uint64_t now);
  /// Compute-cycle multiplier for `block` (1 when unaffected).
  std::uint64_t WorkScale(std::uint32_t block) const;

  /// Parses the spec grammar above. An empty spec yields an empty plan.
  static StatusOr<FaultPlan> Parse(std::string_view spec);
  /// Canonical spec string (parseable by Parse; "" for an empty plan).
  std::string ToString() const;

  // --- Service-level plan construction --------------------------------------
  // A scheduler that packs jobs into launches compiles its per-job fault
  // decisions down to this launch-level vocabulary: job slot S becomes a
  // trap or slowdown on the block running S. These helpers build such
  // plans programmatically (the spec grammar stays the human front end).

  /// Appends a trap site (fires once, like a parsed `trap@` clause).
  void AddTrap(std::uint32_t block, std::uint32_t warp, std::uint64_t cycle) {
    traps.push_back(TrapSite{block, warp, cycle, false});
  }
  /// Appends a compute slowdown for `block` (factor >= 1).
  void AddSlowdown(std::uint32_t block, std::uint64_t factor) {
    slowdowns.push_back(Slowdown{block, factor == 0 ? 1 : factor});
  }

  /// The deterministic per-ordinal coin flip behind the probabilistic
  /// clauses: hashing (seed, stream, ordinal) keeps each decision
  /// independent of evaluation order. Streams 1 (malloc) and 2 (rpc) are
  /// taken by this plan's own clauses; service-level plans draw from
  /// streams >= 16 so their decisions never correlate with launch-level
  /// injection under a shared seed.
  static bool SeededFlip(std::uint64_t seed, std::uint64_t stream,
                         std::uint64_t ordinal, double p);
};

}  // namespace dgc::sim
