// A lane is one simulated GPU thread.
//
// Lanes execute device code as C++20 coroutines: every timed operation
// (global/shared memory access, compute, barrier, host RPC) is a suspension
// point. The warp scheduler resumes its lanes in lockstep, collects the
// pending operations, and charges the timing model — see warp.h.
#pragma once

#include <coroutine>
#include <cstdint>
#include <cstring>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "gpusim/address.h"
#include "gpusim/faults.h"

namespace dgc::sim {

class Barrier;
class Block;
class Warp;
struct ThreadCtx;

/// Bit-level helpers for transporting values (≤ 8 bytes) through DeviceOp.
template <typename T>
std::uint64_t ToBits(T v) {
  static_assert(sizeof(T) <= 8 && std::is_trivially_copyable_v<T>);
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(T));
  return b;
}

template <typename T>
T FromBits(std::uint64_t b) {
  static_assert(sizeof(T) <= 8 && std::is_trivially_copyable_v<T>);
  T v;
  std::memcpy(&v, &b, sizeof(T));
  return v;
}

/// One element of a list gather (ThreadCtx::Gather): its device address,
/// and one word that holds the host pointer until issue and the loaded bits
/// after it.
struct GatherSlot {
  DeviceAddr addr;
  std::uint64_t word;
};

/// One element of a scatter (ThreadCtx::Scatter): where it goes and the
/// bits to store.
struct ScatterSlot {
  DeviceAddr addr;
  void* host;
  std::uint64_t bits;
};

/// One pending device operation of a suspended lane.
struct DeviceOp {
  enum class Kind : std::uint8_t {
    kNone,
    kLoad,
    kLoadBatch,   ///< independent loads issued together (MLP / streaming)
    kStore,
    kStoreBatch,  ///< independent stores issued together
    kAtomic,
    kWork,      ///< pure compute for `cycles`
    kSync,      ///< barrier arrival
    kExternal,  ///< host callback (RPC); pays `cycles` per call
  };

  Kind kind = Kind::kNone;
  std::uint8_t bytes = 0;
  DeviceAddr addr = 0;
  void* host = nullptr;
  std::uint64_t bits = 0;    ///< store value / atomic operand
  std::uint64_t cycles = 0;  ///< work duration or external latency
  /// Atomic read-modify-write, applied at issue time in lane order.
  std::uint64_t (*apply)(void* host, std::uint64_t operand) = nullptr;
  Barrier* barrier = nullptr;
  std::function<std::uint64_t()>* external = nullptr;
  /// kLoadBatch / kStoreBatch: `batch_count` elements of `bytes` each, in
  /// awaiter-owned storage that stays put across the suspension. A list
  /// (addr == 0) names its elements in the GatherSlot (kLoadBatch) or
  /// ScatterSlot (kStoreBatch) array at `batch`; a run (kLoadBatch with
  /// addr/host = its first element) covers consecutive elements and packs
  /// its results into `batch`.
  void* batch = nullptr;
  std::uint32_t batch_count = 0;
};

class Lane {
 public:
  enum class State : std::uint8_t { kReady, kBlocked, kDone, kFailed };

  Lane() = default;
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;
  ~Lane();

  /// Adopts the root coroutine (already created, suspended at its initial
  /// suspend point). `error_slot` points at the root promise's exception
  /// slot so failures can be reported after completion.
  void Start(std::coroutine_handle<> root, std::exception_ptr* error_slot);

  /// Resumes the innermost active coroutine until the next suspension.
  void Resume();

  bool root_finished() const { return root_finished_; }
  std::exception_ptr root_error() const {
    return error_slot_ != nullptr ? *error_slot_ : nullptr;
  }

  // --- Scheduler state (owned by Warp/Block/Barrier) ------------------------
  State state = State::kReady;
  std::uint64_t ready_at = 0;
  DeviceOp pending;
  /// Result of the most recently issued op (read by the awaiter on resume;
  /// survives the warp clearing `pending`).
  std::uint64_t pending_result = 0;
  std::coroutine_handle<> top;  ///< innermost resumable coroutine
  Warp* warp = nullptr;
  Block* block = nullptr;
  ThreadCtx* ctx = nullptr;
  std::uint32_t thread_id = 0;  ///< linear id within the block
  std::vector<Barrier*> memberships;  ///< barriers counting this lane

  /// Armed trap, raised as a DeviceTrap inside the coroutine at the lane's
  /// next resume point (see detail::RaisePendingTrap in ctx.h). Set by the
  /// warp scheduler for watchdog expiry and injected trap sites.
  TrapKind pending_trap = TrapKind::kNone;
  /// The application instance this lane's team row is running (>= 0), or -1
  /// outside any instance. Set per row, with watchdog_deadline, by
  /// ThreadCtx::SetRowInstance; the launch's counter buckets, failure
  /// prefixes, heap owners and memcheck all read it. (Placed here, it
  /// fills padding.)
  std::int32_t instance = -1;
  /// Cycle at which pending_trap was armed (for the trap message).
  std::uint64_t trap_cycle = 0;
  /// Per-lane watchdog: trap the lane at its first resume at or after this
  /// cycle. 0 = disarmed. Re-armed per instance by the ensemble loader.
  std::uint64_t watchdog_deadline = 0;

  /// Set by the root coroutine's final awaiter.
  void MarkRootFinished() { root_finished_ = true; }

 private:
  std::coroutine_handle<> root_;
  std::exception_ptr* error_slot_ = nullptr;
  bool root_finished_ = false;
};

// 64k lanes are resident at the paper's Fig. 6b point; keep a lane's
// scheduler state from growing unnoticed.
static_assert(sizeof(Lane) == 216);

/// The lane currently being resumed. Awaiters use it to reach the scheduler
/// without threading a pointer through every promise. Each simulation is
/// single-threaded, but the ensemble sweep harness runs independent Device
/// instances on concurrent host threads — the slot is therefore one per
/// host thread (thread_local), never process-wide.
Lane*& CurrentLane();

}  // namespace dgc::sim
