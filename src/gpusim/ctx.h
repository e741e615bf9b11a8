// ThreadCtx: the per-lane device-code API.
//
// Every simulated device function receives a ThreadCtx& and awaits its
// operations:
//
//   DeviceTask<double> Sum(ThreadCtx& ctx, DevicePtr<double> a, int n) {
//     double s = 0;
//     for (int i = ctx.thread_id; i < n; i += ctx.block_threads)
//       s += co_await ctx.Load(a + i);
//     co_return s;
//   }
//
// Loads/stores are *timed*: they suspend the lane, the warp coalesces the
// 32 lanes' addresses, and the memory hierarchy charges cycles. Untimed
// host-side access (DevicePtr::operator*) is reserved for setup paths.
#pragma once

#include <functional>

#include "gpusim/address.h"
#include "gpusim/lane.h"
#include "gpusim/task.h"

namespace dgc::sim {

class Barrier;
class Block;

namespace detail {

/// Raises the current lane's pending trap (if armed) as a DeviceTrap.
/// Called by every awaiter at its resume point, i.e. *inside* the resumed
/// coroutine, so the trap unwinds through the normal exception-transparent
/// task machinery and can be contained per instance by a loader's
/// try/catch. Clears the trap: it fires exactly once.
void RaisePendingTrap();

/// Base for suspending awaiters: parks the op on the current lane and
/// points the lane's resume cursor at the suspended coroutine.
struct OpAwaiterBase {
  DeviceOp op;
  Lane* lane = nullptr;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    lane = CurrentLane();
    lane->pending = op;
    lane->top = h;
  }
};

template <typename T>
struct LoadAwaiter : OpAwaiterBase {
  explicit LoadAwaiter(DevicePtr<T> p) {
    op.kind = DeviceOp::Kind::kLoad;
    op.bytes = sizeof(T);
    op.addr = p.addr;
    op.host = p.host;
  }
  T await_resume() const {
    RaisePendingTrap();
    return FromBits<T>(lane->pending_result);
  }
};

template <typename T>
struct StoreAwaiter : OpAwaiterBase {
  StoreAwaiter(DevicePtr<T> p, T value) {
    op.kind = DeviceOp::Kind::kStore;
    op.bytes = sizeof(T);
    op.addr = p.addr;
    op.host = p.host;
    op.bits = ToBits(value);
  }
  void await_resume() const { RaisePendingTrap(); }
};

template <typename T>
struct AtomicAwaiter : OpAwaiterBase {
  AtomicAwaiter(DevicePtr<T> p, T operand,
                std::uint64_t (*apply)(void*, std::uint64_t)) {
    op.kind = DeviceOp::Kind::kAtomic;
    op.bytes = sizeof(T);
    op.addr = p.addr;
    op.host = p.host;
    op.bits = ToBits(operand);
    op.apply = apply;
  }
  /// Returns the value observed *before* the update, like CUDA atomics.
  T await_resume() const {
    RaisePendingTrap();
    return FromBits<T>(lane->pending_result);
  }
};

struct WorkAwaiter : OpAwaiterBase {
  explicit WorkAwaiter(std::uint64_t cycles) {
    op.kind = DeviceOp::Kind::kWork;
    op.cycles = cycles;
  }
  void await_resume() const { RaisePendingTrap(); }
};

struct SyncAwaiter : OpAwaiterBase {
  explicit SyncAwaiter(Barrier* barrier) {
    op.kind = DeviceOp::Kind::kSync;
    op.barrier = barrier;
  }
  void await_resume() const { RaisePendingTrap(); }
};

/// Pipelined batch load: up to kMaxGather *independent* loads issued as one
/// memory instruction. Models the memory-level parallelism a streaming
/// kernel gets from hardware scoreboarding: the batch pays ONE latency trip
/// plus bandwidth-serialized sector service, instead of one latency per
/// element. Use for loads whose addresses do not depend on each other
/// (CSR rows, gathers); keep dependent chains (binary search, pointer
/// chasing) on scalar Load — that latency is real.
inline constexpr std::uint32_t kMaxGather = 96;

/// Parks a batch op (see DeviceOp::batch) on the current lane.
inline void ParkBatch(std::coroutine_handle<> h, DeviceOp::Kind kind,
                      std::uint8_t bytes, void* batch, std::uint32_t count,
                      DeviceAddr run_addr = 0, void* run_host = nullptr) {
  Lane* lane = CurrentLane();
  lane->pending = DeviceOp{};
  lane->pending.kind = kind;
  lane->pending.bytes = bytes;
  lane->pending.addr = run_addr;
  lane->pending.host = run_host;
  lane->pending.batch = batch;
  lane->pending.batch_count = count;
  lane->top = h;
}

// The batch awaiters below live in the coroutine frames of resident lanes,
// so each is sized by its capacity N and holds its own results: a lane may
// keep several batches' results live across later suspensions. Their
// constructors are user-provided so that value-initialization does not
// zero the N slots.

/// A list of up to N independent loads (N defaults to kMaxGather).
template <typename T, std::uint32_t N = kMaxGather>
struct GatherAwaiter {
  static_assert(sizeof(T) <= 8 && std::is_trivially_copyable_v<T>);

  GatherSlot slots[N];
  std::uint32_t count = 0;

  GatherAwaiter() {}

  /// Appends one element; silently ignored beyond N (callers chunk; Full()
  /// lets them check).
  void Add(DevicePtr<T> p) {
    if (count >= N) return;
    slots[count++] =
        GatherSlot{p.addr, reinterpret_cast<std::uintptr_t>(p.host)};
  }
  bool Full() const { return count >= N; }

  bool await_ready() const noexcept { return count == 0; }
  void await_suspend(std::coroutine_handle<> h) {
    ParkBatch(h, DeviceOp::Kind::kLoadBatch, sizeof(T), slots, count);
  }
  void await_resume() const { RaisePendingTrap(); }

  /// The i-th loaded value, valid after the co_await completes.
  T Result(std::uint32_t i) const { return FromBits<T>(slots[i].word); }
};

/// A load of `count` ≤ N consecutive elements from `base` (a streaming run):
/// issued like a gather of base + 0 .. base + count - 1, but stored as the
/// base, the count and the packed results.
template <typename T, std::uint32_t N = kMaxGather>
struct RunAwaiter {
  static_assert(sizeof(T) <= 8 && std::is_trivially_copyable_v<T>);

  DevicePtr<T> base;
  std::uint32_t count;
  T results[N];

  RunAwaiter(DevicePtr<T> p, std::uint32_t n) : base(p), count(n) {
    DGC_CHECK_MSG(n <= N, "LoadRun count exceeds the run's capacity");
  }

  bool await_ready() const noexcept { return count == 0; }
  void await_suspend(std::coroutine_handle<> h) {
    // A run is told from a list by its nonzero base address.
    DGC_CHECK_MSG(base.addr != 0, "LoadRun from a null device pointer");
    ParkBatch(h, DeviceOp::Kind::kLoadBatch, sizeof(T), results, count,
              base.addr, base.host);
  }
  void await_resume() const { RaisePendingTrap(); }

  /// The i-th loaded value, valid after the co_await completes.
  T Result(std::uint32_t i) const { return results[i]; }
};

/// Pipelined batch store — the write-side counterpart of GatherAwaiter.
/// Values are staged in the slots at Add time and written at issue.
template <typename T, std::uint32_t N = kMaxGather>
struct ScatterAwaiter {
  static_assert(sizeof(T) <= 8 && std::is_trivially_copyable_v<T>);

  ScatterSlot slots[N];
  std::uint32_t count = 0;

  ScatterAwaiter() {}

  /// Appends one element; silently ignored beyond N, like Gather's Add.
  void Add(DevicePtr<T> p, T value) {
    if (count >= N) return;
    slots[count++] = ScatterSlot{p.addr, p.host, ToBits(value)};
  }
  bool Full() const { return count >= N; }

  bool await_ready() const noexcept { return count == 0; }
  void await_suspend(std::coroutine_handle<> h) {
    ParkBatch(h, DeviceOp::Kind::kStoreBatch, sizeof(T), slots, count);
  }
  void await_resume() const { RaisePendingTrap(); }
};

struct ExternalAwaiter {
  std::function<std::uint64_t()>* fn;  ///< caller-owned; see HostCall docs
  std::uint64_t latency;
  Lane* lane = nullptr;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    lane = CurrentLane();
    lane->pending = DeviceOp{};
    lane->pending.kind = DeviceOp::Kind::kExternal;
    lane->pending.cycles = latency;
    lane->pending.external = fn;
    lane->top = h;
  }
  std::uint64_t await_resume() const {
    RaisePendingTrap();
    return lane->pending_result;
  }
};

// Every awaiter must be trivially destructible: temporaries inside a
// `co_await` full-expression that need destruction after the suspension
// point are miscompiled by some compilers (observed with GCC 12), so the
// device API never hands out one. Non-trivial state (e.g. an RPC handler)
// lives in a named coroutine local owned by the caller.
static_assert(std::is_trivially_destructible_v<WorkAwaiter>);
static_assert(std::is_trivially_destructible_v<SyncAwaiter>);
static_assert(std::is_trivially_destructible_v<ExternalAwaiter>);
static_assert(std::is_trivially_destructible_v<LoadAwaiter<double>>);
static_assert(std::is_trivially_destructible_v<GatherAwaiter<double>>);
static_assert(std::is_trivially_destructible_v<RunAwaiter<double>>);
static_assert(std::is_trivially_destructible_v<ScatterAwaiter<double>>);
static_assert(std::is_trivially_destructible_v<StoreAwaiter<double>>);
static_assert(std::is_trivially_destructible_v<AtomicAwaiter<double>>);

// Batch awaiters cost 16 B (gather), 24 B (scatter) or sizeof(T) (run) per
// element of capacity and little else; these bounds keep a later field from
// regrowing every resident lane's frame.
static_assert(sizeof(GatherAwaiter<double, 9>) <= 160);
static_assert(sizeof(ScatterAwaiter<double, 3>) <= 80);
static_assert(sizeof(RunAwaiter<std::uint32_t, 4>) <= 48);
static_assert(sizeof(RunAwaiter<double>) <= 8 * kMaxGather + 24);

// Atomic functional updates, applied by the warp at issue time.
template <typename T>
std::uint64_t ApplyAdd(void* host, std::uint64_t operand) {
  T* p = static_cast<T*>(host);
  const T old = *p;
  *p = T(old + FromBits<T>(operand));
  return ToBits(old);
}

template <typename T>
std::uint64_t ApplyMin(void* host, std::uint64_t operand) {
  T* p = static_cast<T*>(host);
  const T old = *p;
  const T v = FromBits<T>(operand);
  if (v < old) *p = v;
  return ToBits(old);
}

template <typename T>
std::uint64_t ApplyMax(void* host, std::uint64_t operand) {
  T* p = static_cast<T*>(host);
  const T old = *p;
  const T v = FromBits<T>(operand);
  if (v > old) *p = v;
  return ToBits(old);
}

template <typename T>
std::uint64_t ApplyExch(void* host, std::uint64_t operand) {
  T* p = static_cast<T*>(host);
  const T old = *p;
  *p = FromBits<T>(operand);
  return ToBits(old);
}

}  // namespace detail

struct ThreadCtx {
  Lane* lane = nullptr;
  Block* block = nullptr;

  // Identity within the launch.
  std::uint32_t thread_id = 0;   ///< linear id within the block
  Dim3 tid3;                     ///< 3-D id within the block
  std::uint32_t block_id = 0;    ///< linear id within the grid
  std::uint32_t block_threads = 1;
  Dim3 block_dim;
  std::uint32_t grid_blocks = 1;

  // --- Timed device operations (co_await the result) ------------------------
  template <typename T>
  detail::LoadAwaiter<T> Load(DevicePtr<T> p) const {
    return detail::LoadAwaiter<T>(p);
  }
  template <typename T>
  detail::StoreAwaiter<T> Store(DevicePtr<T> p, T value) const {
    return detail::StoreAwaiter<T>(p, value);
  }
  template <typename T>
  detail::AtomicAwaiter<T> AtomicAdd(DevicePtr<T> p, T v) const {
    return detail::AtomicAwaiter<T>(p, v, &detail::ApplyAdd<T>);
  }
  template <typename T>
  detail::AtomicAwaiter<T> AtomicMin(DevicePtr<T> p, T v) const {
    return detail::AtomicAwaiter<T>(p, v, &detail::ApplyMin<T>);
  }
  template <typename T>
  detail::AtomicAwaiter<T> AtomicMax(DevicePtr<T> p, T v) const {
    return detail::AtomicAwaiter<T>(p, v, &detail::ApplyMax<T>);
  }
  template <typename T>
  detail::AtomicAwaiter<T> AtomicExch(DevicePtr<T> p, T v) const {
    return detail::AtomicAwaiter<T>(p, v, &detail::ApplyExch<T>);
  }

  /// Pure compute for `cycles` SM cycles (contends for issue pipes).
  detail::WorkAwaiter Work(std::uint64_t cycles) const {
    return detail::WorkAwaiter(cycles);
  }

  /// Empty gather to fill with Add() and then co_await:
  ///   auto g = ctx.Gather<double>();
  ///   for (...) g.Add(ptrs[i]);
  ///   co_await g;           // one pipelined instruction
  ///   ... g.Result(i) ...
  /// The capacity N (default kMaxGather) sizes the awaiter, which lives in
  /// the caller's frame: give a batch with a known bound its bound, e.g.
  /// ctx.Gather<double, 9>().
  template <typename T, std::uint32_t N = detail::kMaxGather>
  detail::GatherAwaiter<T, N> Gather() const {
    return detail::GatherAwaiter<T, N>();
  }

  /// Load of `count` consecutive elements starting at `p` (a streaming
  /// run), read back with Result(i) like a gather. count must be ≤ the
  /// capacity N (default kMaxGather; checked): ctx.LoadRun<4>(p, n).
  template <std::uint32_t N = detail::kMaxGather, typename T>
  detail::RunAwaiter<T, N> LoadRun(DevicePtr<T> p, std::uint32_t count) const {
    return detail::RunAwaiter<T, N>(p, count);
  }

  /// Empty scatter (pipelined independent stores) of capacity N (default
  /// kMaxGather) to fill with Add():
  ///   auto s = ctx.Scatter<double>();
  ///   for (...) s.Add(out + i, value[i]);
  ///   co_await s;
  template <typename T, std::uint32_t N = detail::kMaxGather>
  detail::ScatterAwaiter<T, N> Scatter() const {
    return detail::ScatterAwaiter<T, N>();
  }

  /// Block-wide barrier (__syncthreads). Implemented in ctx.cpp — it needs
  /// the Block definition.
  detail::SyncAwaiter SyncThreads() const;

  /// Current device time in cycles (the launch's event-engine clock).
  /// Untimed — a convenience for runtimes that account per-instance cycles.
  std::uint64_t Now() const;

  /// Marks every lane of this lane's team row (tid3.y) as running
  /// `instance` (-1: none) and arms its watchdog: each lane traps with
  /// kWatchdog at its first resume at or after now + watchdog_cycles
  /// (0 disarms). The ensemble loader calls this as a team enters and
  /// leaves each instance, so the instance's accesses, counters and
  /// failures are attributed to it and a hung instance is killed without
  /// bounding its well-behaved siblings.
  void SetRowInstance(std::int32_t instance,
                      std::uint64_t watchdog_cycles) const;

  /// Barrier over an explicit lane set (sub-team synchronization).
  detail::SyncAwaiter SyncOn(Barrier* barrier) const {
    return detail::SyncAwaiter(barrier);
  }

  /// Host callback (the RPC hook): pays `latency` device cycles and runs
  /// `*fn` on the host at service time; resumes with fn's return value.
  ///
  /// `*fn` must be a named local of the calling coroutine (it must stay
  /// alive across the suspension):
  ///
  ///   std::function<std::uint64_t()> handler = [...] { ... };
  ///   auto reply = co_await ctx.HostCall(&handler, latency);
  detail::ExternalAwaiter HostCall(std::function<std::uint64_t()>* fn,
                                   std::uint64_t latency) const {
    return detail::ExternalAwaiter{fn, latency};
  }
};

}  // namespace dgc::sim
