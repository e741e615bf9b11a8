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

template <typename T>
struct GatherAwaiter {
  static_assert(sizeof(T) <= 8 && std::is_trivially_copyable_v<T>);

  BatchSlot slots[kMaxGather];
  std::uint32_t count = 0;
  Lane* lane = nullptr;

  GatherAwaiter() = default;

  /// Appends one element; silently ignored beyond kMaxGather (callers
  /// chunk; Full() lets them check).
  void Add(DevicePtr<T> p) {
    if (count >= kMaxGather) return;
    slots[count++] = BatchSlot{p.addr, p.host, 0, sizeof(T)};
  }
  bool Full() const { return count >= kMaxGather; }

  bool await_ready() const noexcept { return count == 0; }
  void await_suspend(std::coroutine_handle<> h) {
    lane = CurrentLane();
    lane->pending = DeviceOp{};
    lane->pending.kind = DeviceOp::Kind::kLoadBatch;
    lane->pending.batch = slots;
    lane->pending.batch_count = count;
    lane->top = h;
  }
  void await_resume() const { RaisePendingTrap(); }

  /// The i-th loaded value, valid after the co_await completes.
  T Result(std::uint32_t i) const { return FromBits<T>(slots[i].result); }
};

/// Pipelined batch store — the write-side counterpart of GatherAwaiter.
/// Values are staged in the slots at Add time and written at issue.
template <typename T>
struct ScatterAwaiter {
  static_assert(sizeof(T) <= 8 && std::is_trivially_copyable_v<T>);

  BatchSlot slots[kMaxGather];
  std::uint32_t count = 0;

  void Add(DevicePtr<T> p, T value) {
    if (count >= kMaxGather) return;
    slots[count++] = BatchSlot{p.addr, p.host, ToBits(value), sizeof(T)};
  }
  bool Full() const { return count >= kMaxGather; }

  bool await_ready() const noexcept { return count == 0; }
  void await_suspend(std::coroutine_handle<> h) {
    Lane* lane = CurrentLane();
    lane->pending = DeviceOp{};
    lane->pending.kind = DeviceOp::Kind::kStoreBatch;
    lane->pending.batch = slots;
    lane->pending.batch_count = count;
    lane->top = h;
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
static_assert(std::is_trivially_destructible_v<ScatterAwaiter<double>>);
static_assert(std::is_trivially_destructible_v<StoreAwaiter<double>>);
static_assert(std::is_trivially_destructible_v<AtomicAwaiter<double>>);

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
  template <typename T>
  detail::GatherAwaiter<T> Gather() const {
    return {};
  }

  /// Gather of `count` consecutive elements starting at `p` (a streaming
  /// run). count must be ≤ kMaxGather.
  template <typename T>
  detail::GatherAwaiter<T> LoadRun(DevicePtr<T> p, std::uint32_t count) const {
    detail::GatherAwaiter<T> g;
    for (std::uint32_t i = 0; i < count; ++i) g.Add(p + i);
    return g;
  }

  /// Empty scatter (pipelined independent stores) to fill with Add():
  ///   auto s = ctx.Scatter<double>();
  ///   for (...) s.Add(out + i, value[i]);
  ///   co_await s;
  template <typename T>
  detail::ScatterAwaiter<T> Scatter() const {
    return {};
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
