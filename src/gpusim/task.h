// DeviceTask — the coroutine type for simulated device code.
//
// Device functions return DeviceTask<T>. Nested calls use symmetric
// transfer: `co_await Callee(ctx, ...)` starts the callee, and when the
// callee (or anything it awaits) suspends on a timed operation, control
// returns all the way to the warp scheduler, which resumes the *innermost*
// coroutine on the lane's next turn via Lane::top.
//
// Tasks are lazily started and exception-transparent: an exception thrown
// inside device code is captured in the promise and rethrown at the
// awaiting site, or surfaced as a lane failure at the root.
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

#include "gpusim/lane.h"
#include "support/status.h"

namespace dgc::sim {

/// Shared state of every device-coroutine promise.
struct PromiseCore {
  std::coroutine_handle<> continuation;
  std::exception_ptr error;
};

namespace detail {

/// Final awaiter: unwind to the continuation (the awaiting caller) via
/// symmetric transfer, or mark the lane's root coroutine finished.
struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }

  template <typename Promise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) const noexcept {
    PromiseCore& core = h.promise();
    Lane* lane = CurrentLane();
    if (core.continuation) {
      lane->top = core.continuation;
      return core.continuation;
    }
    lane->MarkRootFinished();
    return std::noop_coroutine();
  }

  void await_resume() const noexcept {}
};

/// How a promise takes the coroutine's result: `co_return v` stores it for
/// the awaiting caller; DeviceTask<void> has nothing to store.
template <typename T>
struct PromiseReturn : PromiseCore {
  T value{};
  void return_value(T v) { value = std::move(v); }
  T TakeValue() { return std::move(value); }
};

template <>
struct PromiseReturn<void> : PromiseCore {
  void return_void() {}
  void TakeValue() {}
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] DeviceTask {
 public:
  struct promise_type : detail::PromiseReturn<T> {
    DeviceTask get_return_object() {
      return DeviceTask(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    detail::FinalAwaiter final_suspend() noexcept { return {}; }
    void unhandled_exception() { this->error = std::current_exception(); }
  };

  using Handle = std::coroutine_handle<promise_type>;

  DeviceTask() = default;
  explicit DeviceTask(Handle h) : h_(h) {}
  DeviceTask(DeviceTask&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  DeviceTask& operator=(DeviceTask&& o) noexcept {
    if (this != &o) {
      if (h_) h_.destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  DeviceTask(const DeviceTask&) = delete;
  DeviceTask& operator=(const DeviceTask&) = delete;
  ~DeviceTask() {
    if (h_) h_.destroy();
  }

  /// Transfers frame ownership to the caller (used by Lane for roots).
  Handle Release() { return std::exchange(h_, {}); }
  Handle raw() const { return h_; }

  // --- Awaiting a child task -----------------------------------------------
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
    DGC_CHECK(h_ && !h_.done());
    h_.promise().continuation = parent;
    CurrentLane()->top = h_;
    return h_;  // symmetric transfer: start the child now
  }
  T await_resume() {
    if (h_.promise().error) std::rethrow_exception(h_.promise().error);
    return h_.promise().TakeValue();
  }

 private:
  Handle h_;
};

}  // namespace dgc::sim
