// Shared helpers for the device-compiled mini-apps.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "dgcf/app.h"
#include "dgcf/libc.h"
#include "gpusim/ctx.h"
#include "gpusim/task.h"
#include "support/status.h"

namespace dgc::apps {

/// Copies a device argv into host strings (an untimed setup path; see
/// dgcf/libc.h). Includes argv[0].
std::vector<std::string> ExtractArgs(int argc, dgcf::DeviceArgv argv);

/// Like ExtractArgs but without argv[0] — the form ArgParser expects.
std::vector<std::string> ExtractOptionArgs(int argc, dgcf::DeviceArgv argv);

/// FNV-1a, used for the apps' verification checksums — matching the proxy
/// apps' habit of printing a verification hash of all results.
std::uint64_t HashCombine(std::uint64_t h, std::uint64_t v);
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// One device array an app requests at startup.
struct AppArray {
  std::uint64_t bytes = 0;
  /// Input the device code never writes: with sharing on it lives in a
  /// content-keyed shared segment, one physical copy per identical input.
  bool read_only = false;
  /// Host bytes copied in as untimed setup, or null for no initial value.
  const void* init = nullptr;
};

/// A read-only input initialized from `host`.
template <typename T>
AppArray ReadOnlyArray(const std::vector<T>& host) {
  return {host.size() * sizeof(T), true, host.data()};
}

/// A per-instance array initialized from `host`.
template <typename T>
AppArray PrivateArray(const std::vector<T>& host) {
  return {host.size() * sizeof(T), false, host.data()};
}

/// A per-instance array of `count` uninitialized elements.
template <typename T>
AppArray PrivateArray(std::uint64_t count) {
  return {count * sizeof(T), false, nullptr};
}

struct AppArrays {
  /// One buffer per requested array, in request order (null for zero
  /// sizes); empty when !ok.
  std::vector<sim::DeviceBuffer> buffers;
  /// True unless this instance attached to shared inputs another instance
  /// already materialized — i.e. whether it paid for filling its inputs.
  bool fill_inputs = true;
  /// Bytes of the arrays that are never shared.
  std::uint64_t private_bytes = 0;
  /// False on out of memory; nothing is held then.
  bool ok = false;
};

/// The apps' startup allocation — the one place that takes the
/// `AppEnv::share_data` decision. `layout` lists the instance's arrays in
/// request order; `key_fields` are every parameter that determines the
/// read-only inputs' contents.
///
/// With sharing on, the read-only arrays are acquired as one shared group
/// keyed on `app` and `key_fields`; when this instance materializes the
/// group it copies their `init` bytes at once, before anything can suspend,
/// so a replica that attaches while this instance is still allocating
/// always finds its inputs filled. The private arrays are then malloc'd in
/// request order. With sharing off every array is malloc'd in request
/// order. Zero-size arrays are never allocated. After any failed malloc the
/// remaining arrays are still requested (the allocation sequence does not
/// depend on which one failed), then everything held is freed in request
/// order. Every `init` array not filled through the group is copied once
/// all allocations succeed. All copies are untimed setup; the app charges
/// its fill as bulk work.
///
/// Create the task in a statement of its own and co_await it in the next:
/// GCC 12 fails to compile braced-list arguments inside some co_await
/// expressions ("array used as initializer").
sim::DeviceTask<AppArrays> AllocateAppArrays(
    dgcf::AppEnv& env, sim::ThreadCtx& ctx, const char* app,
    std::vector<std::uint64_t> key_fields, std::vector<AppArray> layout);

/// Frees every non-null buffer, in order.
sim::DeviceTask<void> FreeAppArrays(
    dgcf::AppEnv& env, sim::ThreadCtx& ctx,
    const std::vector<sim::DeviceBuffer>& buffers);

/// The apps' sequential verification epilogue: reads `n` results at `ptr`
/// in pipelined runs of up to kMaxGather and folds them into `seed` with
/// `fold(h, value)`.
template <typename T, typename Fold>
sim::DeviceTask<std::uint64_t> FoldResults(sim::ThreadCtx& ctx,
                                           sim::DevicePtr<T> ptr,
                                           std::uint64_t n, std::uint64_t seed,
                                           Fold fold) {
  std::uint64_t h = seed;
  for (std::uint64_t i = 0; i < n; i += sim::detail::kMaxGather) {
    const std::uint32_t chunk = std::uint32_t(
        std::min<std::uint64_t>(n - i, sim::detail::kMaxGather));
    auto results = ctx.LoadRun(ptr + std::ptrdiff_t(i), chunk);
    co_await results;
    for (std::uint32_t j = 0; j < chunk; ++j) h = fold(h, results.Result(j));
  }
  co_return h;
}

/// Memo for an app's host reference: the ensemble harness re-verifies many
/// instances against the same handful of parameter sets. `Key` must
/// identify the reference's inputs exactly. Guarded: concurrent sweep
/// points verify against the cache; a miss computes outside the lock
/// (worst case two workers duplicate the same deterministic value).
template <typename Key>
class ReferenceMemo {
 public:
  template <typename Compute>
  std::uint64_t Get(const Key& key, Compute compute) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (auto it = memo_.find(key); it != memo_.end()) return it->second;
    }
    const std::uint64_t value = compute();
    std::lock_guard<std::mutex> lock(mutex_);
    memo_.emplace(key, value);
    return value;
  }

 private:
  std::mutex mutex_;
  std::map<Key, std::uint64_t> memo_;
};

/// Registers every bundled application with the AppRegistry. Idempotent.
/// Call from tests/benches/examples before using app names — static
/// registration alone can be dropped by the linker for static libraries.
void RegisterAllApps();

}  // namespace dgc::apps
