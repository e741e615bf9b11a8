// Application registry — the simulator-side equivalent of the direct GPU
// compilation user wrapper.
//
// In the real framework (paper §2.1/§2.2) every user source file is treated
// as device code and the user's `main` is canonicalized to
// `int main(int argc, char *argv[])` and renamed to `__user_main`; the
// framework's main wrapper is the new host entry point. Here, "compiling an
// app for the device" means registering its canonical entry point under a
// name; loaders look it up and invoke it on the device.
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "gpusim/address.h"
#include "gpusim/task.h"
#include "ompx/team.h"
#include "support/status.h"

namespace dgc::sim {
class Device;
}

namespace dgc::dgcf {

class DeviceLibc;
class RpcHost;

/// Device-side argv: an array of device string pointers (the loader's
/// StringCache holds the characters in device global memory).
using DeviceArgv = const sim::DevicePtr<char>*;

/// The framework facilities an app sees: the device it runs on, the host
/// RPC endpoint, and the partial device libc. One AppEnv is shared by every
/// instance of an ensemble (they contend for the same heap and RPC ring).
struct AppEnv {
  sim::Device* device = nullptr;
  RpcHost* rpc = nullptr;
  DeviceLibc* libc = nullptr;
  /// When true, apps place their initialized read-only inputs in
  /// content-keyed shared segments (DeviceLibc::AcquireSharedGroup) so
  /// identical instances map one physical copy. The bundled apps read it
  /// only through apps::AllocateAppArrays. Off by default: the duplicated
  /// layout is the paper's baseline.
  bool share_data = false;
};

/// The canonicalized `__user_main`: runs on the team's initial thread; uses
/// ompx::Parallel/ParallelFor for its parallel regions.
using UserMainFn = std::function<sim::DeviceTask<int>(
    AppEnv&, ompx::TeamCtx&, int argc, DeviceArgv argv)>;

/// Conventional exit codes mirroring errno usage in the proxy apps.
inline constexpr int kExitOk = 0;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitNoMem = 12;  // ENOMEM

struct AppInfo {
  std::string name;
  std::string description;
  UserMainFn user_main;
};

/// Process-wide registry of device-compiled applications. Lookups are safe
/// from concurrent sweep workers; registration normally happens at load
/// time / before any launch (an AppInfo pointer returned by Find stays
/// valid only until its name is re-registered).
class AppRegistry {
 public:
  static AppRegistry& Instance();

  /// Registers an app; re-registering a name replaces it (last wins, like
  /// relinking) and returns false.
  bool Register(AppInfo info);

  StatusOr<const AppInfo*> Find(const std::string& name) const;
  std::vector<std::string> Names() const;
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return apps_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, AppInfo> apps_;
};

/// Static-initialization helper for registration at load time:
///   DGC_REGISTER_APP(xsbench, "XSBench proxy", XsBenchUserMain);
#define DGC_REGISTER_APP(name, description, fn)                           \
  namespace {                                                             \
  const bool dgc_registered_##name = ::dgc::dgcf::AppRegistry::Instance() \
                                         .Register({#name, description, fn}); \
  }

}  // namespace dgc::dgcf
