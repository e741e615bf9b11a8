#include "apps/common.h"

#include <cstring>
#include <string_view>

#include "apps/amgmk.h"
#include "apps/pagerank.h"
#include "apps/rsbench.h"
#include "apps/xsbench.h"

namespace dgc::apps {

std::vector<std::string> ExtractArgs(int argc, dgcf::DeviceArgv argv) {
  std::vector<std::string> out;
  out.reserve(std::size_t(argc));
  for (int i = 0; i < argc; ++i) {
    out.push_back(dgcf::DeviceLibc::ToString(argv[i]));
  }
  return out;
}

std::vector<std::string> ExtractOptionArgs(int argc, dgcf::DeviceArgv argv) {
  std::vector<std::string> out;
  out.reserve(argc > 0 ? std::size_t(argc) - 1 : 0);
  for (int i = 1; i < argc; ++i) {
    out.push_back(dgcf::DeviceLibc::ToString(argv[i]));
  }
  return out;
}

std::uint64_t HashCombine(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

/// Content key for an app's shared read-only inputs
/// (DeviceLibc::AcquireSharedGroup): hashes the app tag plus every
/// data-determining parameter, so instances share storage iff they would
/// generate byte-identical inputs.
std::uint64_t SharedContentKey(std::string_view app,
                               const std::vector<std::uint64_t>& fields) {
  std::uint64_t h = kFnvOffset;
  for (const char c : app) h = HashCombine(h, std::uint64_t(std::uint8_t(c)));
  for (const std::uint64_t f : fields) h = HashCombine(h, f);
  return h;
}

void CopyInit(const AppArray& array, const sim::DeviceBuffer& buffer) {
  if (array.init != nullptr && array.bytes != 0) {
    std::memcpy(buffer.host, array.init, array.bytes);
  }
}

}  // namespace

sim::DeviceTask<AppArrays> AllocateAppArrays(
    dgcf::AppEnv& env, sim::ThreadCtx& ctx, const char* app,
    std::vector<std::uint64_t> key_fields, std::vector<AppArray> layout) {
  AppArrays out;
  out.buffers.resize(layout.size());
  for (const AppArray& a : layout) {
    if (!a.read_only) out.private_bytes += a.bytes;
  }
  const auto shared = [&](const AppArray& a) {
    return env.share_data && a.read_only;
  };

  if (env.share_data) {
    // Zero sizes stay in the group: a segment's key derives from its
    // ordinal there, and AcquireSharedGroup skips them.
    std::vector<std::uint64_t> sizes;
    for (const AppArray& a : layout) {
      if (a.read_only) sizes.push_back(a.bytes);
    }
    auto group = co_await env.libc->AcquireSharedGroup(
        ctx, SharedContentKey(app, key_fields), sizes, app);
    if (!group.ok) co_return AppArrays{};
    out.fill_inputs = group.first;
    std::size_t g = 0;
    for (std::size_t i = 0; i < layout.size(); ++i) {
      if (!layout[i].read_only) continue;
      out.buffers[i] = group.buffers[g++];
      // Fill now, before the private mallocs below can suspend: replicas
      // attaching meanwhile skip the fill, and must find the inputs in
      // place even if this instance then runs out of memory.
      if (out.fill_inputs) CopyInit(layout[i], out.buffers[i]);
    }
  }

  bool oom = false;
  for (std::size_t i = 0; i < layout.size(); ++i) {
    if (shared(layout[i]) || layout[i].bytes == 0) continue;
    out.buffers[i] = co_await env.libc->Malloc(ctx, layout[i].bytes);
    if (out.buffers[i].host == nullptr) oom = true;
  }
  if (oom) {
    co_await FreeAppArrays(env, ctx, out.buffers);
    co_return AppArrays{};
  }
  for (std::size_t i = 0; i < layout.size(); ++i) {
    if (!shared(layout[i])) CopyInit(layout[i], out.buffers[i]);
  }
  out.ok = true;
  co_return out;
}

sim::DeviceTask<void> FreeAppArrays(
    dgcf::AppEnv& env, sim::ThreadCtx& ctx,
    const std::vector<sim::DeviceBuffer>& buffers) {
  for (const sim::DeviceBuffer& b : buffers) {
    if (b.host != nullptr) co_await env.libc->Free(ctx, b.addr);
  }
}

void RegisterAllApps() {
  RegisterXsbench();
  RegisterRsbench();
  RegisterAmgmk();
  RegisterPagerank();
}

}  // namespace dgc::apps
