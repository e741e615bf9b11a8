// Tests for the direct-GPU-compilation framework: app registry, host RPC,
// device libc, and argv marshalling. Loader runs are tested with the
// ensemble loader (tests/ensemble/loader_test.cpp).
#include <gtest/gtest.h>

#include "dgcf/app.h"
#include "dgcf/argv.h"
#include "dgcf/libc.h"
#include "dgcf/rpc.h"
#include "ompx/league.h"
#include "support/str.h"

namespace dgc::dgcf {
namespace {

using ompx::TeamCtx;
using sim::Device;
using sim::DeviceSpec;
using sim::DeviceTask;

struct Env {
  Device device{DeviceSpec::TestDevice()};
  RpcHost rpc{device};
  DeviceLibc libc{device};
  AppEnv app_env{&device, &rpc, &libc};
};

// A registry probe: the loader-level tests live with the ensemble loader.
DeviceTask<int> TestAppMain(AppEnv&, TeamCtx&, int, DeviceArgv) {
  co_return kExitOk;
}

DGC_REGISTER_APP(testapp, "registry probe app", TestAppMain)

TEST(AppRegistry, FindRegisteredApp) {
  auto app = AppRegistry::Instance().Find("testapp");
  ASSERT_TRUE(app.ok());
  EXPECT_EQ((*app)->name, "testapp");
  EXPECT_FALSE((*app)->description.empty());
}

TEST(AppRegistry, UnknownAppIsNotFound) {
  auto app = AppRegistry::Instance().Find("no-such-app");
  ASSERT_FALSE(app.ok());
  EXPECT_EQ(app.status().code(), ErrorCode::kNotFound);
}

TEST(AppRegistry, NamesListed) {
  auto names = AppRegistry::Instance().Names();
  EXPECT_NE(std::find(names.begin(), names.end(), "testapp"), names.end());
}

TEST(ArgvBlock, PaperFigure4Layout) {
  Env env;
  // The four command lines of Fig. 5b, with argv[0] prepended (Fig. 4).
  std::vector<std::vector<std::string>> args{
      {"user_app", "-a", "1", "-b", "-c", "data-1.bin"},
      {"user_app", "-a", "2", "-b", "-c", "data-2.bin"},
      {"user_app", "-a", "1", "-b", "-c", "data-3.bin"},
      {"user_app", "-a", "3", "-b", "-c", "data-4.bin"},
  };
  auto block = ArgvBlock::Build(env.device, args);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(block->instances(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(block->argc(i), 6);
    EXPECT_EQ(DeviceLibc::ToString(block->argv(i)[0]), "user_app");
    EXPECT_EQ(DeviceLibc::ToString(block->argv(i)[5]),
              StrFormat("data-%u.bin", i + 1));
    // Strings live in device memory.
    EXPECT_TRUE(env.device.memory().Contains(block->argv(i)[5].addr, 11));
  }
  EXPECT_GT(block->transfer_cycles(), 0u);
}

TEST(ArgvBlock, RejectsEmptyInstances) {
  Env env;
  EXPECT_FALSE(ArgvBlock::Build(env.device, {}).ok());
  EXPECT_FALSE(ArgvBlock::Build(env.device, {{}}).ok());
}

TEST(ArgvBlock, FreesCacheOnDestruction) {
  Env env;
  const auto before = env.device.memory().allocation_count();
  {
    auto block = ArgvBlock::Build(env.device, {{"a", "b"}});
    ASSERT_TRUE(block.ok());
    EXPECT_EQ(env.device.memory().allocation_count(), before + 1);
  }
  EXPECT_EQ(env.device.memory().allocation_count(), before);
}

TEST(RpcHost, PrintCollectsInServiceOrder) {
  Env env;
  ompx::TeamsConfig cfg{.num_teams = 1, .thread_limit = 1};
  auto result = ompx::LaunchTeams(
      env.device, cfg, [&](TeamCtx& team) -> DeviceTask<void> {
        co_await env.rpc.Print(*team.hw, "hello ");
        co_await env.rpc.Print(*team.hw, "world\n");
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(env.rpc.stdout_text(), "hello world\n");
  EXPECT_EQ(env.rpc.calls_serviced(), 2u);
  // Two round trips dominate this kernel's runtime.
  EXPECT_GE(result->stats.elapsed_cycles,
            2ull * env.device.spec().rpc_roundtrip_cycles);
}

TEST(RpcHost, FileReadIntoDeviceMemory) {
  Env env;
  env.rpc.AddTextFile("data.bin", "0123456789");
  auto buf = *env.device.Malloc(16);
  ompx::TeamsConfig cfg{.num_teams = 1, .thread_limit = 1};
  std::int64_t got_size = -2, got_read = -2, got_missing = -2;
  auto result = ompx::LaunchTeams(
      env.device, cfg, [&](TeamCtx& team) -> DeviceTask<void> {
        got_size = co_await env.rpc.FileSize(*team.hw, "data.bin");
        got_read = co_await env.rpc.ReadFile(
            *team.hw, "data.bin", buf.Typed<std::byte>(), 2, 4);
        got_missing = co_await env.rpc.FileSize(*team.hw, "nope.bin");
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(got_size, 10);
  EXPECT_EQ(got_read, 4);
  EXPECT_EQ(got_missing, -1);
  EXPECT_EQ(std::string(reinterpret_cast<char*>(buf.host), 4), "2345");
}

TEST(DeviceLibc, MallocFreeAccounting) {
  Env env;
  ompx::TeamsConfig cfg{.num_teams = 1, .thread_limit = 1};
  auto result = ompx::LaunchTeams(
      env.device, cfg, [&](TeamCtx& team) -> DeviceTask<void> {
        auto a = co_await env.libc.Malloc(*team.hw, 1024);
        auto b = co_await env.libc.Malloc(*team.hw, 2048);
        if (a.host == nullptr || b.host == nullptr) {
          throw std::runtime_error("unexpected OOM");
        }
        co_await env.libc.Free(*team.hw, a.addr);
        co_await env.libc.Free(*team.hw, b.addr);
        co_await env.libc.Free(*team.hw, 0);  // free(NULL) is a no-op
      });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok());
  EXPECT_EQ(env.libc.live_allocations(), 0u);
  EXPECT_EQ(env.libc.failed_allocations(), 0u);
}

TEST(DeviceLibc, MallocReturnsNullOnOom) {
  Env env;
  ompx::TeamsConfig cfg{.num_teams = 1, .thread_limit = 1};
  bool got_null = false;
  auto result = ompx::LaunchTeams(
      env.device, cfg, [&](TeamCtx& team) -> DeviceTask<void> {
        auto huge = co_await env.libc.Malloc(
            *team.hw, env.device.spec().global_memory_bytes * 2);
        got_null = huge.host == nullptr;
      });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(got_null);
  EXPECT_EQ(env.libc.failed_allocations(), 1u);
}

TEST(DeviceLibc, StringHelpers) {
  Env env;
  auto buf = *env.device.Malloc(32);
  char* s = reinterpret_cast<char*>(buf.host);
  std::strcpy(s, "-n");
  auto p = buf.Typed<char>();
  EXPECT_EQ(DeviceLibc::StrLen(p), 2u);
  EXPECT_EQ(DeviceLibc::StrCmp(p, "-n"), 0);
  EXPECT_LT(DeviceLibc::StrCmp(p, "-x"), 0);
  EXPECT_GT(DeviceLibc::StrCmp(p, "-a"), 0);
  EXPECT_EQ(DeviceLibc::ToString(p), "-n");
}

}  // namespace
}  // namespace dgc::dgcf

namespace dgc::dgcf {
namespace {

using ompx::TeamsConfig;

TEST(DeviceLibc, MemsetFillsExactRange) {
  Env env;
  auto buf = *env.device.Malloc(256);
  std::memset(buf.host, 0xEE, 256);
  TeamsConfig cfg{.num_teams = 1, .thread_limit = 1};
  auto result = ompx::LaunchTeams(
      env.device, cfg, [&](ompx::TeamCtx& team) -> sim::DeviceTask<void> {
        // 100 bytes starting at offset 3: straddles word boundaries.
        co_await DeviceLibc::Memset(*team.hw,
                                    buf.Typed<std::uint8_t>(3), 0xAB, 100);
      });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok());
  auto* bytes = reinterpret_cast<unsigned char*>(buf.host);
  EXPECT_EQ(bytes[2], 0xEE);
  for (int i = 3; i < 103; ++i) ASSERT_EQ(bytes[i], 0xAB) << i;
  EXPECT_EQ(bytes[103], 0xEE);
}

TEST(DeviceLibc, MemcpyCopiesAndCharges) {
  Env env;
  const std::uint64_t n = 1000;
  auto src = *env.device.Malloc(n);
  auto dst = *env.device.Malloc(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    src.host[i] = std::byte(i & 0xff);
    dst.host[i] = std::byte{0};
  }
  TeamsConfig cfg{.num_teams = 1, .thread_limit = 1};
  auto result = ompx::LaunchTeams(
      env.device, cfg, [&](ompx::TeamCtx& team) -> sim::DeviceTask<void> {
        co_await DeviceLibc::Memcpy(*team.hw, dst.Typed<std::uint8_t>(),
                                    src.Typed<std::uint8_t>(), n);
      });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok());
  EXPECT_EQ(std::memcmp(src.host, dst.host, n), 0);
  // Traffic was charged: ~2n bytes of sectors touched.
  EXPECT_GE(result->stats.global_sectors, 2 * n / 32);
}

TEST(RpcHost, WriteFileRoundTrip) {
  Env env;
  auto buf = *env.device.Malloc(16);
  std::memcpy(buf.host, "ensemble result!", 16);
  TeamsConfig cfg{.num_teams = 1, .thread_limit = 1};
  std::int64_t wrote = 0;
  auto result = ompx::LaunchTeams(
      env.device, cfg, [&](ompx::TeamCtx& team) -> sim::DeviceTask<void> {
        wrote = co_await env.rpc.WriteFile(
            *team.hw, "out.bin", buf.Typed<const std::byte>(), 16);
        // Second write appends.
        co_await env.rpc.WriteFile(*team.hw, "out.bin",
                                   buf.Typed<const std::byte>(), 8);
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(wrote, 16);
  const auto* file = env.rpc.GetFile("out.bin");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(file->size(), 24u);
  EXPECT_EQ(std::memcmp(file->data(), "ensemble result!", 16), 0);
  EXPECT_EQ(std::memcmp(file->data() + 16, "ensemble", 8), 0);
  EXPECT_EQ(env.rpc.GetFile("missing.bin"), nullptr);
}

}  // namespace
}  // namespace dgc::dgcf
