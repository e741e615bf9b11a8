// The --metrics-json document (ensemble/metrics.h): validity, determinism,
// escaping, and a golden-file lock on the dgc-metrics-v1 schema shape.
#include "ensemble/metrics.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "dgcf/libc.h"
#include "dgcf/rpc.h"
#include "ensemble/loader.h"
#include "gpusim/device.h"
#include "gpusim/profiler.h"
#include "ompx/team.h"
#include "support/json.h"
#include "support/str.h"

namespace dgc::ensemble {
namespace {

using dgcf::AppEnv;
using dgcf::DeviceArgv;
using dgcf::DeviceLibc;
using ompx::TeamCtx;
using sim::Device;
using sim::DeviceSpec;
using sim::DeviceTask;
using sim::ThreadCtx;

struct Env {
  Device device{DeviceSpec::TestDevice()};
  dgcf::RpcHost rpc{device};
  DeviceLibc libc{device};
  AppEnv app_env{&device, &rpc, &libc};
};

// Small deterministic app with memory traffic and a parallel region, so
// every counter family in the document is exercised.
DeviceTask<int> MetricsProbeMain(AppEnv& env, TeamCtx& team, int argc,
                                 DeviceArgv argv) {
  std::uint64_t size = 64;
  if (argc > 1) {
    size = std::uint64_t(
        std::strtoll(DeviceLibc::ToString(argv[1]).c_str(), nullptr, 10));
  }
  auto buf = co_await env.libc->Malloc(*team.hw, size * sizeof(std::uint64_t));
  if (buf.host == nullptr) co_return dgcf::kExitNoMem;
  auto p = buf.Typed<std::uint64_t>();
  co_await ompx::ParallelFor(
      team, size, [&](ThreadCtx& ctx, std::uint64_t i) -> DeviceTask<void> {
        co_await ctx.Store(p + i, i);
        co_await ctx.Work(8);
      });
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < size; ++i) {
    sum += co_await team.hw->Load(p + i);
  }
  co_await env.libc->Free(*team.hw, buf.addr);
  co_return sum == size * (size - 1) / 2 ? 0 : 9;
}

DGC_REGISTER_APP(metrics_probe, "metrics export probe", MetricsProbeMain)

struct ProfiledRun {
  dgcf::RunResult run;
  sim::Profiler profiler{sim::Profiler::Options{.sample_interval = 64}};
};

ProfiledRun RunProbe(std::uint32_t instances) {
  Env env;
  EnsembleOptions opt;
  opt.app = "metrics_probe";
  for (std::uint32_t i = 0; i < instances; ++i) {
    opt.instance_args.push_back({StrFormat("%u", 64 + 8 * i)});
  }
  opt.thread_limit = 32;
  ProfiledRun out;
  opt.profiler = &out.profiler;
  auto run = RunEnsemble(env.app_env, opt);
  DGC_CHECK(run.ok());
  out.run = std::move(*run);
  return out;
}

TEST(Metrics, DocumentIsValidJson) {
  ProfiledRun pr = RunProbe(2);
  const std::string json = FormatMetricsJson(pr.run, &pr.profiler);
  const Status valid = JsonValidate(json);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_NE(json.find("\"schema\": \"dgc-metrics-v1\""), std::string::npos);
}

TEST(Metrics, UnprofiledDocumentDegradesAndStaysValid) {
  ProfiledRun pr = RunProbe(1);
  const std::string json = FormatMetricsJson(pr.run, nullptr);
  EXPECT_TRUE(JsonValidate(json).ok());
  EXPECT_NE(json.find("\"timeline\": null"), std::string::npos);
}

TEST(Metrics, IdenticalRunsSerializeByteIdentically) {
  // The sweep contract: the sidecar for a point must not depend on when or
  // where the point ran, only on its configuration.
  ProfiledRun a = RunProbe(2);
  ProfiledRun b = RunProbe(2);
  EXPECT_EQ(FormatMetricsJson(a.run, &a.profiler),
            FormatMetricsJson(b.run, &b.profiler));
}

TEST(Metrics, HeaderStringsAreEscaped) {
  ProfiledRun pr = RunProbe(1);
  pr.run.app = "weird \"name\"\nwith\\controls";
  const std::string json = FormatMetricsJson(pr.run, &pr.profiler);
  const Status valid = JsonValidate(json);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_NE(json.find("weird \\\"name\\\"\\nwith\\\\controls"),
            std::string::npos);
}

TEST(Metrics, PerInstanceSectionMatchesAttribution) {
  ProfiledRun pr = RunProbe(3);
  ASSERT_EQ(pr.run.instances.size(), 3u);
  const std::string json = FormatMetricsJson(pr.run, &pr.profiler);
  // Instance 1's serialized elapsed_cycles is its attributed counter, not
  // the launch-global one.
  const std::string expect = StrFormat(
      "\"instance\": 1,\n      \"completed\": true,\n      \"exit_code\": 0,\n"
      "      \"reason\": \"returned\",\n      \"attempts\": 1,\n"
      "      \"mem_peak_bytes\": %llu,\n      \"mem_allocations\": %llu,\n"
      "      \"elapsed_cycles\": %llu,",
      (unsigned long long)pr.run.instances[1].mem_peak_bytes,
      (unsigned long long)pr.run.instances[1].mem_allocations,
      (unsigned long long)pr.run.instances[1].stats.elapsed_cycles);
  EXPECT_NE(json.find(expect), std::string::npos) << json.substr(0, 2000);
}

// --- Golden schema test ----------------------------------------------------
//
// Locks the document SHAPE (keys, nesting, field order), not the values:
// numbers become '#', booleans '?', and the per_instance/samples arrays are
// collapsed to their first element. Regenerate after an intentional schema
// change with: DGC_REGEN_GOLDEN=1 ./test_ensemble --gtest_filter='*Golden*'

/// Replaces every number token outside strings with '#' and booleans
/// with '?'. null is kept: it is schema-relevant (degraded sections).
std::string NormalizeScalars(const std::string& json) {
  std::string out;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      out += c;
      if (c == '\\' && i + 1 < json.size()) out += json[++i];
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') {
      in_string = true;
      out += c;
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      while (i + 1 < json.size() &&
             (std::isdigit((unsigned char)json[i + 1]) || json[i + 1] == '.' ||
              json[i + 1] == 'e' || json[i + 1] == 'E' || json[i + 1] == '+' ||
              json[i + 1] == '-')) {
        ++i;
      }
      out += '#';
    } else if (json.compare(i, 4, "true") == 0) {
      out += '?';
      i += 3;
    } else if (json.compare(i, 5, "false") == 0) {
      out += '?';
      i += 4;
    } else {
      out += c;
    }
  }
  return out;
}

/// Collapses the array value of `key` to its first element (the schema of
/// element N is the schema of element 0).
std::string CollapseArray(const std::string& json, const std::string& key) {
  const std::size_t open = json.find("\"" + key + "\": [");
  if (open == std::string::npos) return json;
  const std::size_t start = json.find('[', open);
  int depth = 0;
  std::size_t first_end = std::string::npos, close = std::string::npos;
  for (std::size_t i = start; i < json.size(); ++i) {
    if (json[i] == '[' || json[i] == '{') ++depth;
    if (json[i] == ']' || json[i] == '}') {
      --depth;
      if (depth == 1 && first_end == std::string::npos) first_end = i + 1;
      if (depth == 0) {
        close = i;
        break;
      }
    }
  }
  if (close == std::string::npos || first_end == std::string::npos) {
    return json;
  }
  return json.substr(0, first_end) + "\n  ]" + json.substr(close + 1);
}

TEST(Metrics, GoldenSchemaShape) {
  ProfiledRun pr = RunProbe(2);
  pr.run.device = "TEST";  // the device name the golden was recorded with
  const std::string json = FormatMetricsJson(pr.run, &pr.profiler);
  std::string normalized = NormalizeScalars(json);
  normalized = CollapseArray(normalized, "per_instance");
  normalized = CollapseArray(normalized, "samples");

  const std::string path =
      std::string(DGC_TESTDATA_DIR) + "/metrics_schema.golden";
  if (std::getenv("DGC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(bool(out)) << "cannot write " << path;
    out << normalized;
    GTEST_SKIP() << "golden regenerated: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(bool(in)) << "missing golden file " << path
                        << " (regenerate with DGC_REGEN_GOLDEN=1)";
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(normalized, golden.str())
      << "dgc-metrics-v1 schema shape changed; if intentional, bump the "
         "schema version and regenerate with DGC_REGEN_GOLDEN=1";
}

}  // namespace
}  // namespace dgc::ensemble
