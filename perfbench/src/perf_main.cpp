// dgc-perf — the program the benchmark times (see perfbench/README.md).
//
// One process runs one phase of one workload and prints one JSON object as
// the last line of stdout:
//
//   dgc-perf ensemble --app A --args FILE --device D --memory-scale S
//                     --thread-limit T --share-data on|off
//       setup (app registration, argument-file parse, device + RPC host +
//       device libc construction), then one ensemble::RunEnsemble call.
//   dgc-perf serve --stream FILE --device D --memory-scale S
//                  --thread-limit T --jobs J --queue-cap Q --share-data on|off
//       setup (registration, job-stream parse, Scheduler::Init), then
//       EnqueueStream + Scheduler::Run.
//   dgc-perf-traced standalone --app A --args FILE | --stream FILE
//                  --device D --memory-scale S
//       the per-layer calls made outside any ensemble: host reference and
//       input generation per app, argv-block builds, and probe kernels.
//
// The measured phase is bracketed by spans, taken from this file around
// calls into the library's public functions. Only dgc-perf-traced counts
// allocations (alloc_count.cpp); the timed binary runs the plain allocator.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/amgmk.h"
#include "apps/common.h"
#include "apps/rsbench.h"
#include "apps/xsbench.h"
#include "dgcf/argv.h"
#include "dgcf/libc.h"
#include "dgcf/rpc.h"
#include "ensemble/argfile.h"
#include "ensemble/loader.h"
#include "gpusim/ctx.h"
#include "gpusim/device.h"
#include "ompx/league.h"
#include "serve/scheduler.h"
#include "serve/stream.h"
#include "support/json.h"
#include "support/str.h"

#ifdef DGC_PERF_TRACED
#include "alloc_count.h"
#endif

using namespace dgc;
using Clock = std::chrono::steady_clock;

namespace {

// Captured before any other static initializer of the program (priority
// 101 runs ahead of the default), so set-up time covers app registration
// objects too: "process start" as far as program code can see it.
struct ProcessStart {
  Clock::time_point at = Clock::now();
};
__attribute__((init_priority(101))) ProcessStart g_process_start;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Allocs {
  std::uint64_t calls = 0, bytes = 0;
};

Allocs AllocNow() {
#ifdef DGC_PERF_TRACED
  const perf::AllocTotals t = perf::AllocSnapshot();
  return {t.calls, t.bytes};
#else
  return {};
#endif
}

// --- Spans ------------------------------------------------------------------

/// In-memory span log: name, parent, start/end relative to process start,
/// and the allocations made inside. Written out once, at the end.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0, end_s = 0;
    Allocs allocs_begin, allocs;
  };

  int Begin(const std::string& name) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.allocs_begin = AllocNow();
    s.start_s = Seconds(g_process_start.at, Clock::now());
    spans_.push_back(s);
    open_.push_back(int(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    Span& s = spans_[std::size_t(id)];
    s.end_s = Seconds(g_process_start.at, Clock::now());
    const Allocs now = AllocNow();
    s.allocs = {now.calls - s.allocs_begin.calls,
                now.bytes - s.allocs_begin.bytes};
    open_.pop_back();
  }

  double Duration(int id) const {
    return spans_[std::size_t(id)].end_s - spans_[std::size_t(id)].start_s;
  }

  std::string Json() const {
    std::string out = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out += StrFormat(
          "%s{\"name\":\"%s\",\"parent\":%d,\"start_s\":%.9f,\"end_s\":%.9f,"
          "\"allocs\":%llu,\"alloc_bytes\":%llu}",
          i ? "," : "", JsonEscape(s.name).c_str(), s.parent, s.start_s,
          s.end_s, (unsigned long long)s.allocs.calls,
          (unsigned long long)s.allocs.bytes);
    }
    return out + "]";
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// --- Command line -------------------------------------------------------------

/// `--key value` pairs after the mode word.
std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) break;
    flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

std::string Flag(const std::map<std::string, std::string>& flags,
                 const std::string& key, const std::string& fallback = "") {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

std::uint32_t FlagU32(const std::map<std::string, std::string>& flags,
                      const std::string& key, std::uint32_t fallback) {
  auto v = ParseInt(Flag(flags, key, std::to_string(fallback)));
  return v.ok() && *v >= 0 ? std::uint32_t(*v) : fallback;
}

StatusOr<sim::DeviceSpec> PickDevice(const std::string& name,
                                     std::uint32_t memory_scale) {
  if (name == "a100") return sim::DeviceSpec::A100_40GB(memory_scale);
  if (name == "v100") return sim::DeviceSpec::V100_16GB(memory_scale);
  if (name == "test") return sim::DeviceSpec::TestDevice();
  return Status(ErrorCode::kInvalidArgument, "unknown device '" + name + "'");
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "dgc-perf: %s\n", message.c_str());
  return 2;
}

// --- Digests -------------------------------------------------------------------

std::uint64_t HashStats(std::uint64_t h, const sim::LaunchStats& s) {
  for (const std::uint64_t v :
       {s.warp_instructions, s.compute_instructions, s.load_instructions,
        s.store_instructions, s.atomic_instructions, s.external_calls,
        s.barrier_arrivals, s.divergent_replays, s.global_sectors,
        s.ideal_sectors, s.l1_hits, s.l1_misses, s.l2_hits, s.l2_misses,
        s.dram_bytes, s.dram_row_hits, s.dram_row_misses, s.smem_accesses,
        s.smem_bank_conflicts, s.dram_queue_cycles, s.l2_queue_cycles,
        s.barrier_stall_cycles, s.compute_cycles_issued, s.elapsed_cycles,
        s.blocks_launched, s.memcheck_findings, s.lane_traps,
        s.watchdog_traps}) {
    h = apps::HashCombine(h, v);
  }
  return h;
}

std::uint64_t HashText(std::uint64_t h, const std::string& text) {
  for (const char c : text) h = apps::HashCombine(h, std::uint8_t(c));
  return h;
}

std::string StatsJson(const sim::LaunchStats& s) {
  return StrFormat(
      "{\"warp_instructions\":%llu,\"load_instructions\":%llu,"
      "\"store_instructions\":%llu,\"atomic_instructions\":%llu,"
      "\"barrier_arrivals\":%llu,\"global_sectors\":%llu,"
      "\"l1_hits\":%llu,\"l1_misses\":%llu,\"l2_hits\":%llu,"
      "\"l2_misses\":%llu,\"dram_bytes\":%llu,\"dram_queue_cycles\":%llu}",
      (unsigned long long)s.warp_instructions,
      (unsigned long long)s.load_instructions,
      (unsigned long long)s.store_instructions,
      (unsigned long long)s.atomic_instructions,
      (unsigned long long)s.barrier_arrivals,
      (unsigned long long)s.global_sectors, (unsigned long long)s.l1_hits,
      (unsigned long long)s.l1_misses, (unsigned long long)s.l2_hits,
      (unsigned long long)s.l2_misses, (unsigned long long)s.dram_bytes,
      (unsigned long long)s.dram_queue_cycles);
}

// --- ensemble ------------------------------------------------------------------

int RunEnsembleMode(const std::map<std::string, std::string>& flags) {
  SpanLog spans;
  apps::RegisterAllApps();
  const std::string app = Flag(flags, "app");
  const int parse = spans.Begin("ensemble.parse");
  auto rows = ensemble::LoadArgumentFile(Flag(flags, "args"));
  spans.End(parse);
  if (!rows.ok()) return Fail(rows.status().ToString());
  auto spec = PickDevice(Flag(flags, "device", "a100"),
                         FlagU32(flags, "memory-scale", 512));
  if (!spec.ok()) return Fail(spec.status().ToString());

  const int init = spans.Begin("gpusim.device_init");
  sim::Device device(*spec);
  dgcf::RpcHost rpc(device);
  dgcf::DeviceLibc libc(device);
  spans.End(init);
  dgcf::AppEnv env{&device, &rpc, &libc};

  ensemble::EnsembleOptions options;
  options.app = app;
  options.instance_args = std::move(*rows);
  options.thread_limit = FlagU32(flags, "thread-limit", 1024);
  options.share_data = Flag(flags, "share-data", "off") == "on";
  const double setup_s = Seconds(g_process_start.at, Clock::now());

  const int run_span = spans.Begin("ensemble.run");
  auto run = ensemble::RunEnsemble(env, options);
  spans.End(run_span);
  if (!run.ok()) return Fail(run.status().ToString());

  std::uint64_t digest = apps::kFnvOffset;
  digest = apps::HashCombine(digest, run->kernel_cycles);
  digest = apps::HashCombine(digest, run->transfer_cycles);
  digest = apps::HashCombine(digest, run->waves);
  digest = HashStats(digest, run->stats);
  std::size_t verified = 0;
  for (const dgcf::InstanceResult& r : run->instances) {
    digest = apps::HashCombine(digest, std::uint64_t(r.exit_code));
    digest = apps::HashCombine(digest, r.completed);
    digest = apps::HashCombine(digest, std::uint64_t(r.reason));
    digest = apps::HashCombine(digest, r.cycles);
    if (r.completed && r.exit_code == 0) ++verified;
  }
  std::string failures = "[";
  for (std::size_t i = 0; i < run->failures.size() && i < 4; ++i) {
    failures += (i ? ",\"" : "\"") + JsonEscape(run->failures[i]) + "\"";
  }
  failures += "]";

  std::printf(
      "{\"mode\":\"ensemble\",\"operations\":%zu,\"verified\":%zu,"
      "\"setup_s\":%.9f,\"run_s\":%.9f,\"digest\":\"%016llx\","
      "\"kernel_cycles\":%llu,\"transfer_cycles\":%llu,"
      "\"dev_mem_peak_bytes\":%llu,\"stats\":%s,\"failures\":%s,"
      "\"spans\":%s}\n",
      run->instances.size(), verified, setup_s, spans.Duration(run_span),
      (unsigned long long)digest, (unsigned long long)run->kernel_cycles,
      (unsigned long long)run->transfer_cycles,
      (unsigned long long)run->device_mem.peak_bytes,
      StatsJson(run->stats).c_str(), failures.c_str(), spans.Json().c_str());
  return 0;
}

// --- serve ---------------------------------------------------------------------

int RunServeMode(const std::map<std::string, std::string>& flags) {
  SpanLog spans;
  apps::RegisterAllApps();
  const int parse = spans.Begin("serve.parse");
  auto requests = serve::LoadJobStream(Flag(flags, "stream"));
  spans.End(parse);
  if (!requests.ok()) return Fail(requests.status().ToString());
  auto spec = PickDevice(Flag(flags, "device", "test"),
                         FlagU32(flags, "memory-scale", 512));
  if (!spec.ok()) return Fail(spec.status().ToString());

  std::ostringstream log;
  serve::ServeConfig config;
  config.spec = *spec;
  config.thread_limit = FlagU32(flags, "thread-limit", 128);
  config.jobs = FlagU32(flags, "jobs", 1);
  config.queue_capacity = FlagU32(flags, "queue-cap", 16);
  config.share_data = Flag(flags, "share-data", "on") == "on";
  config.log = &log;
  serve::Scheduler scheduler(std::move(config));
  const int init = spans.Begin("gpusim.device_init");
  const Status init_status = scheduler.Init();
  spans.End(init);
  if (!init_status.ok()) return Fail(init_status.ToString());
  const double setup_s = Seconds(g_process_start.at, Clock::now());

  const int run_span = spans.Begin("serve.run");
  scheduler.EnqueueStream(*requests);
  const Status run_status = scheduler.Run();
  spans.End(run_span);
  if (!run_status.ok()) return Fail(run_status.ToString());
  const serve::ServeReport report = scheduler.WriteReport();

  std::vector<std::uint64_t> latencies;
  std::uint64_t launched_jobs = 0;
  for (const serve::JobRecord& r : scheduler.records()) {
    launched_jobs += r.attempts;
    if (r.outcome == serve::JobOutcome::kSucceeded) {
      latencies.push_back(r.finish_cycle - r.job.arrival);
    }
  }
  std::sort(latencies.begin(), latencies.end());
  auto quantile = [&](double q) -> std::uint64_t {
    if (latencies.empty()) return 0;
    return latencies[std::size_t(q * double(latencies.size() - 1) + 0.5)];
  };
  const std::uint64_t digest = HashText(apps::kFnvOffset, log.str());

  std::printf(
      "{\"mode\":\"serve\",\"operations\":%llu,\"verified\":%llu,"
      "\"setup_s\":%.9f,\"run_s\":%.9f,\"digest\":\"%016llx\","
      "\"launches\":%llu,\"launched_jobs\":%llu,\"rejected\":%llu,"
      "\"deadline_missed\":%llu,\"app_error\":%llu,\"failed\":%llu,"
      "\"cancelled\":%llu,\"latency_p50_cycles\":%llu,"
      "\"latency_p99_cycles\":%llu,\"spans\":%s}\n",
      (unsigned long long)report.submitted,
      (unsigned long long)report.succeeded, setup_s,
      spans.Duration(run_span), (unsigned long long)digest,
      (unsigned long long)report.launches, (unsigned long long)launched_jobs,
      (unsigned long long)(report.rejected_full + report.rejected_malformed +
                           report.rejected_quarantined +
                           report.rejected_draining),
      (unsigned long long)report.deadline_missed,
      (unsigned long long)report.app_error, (unsigned long long)report.failed,
      (unsigned long long)report.cancelled,
      (unsigned long long)quantile(0.50), (unsigned long long)quantile(0.99),
      spans.Json().c_str());
  return 0;
}

// --- standalone layer calls ------------------------------------------------------

struct Row {
  std::string app;
  std::vector<std::string> args;  ///< argv[1..]
};

/// Host reference (memoized process-wide by the apps) of one row.
StatusOr<std::uint64_t> HostReference(const Row& row) {
  if (row.app == "xsbench") {
    DGC_ASSIGN_OR_RETURN(auto p, apps::XsParams::Parse(row.args));
    return apps::XsHostReference(p);
  }
  if (row.app == "amgmk") {
    DGC_ASSIGN_OR_RETURN(auto p, apps::AmgParams::Parse(row.args));
    return apps::AmgHostReference(p);
  }
  if (row.app == "rsbench") {
    DGC_ASSIGN_OR_RETURN(auto p, apps::RsParams::Parse(row.args));
    return apps::RsHostReference(p);
  }
  return Status(ErrorCode::kInvalidArgument, "no host reference: " + row.app);
}

/// Generates one row's host input data and returns a size witness.
StatusOr<std::uint64_t> GenerateData(const Row& row) {
  if (row.app == "xsbench") {
    DGC_ASSIGN_OR_RETURN(auto p, apps::XsParams::Parse(row.args));
    return apps::GenerateXsData(p).nuclide_xs.size();
  }
  if (row.app == "amgmk") {
    DGC_ASSIGN_OR_RETURN(auto p, apps::AmgParams::Parse(row.args));
    return apps::GenerateAmgData(p).val.size();
  }
  if (row.app == "rsbench") {
    DGC_ASSIGN_OR_RETURN(auto p, apps::RsParams::Parse(row.args));
    return apps::GenerateRsData(p).poles.size();
  }
  return Status(ErrorCode::kInvalidArgument, "no generator: " + row.app);
}

/// Repeats `fn` until `min_reps` runs and `min_seconds` have passed; returns
/// the median duration of one run.
double MedianSeconds(const std::function<void()>& fn, int min_reps,
                     double min_seconds) {
  std::vector<double> d;
  const Clock::time_point start = Clock::now();
  while (int(d.size()) < min_reps ||
         Seconds(start, Clock::now()) < min_seconds) {
    const Clock::time_point t = Clock::now();
    fn();
    d.push_back(Seconds(t, Clock::now()));
  }
  std::sort(d.begin(), d.end());
  return d[d.size() / 2];
}

// --- probe kernels -----------------------------------------------------------

/// One probe's result: median host ns per warp instruction over repeated
/// launches, allocations per warp instruction, and the output check.
struct ProbeResult {
  double ns_per_winst = 0;
  double allocs_per_winst = 0;
  std::uint64_t warp_insts = 0;
  bool ok = true;
};

/// Launches `kernel` on `device` repeatedly (>= 5 launches and >= 0.15 s);
/// `check` validates device memory after each launch.
ProbeResult RunProbe(sim::Device& device, const sim::LaunchConfig& cfg,
                     const sim::KernelFn& kernel,
                     const std::function<bool()>& check) {
  ProbeResult out;
  std::vector<double> ns;
  const Clock::time_point start = Clock::now();
  while (ns.size() < 5 || Seconds(start, Clock::now()) < 0.15) {
    const Allocs a0 = AllocNow();
    const Clock::time_point t = Clock::now();
    auto r = device.Launch(cfg, kernel);
    const double s = Seconds(t, Clock::now());
    const Allocs a1 = AllocNow();
    if (!r.ok() || !r->ok() || r->stats.warp_instructions == 0 || !check()) {
      out.ok = false;
      return out;
    }
    out.warp_insts = r->stats.warp_instructions;
    out.allocs_per_winst =
        double(a1.calls - a0.calls) / double(out.warp_insts);
    ns.push_back(s * 1e9 / double(out.warp_insts));
  }
  std::sort(ns.begin(), ns.end());
  out.ns_per_winst = ns[ns.size() / 2];
  return out;
}

constexpr std::uint32_t kProbeBlocks = 8;
constexpr std::uint32_t kProbeWarp = 32;
constexpr std::uint32_t kProbeThreads = kProbeBlocks * kProbeWarp;
constexpr std::uint32_t kProbeIters = 256;

std::uint32_t GlobalThread(const sim::ThreadCtx& ctx) {
  return ctx.block_id * ctx.block_threads + ctx.thread_id;
}

std::uint64_t Mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

sim::DeviceTask<std::uint64_t> CallProbeStep(sim::ThreadCtx& ctx,
                                            std::uint64_t acc) {
  co_await ctx.Work(1);
  co_return acc + 1;
}

std::map<std::string, ProbeResult> RunProbes() {
  std::map<std::string, ProbeResult> out;
  sim::Device device(sim::DeviceSpec::TestDevice());
  const sim::LaunchConfig warps{.grid = {kProbeBlocks, 1, 1},
                                .block = {kProbeWarp, 1, 1},
                                .name = "probe"};
  auto flags_buf = *device.Malloc(kProbeThreads * sizeof(std::uint64_t));
  auto flags = flags_buf.Typed<std::uint64_t>();
  auto flags_all = [&](std::uint64_t want) {
    for (std::uint32_t i = 0; i < kProbeThreads; ++i) {
      if (flags[i] != want) return false;
    }
    return true;
  };

  // work: compute-only.
  out["work"] = RunProbe(
      device, warps,
      [&](sim::ThreadCtx& ctx) -> sim::DeviceTask<void> {
        for (std::uint32_t k = 0; k < kProbeIters; ++k) co_await ctx.Work(1);
        co_await ctx.Store(flags + GlobalThread(ctx), std::uint64_t(7));
      },
      [&] { return flags_all(7); });

  // stride: unit-stride loads and stores (the coalescer's fast path).
  const std::uint64_t n = std::uint64_t(kProbeThreads) * kProbeIters;
  auto in_buf = *device.Malloc(n * sizeof(double));
  auto out_buf = *device.Malloc(n * sizeof(double));
  auto in = in_buf.Typed<double>();
  auto res = out_buf.Typed<double>();
  for (std::uint64_t i = 0; i < n; ++i) in[std::ptrdiff_t(i)] = double(i);
  out["stride"] = RunProbe(
      device, warps,
      [&](sim::ThreadCtx& ctx) -> sim::DeviceTask<void> {
        for (std::uint32_t k = 0; k < kProbeIters; ++k) {
          const std::uint64_t i =
              std::uint64_t(k) * kProbeThreads + GlobalThread(ctx);
          const double v = co_await ctx.Load(in + i);
          co_await ctx.Store(res + i, v + 1.0);
        }
      },
      [&] {
        for (std::uint64_t i = 0; i < n; ++i) {
          if (res[std::ptrdiff_t(i)] != double(i) + 1.0) return false;
        }
        return true;
      });

  // scatter: random 8-byte gathers over a 4 MiB table.
  constexpr std::uint64_t kTable = std::uint64_t(1) << 19;
  auto table_buf = *device.Malloc(kTable * sizeof(std::uint64_t));
  auto table = table_buf.Typed<std::uint64_t>();
  for (std::uint64_t i = 0; i < kTable; ++i) table[std::ptrdiff_t(i)] = Mix(i);
  std::vector<std::uint64_t> want(kProbeThreads, 0);
  for (std::uint32_t g = 0; g < kProbeThreads; ++g) {
    for (std::uint32_t k = 0; k < kProbeIters; ++k) {
      want[g] += Mix(Mix(std::uint64_t(g) * kProbeIters + k) & (kTable - 1));
    }
  }
  out["scatter"] = RunProbe(
      device, warps,
      [&](sim::ThreadCtx& ctx) -> sim::DeviceTask<void> {
        const std::uint32_t g = GlobalThread(ctx);
        std::uint64_t sum = 0;
        for (std::uint32_t k = 0; k < kProbeIters; ++k) {
          const std::uint64_t idx =
              Mix(std::uint64_t(g) * kProbeIters + k) & (kTable - 1);
          sum += co_await ctx.Load(table + idx);
        }
        co_await ctx.Store(flags + g, sum);
      },
      [&] {
        for (std::uint32_t g = 0; g < kProbeThreads; ++g) {
          if (flags[g] != want[g]) return false;
        }
        return true;
      });

  // call: every operation inside a nested DeviceTask helper.
  out["call"] = RunProbe(
      device, warps,
      [&](sim::ThreadCtx& ctx) -> sim::DeviceTask<void> {
        std::uint64_t acc = 0;
        for (std::uint32_t k = 0; k < kProbeIters; ++k) {
          acc = co_await CallProbeStep(ctx, acc);
        }
        co_await ctx.Store(flags + GlobalThread(ctx), acc);
      },
      [&] { return flags_all(kProbeIters); });

  // barrier: four-warp blocks in a SyncThreads loop.
  const sim::LaunchConfig blocks{.grid = {kProbeBlocks / 4, 1, 1},
                                 .block = {kProbeWarp * 4, 1, 1},
                                 .name = "probe-barrier"};
  out["barrier"] = RunProbe(
      device, blocks,
      [&](sim::ThreadCtx& ctx) -> sim::DeviceTask<void> {
        for (std::uint32_t k = 0; k < kProbeIters; ++k) {
          co_await ctx.SyncThreads();
        }
        co_await ctx.Store(flags + GlobalThread(ctx), std::uint64_t(9));
      },
      [&] { return flags_all(9); });
  return out;
}

/// ompx::ParallelFor with a body that does no device work: per-iteration
/// host cost and allocations of the parallel-for machinery itself.
struct PforProbe {
  double ns_per_iter = 0;
  double allocs_per_iter = 0;
  bool ok = true;
};

PforProbe RunPforProbe() {
  PforProbe out;
  sim::Device device(sim::DeviceSpec::TestDevice());
  constexpr std::uint32_t kTeams = 8;
  constexpr std::uint64_t kTrip = 4096;
  std::uint64_t visits = 0;  // the simulation runs on this thread
  std::vector<double> ns;
  const Clock::time_point start = Clock::now();
  while (ns.size() < 5 || Seconds(start, Clock::now()) < 0.15) {
    visits = 0;
    const Allocs a0 = AllocNow();
    const Clock::time_point t = Clock::now();
    auto r = ompx::LaunchTeams(
        device, {.num_teams = kTeams, .thread_limit = kProbeWarp},
        [&](ompx::TeamCtx& team) -> sim::DeviceTask<void> {
          co_await ompx::ParallelFor(
              team, kTrip,
              [&](sim::ThreadCtx&, std::uint64_t) -> sim::DeviceTask<void> {
                ++visits;
                co_return;
              });
        });
    const double s = Seconds(t, Clock::now());
    const Allocs a1 = AllocNow();
    if (!r.ok() || !r->ok() || visits != kTeams * kTrip) {
      out.ok = false;
      return out;
    }
    const double iters = double(kTeams * kTrip);
    out.allocs_per_iter = double(a1.calls - a0.calls) / iters;
    ns.push_back(s * 1e9 / iters);
  }
  std::sort(ns.begin(), ns.end());
  out.ns_per_iter = ns[ns.size() / 2];
  return out;
}

int RunStandaloneMode(const std::map<std::string, std::string>& flags) {
#ifndef DGC_PERF_TRACED
  (void)flags;
  return Fail("standalone mode needs the traced binary (dgc-perf-traced)");
#else
  apps::RegisterAllApps();
  std::vector<Row> rows;
  if (!Flag(flags, "stream").empty()) {
    auto requests = serve::LoadJobStream(Flag(flags, "stream"));
    if (!requests.ok()) return Fail(requests.status().ToString());
    for (const serve::JobRequest& r : *requests) rows.push_back({r.app, r.args});
  } else {
    auto lines = ensemble::LoadArgumentFile(Flag(flags, "args"));
    if (!lines.ok()) return Fail(lines.status().ToString());
    for (auto& args : *lines) rows.push_back({Flag(flags, "app"), args});
  }
  auto spec = PickDevice(Flag(flags, "device", "a100"),
                         FlagU32(flags, "memory-scale", 512));
  if (!spec.ok()) return Fail(spec.status().ToString());

  // Host references first, once per distinct input, while the process-wide
  // memo is still cold (as it is for every dgc-run user).
  std::set<std::string> seen;
  std::uint64_t ref_digest = apps::kFnvOffset;
  Clock::time_point t = Clock::now();
  for (const Row& row : rows) {
    if (!seen.insert(row.app + " " + Join(row.args, " ")).second) continue;
    auto ref = HostReference(row);
    if (!ref.ok()) return Fail(ref.status().ToString());
    ref_digest = apps::HashCombine(ref_digest, *ref);
  }
  const double ref_s = Seconds(t, Clock::now());

  // Input generation for every instance, as each instance's main does.
  const Allocs g0 = AllocNow();
  t = Clock::now();
  std::uint64_t gen_witness = 0;
  for (const Row& row : rows) {
    auto n = GenerateData(row);
    if (!n.ok()) return Fail(n.status().ToString());
    gen_witness += *n;
  }
  const double gen_s = Seconds(t, Clock::now());
  const Allocs g1 = AllocNow();

  // The argv block of all rows (argv[0] = app name), on a fresh device.
  sim::Device device(*spec);
  std::vector<std::vector<std::string>> argvs;
  for (const Row& row : rows) {
    std::vector<std::string> argv{row.app};
    argv.insert(argv.end(), row.args.begin(), row.args.end());
    argvs.push_back(std::move(argv));
  }
  bool argv_ok = true;
  const double argv_s = MedianSeconds(
      [&] {
        auto block = dgcf::ArgvBlock::Build(device, argvs);
        if (!block.ok() || block->instances() != argvs.size()) argv_ok = false;
      },
      5, 0.05);

  const std::map<std::string, ProbeResult> probes = RunProbes();
  const PforProbe pfor = RunPforProbe();
  bool probes_ok = argv_ok && pfor.ok && gen_witness != 0;
  std::string probe_json;
  for (const auto& [name, p] : probes) {
    probes_ok = probes_ok && p.ok;
    probe_json += StrFormat(
        "%s\"%s\":{\"ns_per_winst\":%.6f,\"allocs_per_winst\":%.6f,"
        "\"warp_insts\":%llu}",
        probe_json.empty() ? "" : ",", name.c_str(), p.ns_per_winst,
        p.allocs_per_winst, (unsigned long long)p.warp_insts);
  }
  std::printf(
      "{\"mode\":\"standalone\",\"ok\":%s,\"distinct_inputs\":%zu,"
      "\"ref_s\":%.9f,\"ref_digest\":\"%016llx\",\"gen_s\":%.9f,"
      "\"gen_bytes\":%llu,\"argv_build_s\":%.9f,\"probes\":{%s},"
      "\"pfor\":{\"ns_per_iter\":%.6f,\"allocs_per_iter\":%.6f}}\n",
      probes_ok ? "true" : "false", seen.size(), ref_s,
      (unsigned long long)ref_digest, gen_s,
      (unsigned long long)(g1.bytes - g0.bytes), argv_s, probe_json.c_str(),
      pfor.ns_per_iter, pfor.allocs_per_iter);
  return probes_ok ? 0 : 1;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: dgc-perf ensemble|serve|standalone --flag value...\n");
    return 2;
  }
  const std::string mode = argv[1];
  const auto flags = ParseFlags(argc, argv);
  if (mode == "ensemble") return RunEnsembleMode(flags);
  if (mode == "serve") return RunServeMode(flags);
  if (mode == "standalone") return RunStandaloneMode(flags);
  return Fail("unknown mode '" + mode + "'");
}
