#include "ensemble/loader.h"

#include <fstream>
#include <numeric>
#include <sstream>

#include "dgcf/argv.h"
#include "dgcf/libc.h"
#include "dgcf/rpc.h"
#include "ensemble/argfile.h"
#include "ensemble/argscript.h"
#include "gpusim/device.h"
#include "gpusim/trace.h"
#include "ompx/league.h"
#include "support/argparse.h"
#include "support/str.h"

namespace dgc::ensemble {

namespace {

/// Each retry wave divides the team cap by this factor (floor 1 team).
constexpr std::uint32_t kRetryShrink = 2;

/// True when the team is back in its pristine state after a contained trap:
/// every worker alive and parked at the team barrier, no parallel region in
/// flight. Only then can the team safely pick up another instance — a trap
/// that killed workers or unwound rank 0 out of a parallel region leaves
/// the worker state machine desynchronized.
bool TeamIntact(const ompx::TeamCtx& team) {
  if (team.team_size == 1) return true;
  return team.barrier->expected() == team.team_size &&
         team.state->phase == ompx::TeamState::Phase::kIdle;
}

}  // namespace

StatusOr<dgcf::RunResult> RunEnsemble(dgcf::AppEnv& env,
                                      const EnsembleOptions& options) {
  DGC_CHECK(env.device != nullptr);
  DGC_ASSIGN_OR_RETURN(const dgcf::AppInfo* app,
                       dgcf::AppRegistry::Instance().Find(options.app));
  if (options.instance_args.empty()) {
    return Status(ErrorCode::kInvalidArgument, "no instance argument lines");
  }
  // Validate library-caller options up front (the CLI front end performs the
  // same checks on its raw flags); a zero would otherwise reach the launch
  // path and fail with a message that names no EnsembleOptions field.
  if (options.thread_limit == 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "EnsembleOptions::thread_limit must be positive");
  }
  if (options.teams_per_block == 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "EnsembleOptions::teams_per_block must be positive");
  }
  if (options.max_attempts == 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "EnsembleOptions::max_attempts must be positive");
  }
  const std::uint32_t available = std::uint32_t(options.instance_args.size());
  const std::uint32_t ni =
      options.num_instances == 0 ? available : options.num_instances;
  if (ni > available) {
    return Status(
        ErrorCode::kInvalidArgument,
        StrFormat("requested %u instances but the argument file provides "
                  "only %u lines",
                  ni, available));
  }
  if (!options.instance_watchdogs.empty() &&
      options.instance_watchdogs.size() != ni) {
    return Status(ErrorCode::kInvalidArgument,
                  "EnsembleOptions::instance_watchdogs must be empty or have "
                  "one entry per instance");
  }
  const std::uint32_t teams = options.num_teams == 0 ? ni : options.num_teams;
  if (teams > ni) {
    return Status(ErrorCode::kInvalidArgument,
                  "more teams than instances is wasteful; reduce --teams");
  }

  // Attach the sanitizer before any device state is built so the argument
  // block and app buffers enter the shadow map with exact bounds.
  if (options.memcheck != nullptr) {
    options.memcheck->Attach(env.device->memory());
  }

  // This call's copy of the fault plan: its consumption counters persist
  // across the retry waves below and never leak into another call. An
  // empty plan stays off the launch (null keeps the warp hot path free of
  // fault checks). The heap and the RPC ring see the copy only while it
  // lives; the guard detaches it on every return path.
  sim::FaultPlan faults = options.faults;
  sim::FaultPlan* const plan = faults.empty() ? nullptr : &faults;
  struct PlanWiring {
    dgcf::AppEnv& env;
    PlanWiring(dgcf::AppEnv& e, sim::FaultPlan* p) : env(e) { Wire(p); }
    ~PlanWiring() { Wire(nullptr); }
    void Wire(sim::FaultPlan* p) {
      if (env.libc != nullptr) env.libc->set_fault_plan(p);
      if (env.rpc != nullptr) env.rpc->set_fault_plan(p);
    }
  } wiring(env, plan);

  // Build the device-side argument block (Fig. 4's StringCache/Argc/Argv),
  // prepending argv[0] = app name to every line. Built once; retry waves
  // reuse it.
  std::vector<std::vector<std::string>> rows;
  rows.reserve(ni);
  for (std::uint32_t i = 0; i < ni; ++i) {
    std::vector<std::string> row;
    row.reserve(options.instance_args[i].size() + 1);
    row.push_back(options.app);
    row.insert(row.end(), options.instance_args[i].begin(),
               options.instance_args[i].end());
    rows.push_back(std::move(row));
  }
  DGC_ASSIGN_OR_RETURN(dgcf::ArgvBlock argv,
                       dgcf::ArgvBlock::Build(*env.device, rows));

  dgcf::RunResult run;
  run.app = options.app;
  run.device = env.device->spec().name;
  run.thread_limit = options.thread_limit;
  run.teams_per_block = options.teams_per_block;
  run.instances.resize(ni);
  run.transfer_cycles = argv.transfer_cycles();
  env.share_data = options.share_data;

  const std::uint64_t launch_watchdog =
      options.watchdog_cycles != 0 ? options.watchdog_cycles
                                   : env.device->spec().DefaultWatchdogCycles();

  // Wave 0 runs every instance; retry waves run only the instances that did
  // not complete execution (a returned nonzero exit *is* a completed
  // execution and is never retried).
  std::vector<std::uint32_t> pending(ni);
  std::iota(pending.begin(), pending.end(), 0u);
  std::uint32_t team_cap = teams;

  for (std::uint32_t wave = 0; wave < options.max_attempts && !pending.empty();
       ++wave) {
    if (wave > 0) {
      team_cap = std::max(1u, team_cap / kRetryShrink);
      // Retry waves reuse block ids; a fresh trace wave keeps their rows
      // (and Perfetto tids) distinct from the previous launch's.
      if (options.trace != nullptr) options.trace->BeginWave();
    }
    const std::uint32_t wave_teams =
        std::min<std::uint32_t>(team_cap, std::uint32_t(pending.size()));

    std::vector<char> started(ni, 0);

    ompx::TeamsConfig cfg;
    cfg.num_teams = wave_teams;
    cfg.thread_limit = options.thread_limit;
    cfg.teams_per_block = options.teams_per_block;
    cfg.launch.name = wave == 0 ? "ensemble" : "ensemble-retry";
    cfg.launch.trace = options.trace;
    cfg.launch.memcheck = options.memcheck;
    cfg.launch.faults = plan;
    cfg.launch.profiler = options.profiler;
    cfg.launch.watchdog_cycles = launch_watchdog;

    // The Fig. 4 kernel:  #pragma omp target teams distribute
    //                     for (I = 0; I < NI; ++I)
    //                       Ret[I] = __user_main(Argc[I], &Argv[I][0]);
    // distribute → team t executes iterations t, t+N, t+2N, ... of the
    // pending list. Each instance runs under try/catch: a trap is contained
    // to the instance, and the team moves on to its next instance as long
    // as the trap left it intact. While it runs, the team's row of lanes
    // carries the instance id (Lane::instance), which attributes its
    // counters, heap, failures and memcheck findings.
    auto result = ompx::LaunchTeams(
        *env.device, cfg, [&](ompx::TeamCtx& team) -> sim::DeviceTask<void> {
          for (std::uint32_t idx = team.team_id; idx < pending.size();
               idx += wave_teams) {
            const std::uint32_t i = pending[idx];
            dgcf::InstanceResult& inst = run.instances[i];
            started[i] = 1;
            ++inst.attempts;
            inst.reason = dgcf::TerminationReason::kNotStarted;
            inst.detail.clear();
            const std::uint64_t t0 = team.hw->Now();
            const std::uint64_t inst_budget =
                i < options.instance_watchdogs.size() &&
                        options.instance_watchdogs[i] != 0
                    ? options.instance_watchdogs[i]
                    : options.instance_watchdog_cycles;
            team.hw->SetRowInstance(std::int32_t(i), inst_budget);
            bool contained = false;
            try {
              inst.exit_code = co_await app->user_main(
                  env, team, argv.argc(i), argv.argv(i));
              inst.completed = true;
              inst.reason = dgcf::TerminationReason::kReturned;
            } catch (const sim::DeviceTrap& trap) {
              inst.reason = dgcf::ReasonForTrap(trap.kind());
              inst.detail = trap.what();
              contained = true;
            } catch (const std::exception& e) {
              inst.reason = dgcf::TerminationReason::kException;
              inst.detail = e.what();
              contained = true;
            }
            team.hw->SetRowInstance(-1, 0);  // unattributed and disarmed
            inst.cycles += team.hw->Now() - t0;
            if (contained && !TeamIntact(team)) {
              // The trap degraded the team (dead workers or a parallel
              // region left in flight): running another instance on it
              // would corrupt the worker state machine. Remaining
              // iterations stay kNotStarted and fall to the retry waves.
              co_return;
            }
          }
        });
    DGC_RETURN_IF_ERROR(result.status());

    run.waves = wave + 1;
    run.kernel_cycles += result->cycles;
    // Waves run back-to-back on the device, so their counters add — the
    // sequential merge, for the run and for each instance's slice of it.
    run.stats.AccumulateSequential(result->stats);
    const std::vector<sim::LaunchStats>& buckets = result->instance_buckets;
    run.unattributed.AccumulateSequential(buckets[0]);
    for (std::size_t b = 1; b < buckets.size(); ++b) {
      run.instances[b - 1].stats.AccumulateSequential(buckets[b]);
    }
    for (std::string& f : result->failures) run.failures.push_back(std::move(f));
    // The sanitizer report is cumulative since Attach; the latest wave's
    // snapshot covers all waves so far.
    run.memcheck = std::move(result->memcheck);

    // Post-wave attribution and containment log.
    std::vector<std::uint32_t> next;
    for (std::uint32_t i : pending) {
      dgcf::InstanceResult& inst = run.instances[i];
      if (inst.completed) continue;
      if (started[i] &&
          inst.reason == dgcf::TerminationReason::kNotStarted) {
        // Started but never terminated: its lanes were still parked when
        // the launch drained (deadlock) or the launch ended around it.
        inst.reason = dgcf::TerminationReason::kDeadlock;
        inst.detail = StrFormat("launch %s while the instance was running",
                                result->outcome == sim::LaunchOutcome::kDeadlocked
                                    ? "deadlocked"
                                    : "ended");
      }
      if (started[i] &&
          inst.reason != dgcf::TerminationReason::kNotStarted) {
        run.failures.push_back(StrFormat(
            "instance=%u contained: %s (%s)", i,
            std::string(dgcf::ToString(inst.reason)).c_str(),
            inst.detail.c_str()));
        // Contained traps never reach the launch's lane-death counters, so
        // fold them in here: the run's stats report every trap that fired,
        // whether the loader caught it or a lane died of it.
        if (inst.reason == dgcf::TerminationReason::kWatchdog) {
          ++run.stats.watchdog_traps;
        } else if (inst.reason != dgcf::TerminationReason::kException) {
          ++run.stats.lane_traps;
        }
      }
      next.push_back(i);
    }
    pending = std::move(next);
  }

  // map(from:Ret[:NI])
  run.transfer_cycles +=
      sim::TransferCycles(env.device->spec(), std::uint64_t(ni) * sizeof(int));
  run.device_mem = env.device->memory().Snapshot();
  const auto& owner_stats = env.device->memory().owner_stats();
  for (std::uint32_t i = 0; i < ni; ++i) {
    run.instances[i].stats.elapsed_cycles = run.instances[i].cycles;
    if (auto it = owner_stats.find(std::int32_t(i)); it != owner_stats.end()) {
      run.instances[i].mem_peak_bytes = it->second.peak_bytes;
      run.instances[i].mem_allocations = it->second.total_allocations;
    }
  }
  return run;
}

StatusOr<EnsembleOptions> ParseLoaderArgs(
    const std::string& app, const std::vector<std::string>& argv) {
  std::string file;
  std::int64_t instances = 0, threads = 1024, teams = 0, per_block = 1;
  std::int64_t seed = 0;
  bool script = false;
  std::int64_t watchdog = 0, instance_watchdog = 0;
  std::int64_t retry = 1;
  std::string share_data = "on";
  std::string inject;
  ArgParser parser("GPU ensemble loader (paper Fig. 5c)");
  parser.AddString("file", 'f', "command line arguments file", &file,
                   /*required=*/true)
      .AddInt("num-instances", 'n', "instances to launch simultaneously",
              &instances)
      .AddInt("thread-limit", 't', "max threads per instance", &threads)
      .AddInt("teams", 0, "teams (default: one per instance)", &teams)
      .AddInt("teams-per-block", 'm', "instances per thread block (§3.1)",
              &per_block)
      .AddFlag("script", 0, "treat the file as an argument script", &script)
      .AddInt("seed", 0, "argument-script random seed", &seed)
      .AddString("inject", 0, "deterministic fault-injection spec", &inject)
      .AddInt("watchdog", 0, "launch cycle budget (0 = device default)",
              &watchdog)
      .AddInt("instance-watchdog", 0,
              "per-instance cycle budget (0 = off)", &instance_watchdog)
      .AddInt("retry", 0, "max launch attempts per failed instance",
              &retry)
      .AddString("share-data", 0,
                 "share read-only input data across identical instances "
                 "(on|off, default on)",
                 &share_data);
  DGC_RETURN_IF_ERROR(parser.Parse(argv));
  if (share_data != "on" && share_data != "off") {
    return Status(ErrorCode::kInvalidArgument,
                  "--share-data must be 'on' or 'off'");
  }
  if (instances < 0 || threads <= 0 || teams < 0 || per_block <= 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "counts must be positive (instances/teams may be omitted)");
  }
  if (watchdog < 0 || instance_watchdog < 0 || retry <= 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "--watchdog/--instance-watchdog must be >= 0 and "
                  "--retry must be positive");
  }
  // A bad --inject spec is a usage error: reject it before any file is read.
  auto faults = sim::FaultPlan::Parse(inject);
  if (!faults.ok()) {
    return Status(ErrorCode::kInvalidArgument,
                  "bad --inject spec: " + faults.status().message());
  }

  EnsembleOptions options;
  options.app = app;
  options.faults = std::move(*faults);
  options.num_instances = std::uint32_t(instances);
  options.thread_limit = std::uint32_t(threads);
  options.num_teams = std::uint32_t(teams);
  options.teams_per_block = std::uint32_t(per_block);
  options.watchdog_cycles = std::uint64_t(watchdog);
  options.instance_watchdog_cycles = std::uint64_t(instance_watchdog);
  options.max_attempts = std::uint32_t(retry);
  options.share_data = share_data == "on";

  if (script) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      return Status(ErrorCode::kNotFound, "cannot open script file: " + file);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    DGC_ASSIGN_OR_RETURN(options.instance_args,
                         ExpandScriptToArgs(buffer.str(), std::uint64_t(seed)));
  } else {
    DGC_ASSIGN_OR_RETURN(options.instance_args, LoadArgumentFile(file));
  }
  return options;
}

}  // namespace dgc::ensemble
