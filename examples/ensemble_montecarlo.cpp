// Ensemble Monte-Carlo: the paper's motivating scenario (§1) — many
// independent simulation trajectories analysed together. Runs 16 XSBench
// instances (OpenMC's lookup proxy), each with a different seed, in one
// kernel launch, and compares against running them back to back.
//
//   $ ./ensemble_montecarlo
#include <cstdio>

#include "apps/common.h"
#include "dgcf/libc.h"
#include "dgcf/rpc.h"
#include "ensemble/loader.h"
#include "gpusim/device.h"
#include "support/str.h"

using namespace dgc;

int main() {
  apps::RegisterAllApps();
  const std::uint32_t kTrajectories = 16;
  const std::uint32_t kThreadLimit = 64;

  auto args_for = [](std::uint32_t i) {
    return std::vector<std::string>{"-i", "16",  "-g", "128", "-l", "1024",
                                    "-s", StrFormat("%u", i + 1)};
  };

  // --- Back-to-back single-instance runs (the pre-ensemble workflow) ------
  std::uint64_t serial_cycles = 0;
  {
    sim::Device device(sim::DeviceSpec::A100_40GB(512));
    dgcf::RpcHost rpc(device);
    dgcf::DeviceLibc libc(device);
    dgcf::AppEnv env{&device, &rpc, &libc};
    for (std::uint32_t i = 0; i < kTrajectories; ++i) {
      ensemble::EnsembleOptions opt;
      opt.app = "xsbench";
      opt.instance_args = {args_for(i)};
      opt.thread_limit = kThreadLimit;
      auto run = ensemble::RunEnsemble(env, opt);
      DGC_CHECK(run.ok());
      DGC_CHECK_MSG(run->all_ok(), "trajectory failed verification");
      serial_cycles += run->total_cycles();
    }
  }

  // --- One ensemble launch -------------------------------------------------
  std::uint64_t ensemble_cycles = 0;
  {
    sim::Device device(sim::DeviceSpec::A100_40GB(512));
    dgcf::RpcHost rpc(device);
    dgcf::DeviceLibc libc(device);
    dgcf::AppEnv env{&device, &rpc, &libc};
    ensemble::EnsembleOptions opt;
    opt.app = "xsbench";
    for (std::uint32_t i = 0; i < kTrajectories; ++i) {
      opt.instance_args.push_back(args_for(i));
    }
    opt.thread_limit = kThreadLimit;
    auto run = ensemble::RunEnsemble(env, opt);
    DGC_CHECK(run.ok());
    DGC_CHECK_MSG(run->all_ok(), "an ensemble instance failed verification");
    ensemble_cycles = run->total_cycles();
  }

  const auto& spec = sim::DeviceSpec::A100_40GB(512);
  std::printf("%u XSBench trajectories, thread limit %u\n", kTrajectories,
              kThreadLimit);
  std::printf("  back-to-back : %12llu cycles (%s)\n",
              (unsigned long long)serial_cycles,
              FormatSeconds(spec.CyclesToSeconds(serial_cycles)).c_str());
  std::printf("  one ensemble : %12llu cycles (%s)\n",
              (unsigned long long)ensemble_cycles,
              FormatSeconds(spec.CyclesToSeconds(ensemble_cycles)).c_str());
  std::printf("  speedup      : %.1fx\n",
              double(serial_cycles) / double(ensemble_cycles));
  return 0;
}
