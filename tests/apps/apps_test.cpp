// Verification tests for the four benchmark apps: every device kernel must
// reproduce its host reference hash bit-for-bit, run alone (one instance)
// at several thread limits and packed into ensembles.
#include <gtest/gtest.h>

#include "apps/amgmk.h"
#include "apps/common.h"
#include "apps/pagerank.h"
#include "apps/rsbench.h"
#include "apps/xsbench.h"
#include "dgcf/libc.h"
#include "dgcf/rpc.h"
#include "ensemble/loader.h"
#include "gpusim/device.h"
#include "support/str.h"

namespace dgc::apps {
namespace {

using sim::Device;
using sim::DeviceSpec;

class AppsTest : public testing::Test {
 protected:
  static void SetUpTestSuite() { RegisterAllApps(); }

  struct Env {
    Device device{DeviceSpec::TestDevice()};
    dgcf::RpcHost rpc{device};
    dgcf::DeviceLibc libc{device};
    dgcf::AppEnv app_env{&device, &rpc, &libc};
  };

  /// One instance of `app`: a single-row ensemble.
  static ensemble::EnsembleOptions OneInstance(const std::string& app,
                                               std::vector<std::string> args,
                                               std::uint32_t thread_limit) {
    ensemble::EnsembleOptions opt;
    opt.app = app;
    opt.instance_args = {std::move(args)};
    opt.thread_limit = thread_limit;
    return opt;
  }

  /// Runs one instance and returns its exit code (0 = verified).
  int RunSingle(const std::string& app, std::vector<std::string> args,
                std::uint32_t thread_limit = 64) {
    Env env;
    auto run = ensemble::RunEnsemble(
        env.app_env, OneInstance(app, std::move(args), thread_limit));
    if (!run.ok()) {
      ADD_FAILURE() << run.status().ToString();
      return -1;
    }
    if (!run->failures.empty()) ADD_FAILURE() << run->failures[0];
    EXPECT_TRUE(run->instances[0].completed);
    return run->instances[0].exit_code;
  }
};

TEST_F(AppsTest, AllFourAppsAreRegistered) {
  for (const char* name : {"xsbench", "rsbench", "amgmk", "pagerank"}) {
    EXPECT_TRUE(dgcf::AppRegistry::Instance().Find(name).ok()) << name;
  }
}

// --- XSBench ---------------------------------------------------------------

TEST_F(AppsTest, XsbenchMatchesHostReference) {
  EXPECT_EQ(RunSingle("xsbench", {"-i", "8", "-g", "64", "-l", "256"}), 0);
}

TEST_F(AppsTest, XsbenchThreadLimitSweepAllVerify) {
  for (std::uint32_t tl : {1u, 32u, 64u, 128u}) {
    EXPECT_EQ(RunSingle("xsbench", {"-i", "8", "-g", "64", "-l", "200"}, tl), 0)
        << "thread limit " << tl;
  }
}

TEST_F(AppsTest, XsbenchDifferentSeedsDifferentHashes) {
  XsParams a, b;
  a.n_isotopes = b.n_isotopes = 8;
  a.n_gridpoints = b.n_gridpoints = 64;
  a.n_lookups = b.n_lookups = 128;
  a.seed = 1;
  b.seed = 2;
  EXPECT_NE(XsHostReference(a), XsHostReference(b));
}

TEST_F(AppsTest, XsbenchUnionIndexIsConsistent) {
  XsParams p;
  p.n_isotopes = 6;
  p.n_gridpoints = 32;
  const XsData data = GenerateXsData(p);
  const std::uint32_t n_union = data.n_union();
  ASSERT_EQ(n_union, p.n_isotopes * p.n_gridpoints);
  EXPECT_TRUE(std::is_sorted(data.union_energy.begin(),
                             data.union_energy.end()));
  for (std::uint32_t u = 0; u < n_union; ++u) {
    for (std::uint32_t n = 0; n < p.n_isotopes; ++n) {
      const std::int32_t ig = data.union_index[std::size_t(u) * p.n_isotopes + n];
      ASSERT_GE(ig, 0);
      ASSERT_LE(ig, std::int32_t(p.n_gridpoints) - 2);
      const double* e = &data.nuclide_energy[std::size_t(n) * p.n_gridpoints];
      // e[ig] <= union_e unless the union point is below the isotope's
      // first gridpoint (then ig is clamped to 0).
      if (data.union_energy[u] >= e[0]) {
        EXPECT_LE(e[ig], data.union_energy[u]);
      }
    }
  }
}

TEST_F(AppsTest, XsbenchBadArgsGiveUsageExit) {
  EXPECT_EQ(RunSingle("xsbench", {"--bogus"}), dgcf::kExitUsage);
  EXPECT_EQ(RunSingle("xsbench", {"-i", "1"}), dgcf::kExitUsage);
}

TEST_F(AppsTest, XsbenchOomExitsCleanly) {
  EXPECT_EQ(RunSingle("xsbench", {"-i", "64", "-g", "4096", "-l", "16"}),
            dgcf::kExitNoMem);
}

// --- RSBench ---------------------------------------------------------------

TEST_F(AppsTest, RsbenchMatchesHostReference) {
  EXPECT_EQ(RunSingle("rsbench", {"-u", "8", "-w", "8", "-l", "256"}), 0);
}

TEST_F(AppsTest, RsbenchThreadLimitSweepAllVerify) {
  for (std::uint32_t tl : {1u, 32u, 128u}) {
    EXPECT_EQ(RunSingle("rsbench", {"-u", "8", "-w", "8", "-l", "200"}, tl), 0)
        << "thread limit " << tl;
  }
}

TEST_F(AppsTest, RsbenchIsComputeHeavierThanXsbenchPerByte) {
  // Sanity on the memory/compute characterization the paper relies on:
  // RSBench issues far more compute cycles relative to DRAM traffic.
  Env env;
  auto xs_run = ensemble::RunEnsemble(
      env.app_env,
      OneInstance("xsbench", {"-i", "8", "-g", "64", "-l", "256"}, 64));
  Env env2;
  auto rs_run = ensemble::RunEnsemble(
      env2.app_env,
      OneInstance("rsbench", {"-u", "8", "-w", "8", "-l", "256"}, 64));
  ASSERT_TRUE(xs_run.ok());
  ASSERT_TRUE(rs_run.ok());
  const double xs_ratio = double(xs_run->stats.compute_cycles_issued) /
                          double(xs_run->stats.dram_bytes + 1);
  const double rs_ratio = double(rs_run->stats.compute_cycles_issued) /
                          double(rs_run->stats.dram_bytes + 1);
  EXPECT_GT(rs_ratio, 2.0 * xs_ratio);
}

// --- AMGmk -----------------------------------------------------------------

TEST_F(AppsTest, AmgmkMatchesHostReference) {
  EXPECT_EQ(RunSingle("amgmk", {"-x", "6", "-y", "6", "-z", "6"}), 0);
}

TEST_F(AppsTest, AmgmkMultipleSweepsVerify) {
  EXPECT_EQ(
      RunSingle("amgmk", {"-x", "5", "-y", "5", "-z", "5", "-w", "4"}), 0);
}

TEST_F(AppsTest, AmgmkMatrixIsDiagonallyDominant) {
  AmgParams p;
  p.nx = p.ny = p.nz = 5;
  const AmgData data = GenerateAmgData(p);
  ASSERT_EQ(data.row_ptr.size(), std::size_t(p.rows()) + 1);
  for (std::uint32_t i = 0; i < p.rows(); ++i) {
    double offdiag = 0;
    for (std::uint32_t k = data.row_ptr[i]; k < data.row_ptr[i + 1]; ++k) {
      ASSERT_GE(data.col[k], 0);
      ASSERT_LT(data.col[k], std::int32_t(p.rows()));
      ASSERT_NE(data.col[k], std::int32_t(i));  // diagonal kept separately
      offdiag += std::abs(data.val[k]);
    }
    EXPECT_GT(data.diag[i], offdiag);  // Jacobi converges
  }
}

TEST_F(AppsTest, AmgmkInteriorRowsHave27PointStencil) {
  AmgParams p;
  p.nx = p.ny = p.nz = 5;
  const AmgData data = GenerateAmgData(p);
  // Row of the central cell (2,2,2): 26 off-diagonal neighbours.
  const std::uint32_t center = (2 * 5 + 2) * 5 + 2;
  EXPECT_EQ(data.row_ptr[center + 1] - data.row_ptr[center], 26u);
  // A corner has 7 neighbours.
  EXPECT_EQ(data.row_ptr[1] - data.row_ptr[0], 7u);
}

// --- Page-Rank ---------------------------------------------------------------

TEST_F(AppsTest, PagerankMatchesHostReference) {
  EXPECT_EQ(RunSingle("pagerank", {"-g", "2000", "-d", "4"}), 0);
}

TEST_F(AppsTest, PagerankMultipleIterationsVerify) {
  EXPECT_EQ(RunSingle("pagerank", {"-g", "1000", "-d", "4", "-k", "3"}), 0);
}

TEST_F(AppsTest, PagerankRanksSumToOneIsh) {
  PrParams p;
  p.n_nodes = 5000;
  p.avg_degree = 6;
  p.iterations = 2;
  const PrData data = GeneratePrData(p);
  ASSERT_EQ(data.row_ptr.size(), std::size_t(p.n_nodes) + 1);
  for (std::uint32_t u : data.src) ASSERT_LT(u, p.n_nodes);
  for (std::uint32_t d : data.out_degree) ASSERT_GE(d, 1u);
}

TEST_F(AppsTest, PagerankGraphIsSkewed) {
  PrParams p;
  p.n_nodes = 10000;
  p.avg_degree = 8;
  const PrData data = GeneratePrData(p);
  // Power-law-ish: the busiest node has far more out-edges than average.
  std::uint32_t max_deg = 0;
  for (std::uint32_t d : data.out_degree) max_deg = std::max(max_deg, d);
  EXPECT_GT(max_deg, 5 * p.avg_degree);
}

// --- Ensembles of real apps ---------------------------------------------------

TEST_F(AppsTest, EnsembleOfXsbenchInstancesAllVerify) {
  Env env;
  ensemble::EnsembleOptions opt;
  opt.app = "xsbench";
  for (int i = 0; i < 6; ++i) {
    opt.instance_args.push_back(
        {"-i", "8", "-g", "64", "-l", "128", "-s", StrFormat("%d", i + 1)});
  }
  opt.thread_limit = 32;
  auto run = ensemble::RunEnsemble(env.app_env, opt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->all_ok()) << (run->failures.empty() ? "exit codes"
                                                       : run->failures[0]);
}

TEST_F(AppsTest, MixedSizeEnsembleVerifies) {
  Env env;
  ensemble::EnsembleOptions opt;
  opt.app = "amgmk";
  opt.instance_args = {
      {"-x", "4", "-y", "4", "-z", "4"},
      {"-x", "6", "-y", "5", "-z", "4"},
      {"-x", "5", "-y", "5", "-z", "5", "-w", "3"},
  };
  opt.thread_limit = 32;
  auto run = ensemble::RunEnsemble(env.app_env, opt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->all_ok());
}

TEST_F(AppsTest, EnsembleWithMultiDimMappingVerifies) {
  Env env;
  ensemble::EnsembleOptions opt;
  opt.app = "rsbench";
  for (int i = 0; i < 4; ++i) {
    opt.instance_args.push_back(
        {"-u", "6", "-w", "8", "-l", "96", "-s", StrFormat("%d", i + 1)});
  }
  opt.thread_limit = 16;
  opt.teams_per_block = 4;
  auto run = ensemble::RunEnsemble(env.app_env, opt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->all_ok());
  EXPECT_EQ(run->stats.blocks_launched, 1u);
}

TEST_F(AppsTest, DeviceStdoutInterleavesAcrossInstances) {
  Env env;
  ensemble::EnsembleOptions opt;
  opt.app = "rsbench";
  for (int i = 0; i < 3; ++i) {
    opt.instance_args.push_back(
        {"-u", "4", "-w", "4", "-l", "32", "-s", StrFormat("%d", i), "-v"});
  }
  opt.thread_limit = 32;
  auto run = ensemble::RunEnsemble(env.app_env, opt);
  ASSERT_TRUE(run.ok());
  // Three verification lines total, one per instance, in host service order.
  int lines = 0;
  for (char c : env.rpc.stdout_text()) lines += (c == '\n');
  EXPECT_EQ(lines, 3);
}

}  // namespace
}  // namespace dgc::apps

namespace dgc::apps {
namespace {

class XsGridTypes : public testing::TestWithParam<XsGridType> {
 protected:
  static void SetUpTestSuite() { RegisterAllApps(); }
};

TEST_P(XsGridTypes, DeviceMatchesHostReference) {
  sim::Device device(sim::DeviceSpec::TestDevice());
  dgcf::RpcHost rpc(device);
  dgcf::DeviceLibc libc(device);
  dgcf::AppEnv env{&device, &rpc, &libc};
  ensemble::EnsembleOptions opt;
  opt.app = "xsbench";
  opt.instance_args = {{"-i", "8", "-g", "64", "-l", "200", "-G",
                        std::string(ToString(GetParam()))}};
  opt.thread_limit = 64;
  auto run = ensemble::RunEnsemble(env, opt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->failures.empty())
      << (run->failures.empty() ? "" : run->failures[0]);
  EXPECT_EQ(run->instances[0].exit_code, 0);
}

INSTANTIATE_TEST_SUITE_P(All, XsGridTypes,
                         testing::Values(XsGridType::kUnionized,
                                         XsGridType::kHash,
                                         XsGridType::kNuclide),
                         [](const testing::TestParamInfo<XsGridType>& p) {
                           return std::string(ToString(p.param));
                         });

TEST(XsGridTypesExtra, AllGridTypesShareOneReferenceHash) {
  // The acceleration structures must be result-invariant: the host
  // reference is grid-type independent by construction.
  XsParams a, b, c;
  a.n_isotopes = b.n_isotopes = c.n_isotopes = 8;
  a.n_gridpoints = b.n_gridpoints = c.n_gridpoints = 64;
  a.n_lookups = b.n_lookups = c.n_lookups = 100;
  a.grid_type = XsGridType::kUnionized;
  b.grid_type = XsGridType::kHash;
  c.grid_type = XsGridType::kNuclide;
  EXPECT_EQ(XsHostReference(a), XsHostReference(b));
  EXPECT_EQ(XsHostReference(b), XsHostReference(c));
}

TEST(XsGridTypesExtra, HashIndexStartsAtOrBelowCanonical) {
  XsParams p;
  p.n_isotopes = 6;
  p.n_gridpoints = 48;
  p.grid_type = XsGridType::kHash;
  p.hash_bins = 32;
  const XsData data = GenerateXsData(p);
  ASSERT_EQ(data.hash_index.size(), std::size_t(p.hash_bins) * p.n_isotopes);
  for (std::uint32_t n = 0; n < p.n_isotopes; ++n) {
    std::int32_t prev = 0;
    for (std::uint32_t bin = 0; bin < p.hash_bins; ++bin) {
      const std::int32_t idx = data.hash_index[std::size_t(bin) * p.n_isotopes + n];
      ASSERT_GE(idx, prev);  // monotone per isotope
      ASSERT_LE(idx, std::int32_t(p.n_gridpoints) - 2);
      prev = idx;
    }
  }
}

TEST(XsGridTypesExtra, GridTypesTradeMemoryForLookupWork) {
  XsParams u, h, n;
  u.grid_type = XsGridType::kUnionized;
  h.grid_type = XsGridType::kHash;
  n.grid_type = XsGridType::kNuclide;
  EXPECT_GT(u.DeviceBytes(), h.DeviceBytes());
  EXPECT_GT(h.DeviceBytes(), n.DeviceBytes());
}

TEST(XsGridTypesExtra, BadGridTypeIsUsageError) {
  auto p = XsParams::Parse({"-G", "quantum"});
  ASSERT_FALSE(p.ok());
}

}  // namespace
}  // namespace dgc::apps

namespace dgc::apps {
namespace {

// --- Parameter parsing edge cases across all apps -----------------------------

TEST(AppParams, XsDefaultsAndOverrides) {
  auto p = XsParams::Parse({});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->n_isotopes, 24u);
  EXPECT_EQ(p->grid_type, XsGridType::kUnionized);

  auto q = XsParams::Parse({"-i", "10", "-g", "33", "-m", "3", "-l", "7",
                            "-s", "99", "-G", "hash", "-H", "17", "-v"});
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->n_isotopes, 10u);
  EXPECT_EQ(q->n_gridpoints, 33u);
  EXPECT_EQ(q->n_materials, 3u);
  EXPECT_EQ(q->n_lookups, 7u);
  EXPECT_EQ(q->seed, 99u);
  EXPECT_EQ(q->grid_type, XsGridType::kHash);
  EXPECT_EQ(q->hash_bins, 17u);
  EXPECT_TRUE(q->verbose);
}

TEST(AppParams, XsRejectsDegenerateSizes) {
  EXPECT_FALSE(XsParams::Parse({"-i", "1"}).ok());
  EXPECT_FALSE(XsParams::Parse({"-g", "1"}).ok());
  EXPECT_FALSE(XsParams::Parse({"-l", "0"}).ok());
  EXPECT_FALSE(XsParams::Parse({"-H", "0"}).ok());
  EXPECT_FALSE(XsParams::Parse({"-i", "abc"}).ok());
}

TEST(AppParams, RsDefaultsAndRejections) {
  auto p = RsParams::Parse({});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->poles_per_window, 4u);
  EXPECT_FALSE(RsParams::Parse({"-u", "1"}).ok());
  EXPECT_FALSE(RsParams::Parse({"-p", "0"}).ok());
  EXPECT_FALSE(RsParams::Parse({"--nope"}).ok());
}

TEST(AppParams, AmgDefaultsAndRejections) {
  auto p = AmgParams::Parse({"-x", "3", "-y", "4", "-z", "5"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->rows(), 60u);
  EXPECT_FALSE(AmgParams::Parse({"-x", "1"}).ok());
  EXPECT_FALSE(AmgParams::Parse({"-w", "0"}).ok());
}

TEST(AppParams, PrDefaultsAndRejections) {
  auto p = PrParams::Parse({"-g", "5000", "-a", "0.9"});
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(p->damping, 0.9);
  EXPECT_FALSE(PrParams::Parse({"-g", "1"}).ok());
  EXPECT_FALSE(PrParams::Parse({"-a", "1.5"}).ok());
  EXPECT_FALSE(PrParams::Parse({"-a", "0"}).ok());
  EXPECT_FALSE(PrParams::Parse({"-d", "0"}).ok());
}

// --- Workload generation properties --------------------------------------------

TEST(AppGen, RsPolesStayInTheirWindows) {
  RsParams p;
  p.n_nuclides = 6;
  p.n_windows = 8;
  p.poles_per_window = 4;
  const RsData data = GenerateRsData(p);
  const std::uint64_t windows = std::uint64_t(p.n_nuclides) * p.n_windows;
  ASSERT_EQ(data.poles.size(),
            windows * p.poles_per_window * RsData::kPoleDoubles);
  for (std::uint64_t w = 0; w < windows; ++w) {
    const double w_lo = double(w % p.n_windows) / p.n_windows;
    for (std::uint32_t k = 0; k < p.poles_per_window; ++k) {
      const double* pole =
          &data.poles[(w * p.poles_per_window + k) * RsData::kPoleDoubles];
      EXPECT_GE(pole[0], w_lo);
      EXPECT_LE(pole[0], w_lo + 1.0 / p.n_windows);
      EXPECT_GT(pole[1], 0.0);  // imaginary part keeps denominators sane
    }
  }
}

TEST(AppGen, GenerationIsDeterministicPerSeed) {
  XsParams xa, xb;
  xa.seed = xb.seed = 42;
  EXPECT_EQ(GenerateXsData(xa).nuclide_energy, GenerateXsData(xb).nuclide_energy);
  PrParams pa, pb;
  pa.n_nodes = pb.n_nodes = 3000;
  pa.seed = pb.seed = 5;
  EXPECT_EQ(GeneratePrData(pa).src, GeneratePrData(pb).src);
  pb.seed = 6;
  EXPECT_NE(GeneratePrData(pa).src, GeneratePrData(pb).src);
}

TEST(AppGen, PagerankCsrIsWellFormed) {
  PrParams p;
  p.n_nodes = 2000;
  p.avg_degree = 5;
  const PrData data = GeneratePrData(p);
  EXPECT_TRUE(std::is_sorted(data.row_ptr.begin(), data.row_ptr.end()));
  EXPECT_EQ(data.row_ptr.back(), data.src.size());
  EXPECT_EQ(data.rank.size(), std::size_t(p.n_nodes));
  double total = 0;
  for (double r : data.rank) total += r;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

}  // namespace
}  // namespace dgc::apps
