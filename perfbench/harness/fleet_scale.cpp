// fleet_scale: a seeded 2^17 = 131,072-module HA8K fleet behind a 3-level
// PowerTree::uniform_tdp (fanouts 16x24, headroom 0.90/0.85), running the
// MHD VaPc cell at 80 W/module with 4 DES iterations, repeatedly.
//
//   ops_per_s       modules/s of a cell that calibrates its PMT (cleared
//                   calibration cache)
//   warm_ops_per_s  modules/s of a cell whose PMT comes from the cache
//   latency_p50_ms  wall time of a cell, either kind
//   speedup_x       Naive makespan over VaPc makespan at this cell
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "cluster/cluster_soa.hpp"
#include "cluster/power_tree.hpp"
#include "core/budget.hpp"
#include "core/calibration_cache.hpp"
#include "core/campaign.hpp"
#include "core/pmt.hpp"
#include "core/pvt.hpp"
#include "core/test_run.hpp"
#include "hw/arch.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"
#include "workloads/catalog.hpp"

namespace perfbench {

using namespace vapb;

namespace {

constexpr std::size_t kModules = std::size_t{1} << 17;
constexpr std::size_t kThreads = 4;
constexpr int kSetups = 3;
constexpr int kIterations = 4;
constexpr double kBudgetPerModuleW = 80.0;
constexpr std::size_t kFanouts[] = {16, 24};
constexpr double kHeadroom[] = {0.90, 0.85};

struct Fleet {
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<cluster::ClusterSoA> soa;
  std::unique_ptr<core::Pvt> pvt;
  std::unique_ptr<cluster::PowerTree> tree;
  core::TestRunResult test;
};

}  // namespace

void run_fleet_scale(const Args& args, Report& report) {
  util::ThreadPool::set_global_threads(kThreads);
  Tracer tracer(args.trace);
  core::CalibrationCache& cache = core::CalibrationCache::global();
  const workloads::Workload& app = workloads::mhd();
  std::vector<hw::ModuleId> alloc(kModules);
  std::iota(alloc.begin(), alloc.end(), hw::ModuleId{0});

  // Set-up: fabricate, gather, PVT, power tree and the single-module test
  // run — everything a cell consumes but does not build itself.
  Fleet f;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    f = Fleet{};
    const double t0 = now_s();
    {
      Span span(tracer, "cluster.fabricate");
      f.cluster = std::make_unique<cluster::Cluster>(
          hw::ha8k(), util::SeedSequence(args.seed), kModules);
    }
    {
      Span span(tracer, "cluster.soa_gather");
      f.soa = std::make_unique<cluster::ClusterSoA>(
          cluster::ClusterSoA::gather(*f.cluster));
    }
    {
      Span span(tracer, "core.pvt_generate");
      f.pvt = std::make_unique<core::Pvt>(core::Pvt::generate(
          *f.cluster, workloads::pvt_microbench(),
          f.cluster->seed().fork("pvt")));
    }
    {
      Span span(tracer, "cluster.power_tree_build");
      f.tree = std::make_unique<cluster::PowerTree>(
          cluster::PowerTree::uniform_tdp(*f.soa, kFanouts, kHeadroom));
    }
    {
      Span span(tracer, "core.test_run");
      f.test = core::single_module_test_run(
          *f.cluster, alloc.front(), app, core::test_run_seed(*f.cluster, app));
    }
    setup_s.push_back(now_s() - t0);
  }
  const cluster::Cluster& fleet = *f.cluster;
  const double budget_w = kBudgetPerModuleW * static_cast<double>(kModules);

  // Output checks before timing: the flat solve equals the 1-level-tree
  // solve bit for bit, and both stay within the budget.
  {
    const core::Pmt pmt =
        core::calibrate_pmt(*f.pvt, f.test, alloc, fleet.spec().ladder);
    const core::BudgetResult flat =
        core::solve_budget(pmt, util::Watts{budget_w});
    const core::BudgetResult one_level = core::solve_budget_tree(
        pmt, cluster::PowerTree::flat(kModules), util::Watts{budget_w});
    const core::BudgetResult tree =
        core::solve_budget_tree(pmt, *f.tree, util::Watts{budget_w});
    if (!same_budget(flat, one_level)) {
      report.fail("flat solve differs from the 1-level-tree solve");
    }
    if (!within_budget(flat, budget_w) || !within_budget(tree, budget_w)) {
      report.fail("predicted total exceeds the cell budget");
    }
  }

  core::RunConfig config;
  config.iterations = kIterations;
  config.tree = f.tree.get();
  const core::Runner runner(fleet, alloc, config);
  auto cell = [&](const core::Runner& r) {
    return core::run_scheme_cached(fleet, r, app, "VaPc", budget_w, *f.pvt,
                                   f.test);
  };

  // Alternate a calibrating cell (cleared cache) with a cached one. Every
  // cell must reproduce the first bit for bit.
  const double window_end = now_s() + args.seconds;
  std::vector<double> cold_s, warm_s;
  core::RunMetrics first;
  Digest digest;
  for (int rep = 0; rep < 3 || now_s() < window_end; ++rep) {
    for (const bool warm : {false, true}) {
      if (!warm) cache.clear();
      const double t0 = now_s();
      const core::RunMetrics m = cell(runner);
      (warm ? warm_s : cold_s).push_back(now_s() - t0);
      report.attempt();
      if (rep == 0 && !warm) {
        first = m;
        digest_metrics(digest, m);
        if (m.modules.size() != kModules || !m.feasible) {
          report.fail("the cell did not run every module feasibly");
        }
        if (!allocations_within_budget(m)) {
          report.fail("cell allocations exceed the budget");
        }
      } else if (!same_metrics(first, m)) {
        report.failed_op();
        report.fail("a repeated cell differs from the first");
      }
    }
  }
  const core::RunMetrics naive = runner.run_scheme(
      app, core::SchemeKind::kNaive, budget_w, *f.pvt, f.test);
  report.attempt();

  std::vector<double> cell_ms;
  for (const auto* v : {&cold_s, &warm_s}) {
    for (double s : *v) cell_ms.push_back(1e3 * s);
  }
  report.set("setup_s", median(setup_s));
  report.set("ops_per_s", static_cast<double>(kModules) / median(cold_s));
  report.set("warm_ops_per_s", static_cast<double>(kModules) / median(warm_s));
  report.set("latency_p50_ms", percentile(cell_ms, 50));
  report.info("fleet.cell_p90_ms", percentile(cell_ms, 90));
  report.set("speedup_x", naive.makespan_s / first.makespan_s);
  report.info("fleet.modules", static_cast<double>(kModules));
  report.info("fleet.cells", static_cast<double>(cold_s.size() + warm_s.size()));
  report.info("fleet.digest", digest.hex());

  if (tracer.enabled()) {
    // The blocking path: calibrating cells (cleared cache) with stage
    // telemetry. The pipeline stages are the whole cell but for the
    // scheme-definition lookup and run-context set-up in run_scheme_cached.
    util::Telemetry tel;
    core::RunConfig traced = config;
    traced.telemetry = &tel;
    const core::Runner traced_runner(fleet, alloc, traced);
    constexpr int kReps = 5;
    BlockingPath path;
    path.residual_is =
        "run_scheme_cached outside its stages (run-context set-up and "
        "teardown over 131,072 modules) and the benchmark's own glue";
    // ~3.5% of a cell on seed 2015; the limit leaves room for the stages to
    // get faster before the untouched remainder alone crosses it.
    path.max_residual = 0.10;
    std::uint64_t hits = 0, misses = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      cache.clear();
      const core::CalibrationCache::Stats before = cache.stats();
      const double t0 = now_s();
      {
        Span span(tracer, "core.run_scheme", static_cast<std::uint64_t>(rep));
        static_cast<void>(cell(traced_runner));
      }
      path.wall_s += now_s() - t0;
      hits += cache.stats().hits - before.hits;
      misses += cache.stats().misses - before.misses;
    }
    attribute_stages(tel, path);
    report.attempt(kReps);

    // Per-call figures of the two solvers on this cell's PMT.
    const core::Pmt pmt =
        core::calibrate_pmt(*f.pvt, f.test, alloc, fleet.spec().ladder);
    for (int rep = 0; rep < kReps; ++rep) {
      {
        Span span(tracer, "core.solve_flat", static_cast<std::uint64_t>(rep));
        static_cast<void>(core::solve_budget(pmt, util::Watts{budget_w}));
      }
      {
        Span span(tracer, "core.solve_tree", static_cast<std::uint64_t>(rep));
        static_cast<void>(
            core::solve_budget_tree(pmt, *f.tree, util::Watts{budget_w}));
      }
    }
    const auto self = tracer.self_by_name();
    const auto calls = tracer.count_by_name();
    auto per_call = [&](const char* n) {
      auto it = self.find(n);
      auto c = calls.find(n);
      return it == self.end() ? 0.0
                              : it->second / static_cast<double>(c->second);
    };
    auto stage = [&](const char* n) {
      auto it = tel.stages().find(n);
      return it == tel.stages().end() ? 0.0 : it->second.total_s / kReps;
    };
    report.set("cluster.fabricate_s", per_call("cluster.fabricate"));
    report.set("cluster.soa_gather_s", per_call("cluster.soa_gather"));
    report.set("cluster.power_tree_build_s",
               per_call("cluster.power_tree_build"));
    report.set("core.pvt_generate_s", per_call("core.pvt_generate"));
    report.set("core.test_run_s", per_call("core.test_run"));
    report.set("core.test_run_calls", static_cast<double>(calls.at("core.test_run")));
    // VaPc's model stage is calibrate_pmt over the fleet; each cell's cache
    // miss is one call.
    report.set("core.calibrate_pmt_s", stage("model"));
    report.set("core.calibrate_pmt_calls", static_cast<double>(misses) / kReps);
    report.set("core.cache_hits", static_cast<double>(hits) / kReps);
    report.set("core.cache_misses", static_cast<double>(misses) / kReps);
    report.set("core.cache_hit_ratio",
               hits + misses == 0 ? 0.0
                                  : static_cast<double>(hits) /
                                        static_cast<double>(hits + misses));
    report.set("core.solve_flat_s", per_call("core.solve_flat"));
    report.set("core.solve_tree_s", per_call("core.solve_tree"));
    report.set("core.run_scheme_s", path.wall_s / kReps);
    report.set("core.stage.model_s", stage("model"));
    report.set("core.stage.solve_s", stage("solve"));
    report.set("core.stage.enforce_s", stage("enforce"));
    report.set("des.execute_s", stage("execute"));
    report.set("trace.overhead_ratio", (path.wall_s / kReps) / median(cold_s));
    report.not_entered({"core.oracle_pmt_s", "core.oracle_pmt_calls",
                        "util.parallel_speedup", "service.decode_us",
                        "service.encode_solve_us", "service.encode_run_us",
                        "service.reply_bytes_mean", "service.inproc_latency_us",
                        "service.transport_ms", "service.dedup_ratio",
                        "service.reply_hit_ratio", "service.batches",
                        "service.max_batch", "client.late_p99_ms",
                        "tenancy.point_s", "tenancy.resolves",
                        "tenancy.calibration_fill_s",
                        "tenancy.scheduler_self_s"});
    finish_trace(args, tracer, path, report);
  }
  report.set("peak_rss_mb", peak_rss_mb());
}

}  // namespace perfbench
