// tenancy_sweep: tenancy::TenancyCampaign on a 1,920-module
// cpu:1536,gpu:320,dram:64 fleet with a six-job trace at 72 W/module,
// sweeping the 4 placement x partition pairs at arrival scales {1.0, 0.5}
// on 4 threads. The MachineScheduler calibrates per allocation through the
// CalibrationCache, so the first sweep fills it and later sweeps hit it.
//
//   ops_per_s       grid points/s of the sweep on a cleared cache
//   warm_ops_per_s  grid points/s of a warm sweep (median over passes)
//   latency_p50_ms  wall time of one warm grid point, run serially
//   speedup_x       variation-aware + water-fill throughput over
//                   contiguous + equal-share at arrival scale 1.0
//
// The fleet is the paper fleet; --seed draws kTraceSeeds trace seeds.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "paper.hpp"
#include "core/calibration_cache.hpp"
#include "core/campaign.hpp"
#include "core/pmt.hpp"
#include "core/pvt.hpp"
#include "hw/arch.hpp"
#include "hw/device_class.hpp"
#include "tenancy/campaign.hpp"
#include "tenancy/machine_scheduler.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"
#include "workloads/catalog.hpp"

namespace perfbench {

using namespace vapb;

namespace {

constexpr std::size_t kModules = kPaperModules;
constexpr std::size_t kThreads = 4;
constexpr int kSetups = 7;  ///< a set-up is ~0.05 s; the median of 7 is steady
constexpr double kBudgetCmW = 72.0;
constexpr int kTraceSeeds = 3;

// hetero_mix and make_trace restate bench_ext_tenancy's fleet and trace so
// that edits to the benches cannot change the benchmark.

/// The paper fleet's 24:5:1 composition (cpu absorbs the rounding).
hw::ClassMix hetero_mix(std::size_t n) {
  hw::ClassMix mix;
  const std::size_t gpu = n / 6;
  const std::size_t dram = n / 30;
  mix.counts[hw::device_class_index(hw::DeviceClass::kGpu)] = gpu;
  mix.counts[hw::device_class_index(hw::DeviceClass::kDram)] = dram;
  mix.counts[hw::device_class_index(hw::DeviceClass::kCpu)] = n - gpu - dram;
  return mix;
}

/// Six jobs, four concurrent at peak, each a quarter of the fleet in the
/// fleet's class ratio.
tenancy::TenancyTrace make_trace(std::uint64_t seed) {
  const std::string mix = hetero_mix(kModules / 4).str();
  tenancy::TenancyTrace trace;
  trace.seed = seed;
  trace.budget_cm_w = kBudgetCmW;
  const struct {
    const char* workload;
    double arrival_s;
    int iterations;
  } jobs[] = {
      {"NPB-EP", 0.0, 6}, {"*STREAM", 0.0, 8},  {"MHD", 10.0, 6},
      {"*DGEMM", 20.0, 4}, {"NPB-BT", 30.0, 6}, {"mVMC", 40.0, 6},
  };
  int k = 0;
  for (const auto& j : jobs) {
    tenancy::JobSpec spec;
    char name[16];
    std::snprintf(name, sizeof name, "j%d", k++);
    spec.name = name;
    spec.workload = j.workload;
    spec.mix = mix;
    spec.arrival_s = j.arrival_s;
    spec.iterations = j.iterations;
    trace.jobs.push_back(std::move(spec));
  }
  trace.validate();
  return trace;
}

bool same_result(const tenancy::TenancyResult& a,
                 const tenancy::TenancyResult& b) {
  if (a.trace_fingerprint != b.trace_fingerprint ||
      a.jobs.size() != b.jobs.size() || a.resolves != b.resolves ||
      !same_bits(a.makespan_s, b.makespan_s) ||
      !same_bits(a.throughput_jph, b.throughput_jph) ||
      !same_bits(a.jain_fairness, b.jain_fairness) ||
      !same_bits(a.energy_j, b.energy_j) ||
      !same_bits(a.power_utilization, b.power_utilization)) {
    return false;
  }
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const auto& x = a.jobs[i];
    const auto& y = b.jobs[i];
    if (x.allocation != y.allocation || x.segments != y.segments ||
        !same_bits(x.start_s, y.start_s) || !same_bits(x.finish_s, y.finish_s) ||
        !same_bits(x.energy_j, y.energy_j) ||
        !same_metrics(x.final_metrics, y.final_metrics)) {
      return false;
    }
  }
  return true;
}

/// One TenancyCampaign result per trace seed.
using Sweep = std::vector<tenancy::TenancyCampaignResult>;

std::uint64_t mismatches(const Sweep& ref, const Sweep& got) {
  std::uint64_t bad = 0;
  for (std::size_t g = 0; g < ref.size(); ++g) {
    const auto& a = ref[g].points;
    const auto& b = got[g].points;
    if (a.size() != b.size()) {
      bad += a.size();
      continue;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!same_result(a[i].result, b[i].result)) ++bad;
    }
  }
  return bad;
}

}  // namespace

void run_tenancy_sweep(const Args& args, Report& report) {
  util::ThreadPool::set_global_threads(kThreads);
  Tracer tracer(args.trace);
  core::CalibrationCache& cache = core::CalibrationCache::global();
  const hw::ClassMix mix = hetero_mix(kModules);

  std::unique_ptr<cluster::Cluster> fleet;
  std::shared_ptr<const core::Pvt> pvt;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    pvt.reset();
    fleet.reset();
    cache.clear();
    const double t0 = now_s();
    {
      Span span(tracer, "cluster.fabricate");
      fleet = std::make_unique<cluster::Cluster>(
          hw::ha8k(), util::SeedSequence(kPaperFleetSeed), mix);
    }
    {
      Span span(tracer, "core.pvt_generate");
      pvt = std::make_shared<const core::Pvt>(core::Pvt::generate(
          *fleet, workloads::pvt_microbench(), fleet->seed().fork("pvt")));
    }
    setup_s.push_back(now_s() - t0);
  }

  tenancy::TenancyGrid grid;
  grid.arrival_scales = {1.0, 0.5};
  grid.policies = {
      {"contiguous", "equal-share"},
      {"contiguous", "water-fill"},
      {"variation-aware", "equal-share"},
      {"variation-aware", "water-fill"},
  };
  // kTraceSeeds traces drawn from --seed, each swept over the whole grid:
  // one trace seed alone moved speedup_x by ~8% between seeds.
  std::vector<tenancy::TenancyGrid> grids;
  std::vector<tenancy::TenancyTrace> points;  ///< every point of every grid
  InputRng rng(args.seed);
  for (int k = 0; k < kTraceSeeds; ++k) {
    grid.base = make_trace(rng.next());
    grids.push_back(grid);
    for (auto& t : tenancy::TenancyCampaign::expand(grid)) points.push_back(t);
  }
  const tenancy::TenancyCampaign campaign(*fleet, pvt, kThreads);
  auto sweep = [&](const tenancy::TenancyCampaign& c) {
    Sweep out;
    for (const auto& g : grids) out.push_back(c.run(g));
    return out;
  };

  // Cold sweep.
  const double window_start = now_s();
  Sweep cold;
  double cold_s = 0.0;
  core::CalibrationCache::Stats before = cache.stats();
  {
    Span span(tracer, "tenancy.campaign_run");
    const double t0 = now_s();
    cold = sweep(campaign);
    cold_s = now_s() - t0;
  }
  const core::CalibrationCache::Stats after_cold = cache.stats();
  report.attempt(points.size());
  Digest digest;
  std::vector<const tenancy::TenancyPointResult*> cold_points;
  for (const auto& r : cold) {
    for (const auto& p : r.points) cold_points.push_back(&p);
  }
  for (const tenancy::TenancyPointResult* pp : cold_points) {
    const auto& p = *pp;
    digest.add(p.result.makespan_s);
    digest.add(p.result.throughput_jph);
    if (!(p.result.throughput_jph > 0.0) ||
        p.result.jobs.size() != grid.base.jobs.size()) {
      report.failed_op();
      report.fail("a grid point did not finish its trace");
    }
    for (const auto& j : p.result.jobs) {
      if (!allocations_within_budget(j.final_metrics)) {
        report.failed_op();
        report.fail("a job's final segment allocates more than its share");
      }
    }
  }

  // Warm rounds across the whole window, so that a stretch of host
  // contention shifts neither median: each round is one warm sweep on 4
  // threads, bit-identical to the cold one, then every grid point once
  // more on its own, serially, for latency.
  const tenancy::MachineScheduler scheduler(*fleet, pvt);
  const double window_end = window_start + cold_s + args.seconds;
  std::vector<double> warm_s;
  std::vector<double> point_ms;
  std::vector<double> first_point_s;  ///< samples of points.front()
  for (int round = 0; round < 3 || now_s() < window_end; ++round) {
    const double t0 = now_s();
    const Sweep warm = sweep(campaign);
    warm_s.push_back(now_s() - t0);
    report.attempt(points.size());
    if (const std::uint64_t bad = mismatches(cold, warm); bad != 0) {
      report.failed_op(bad);
      report.fail("warm tenancy points differ from the cold sweep");
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
      const double p0 = now_s();
      const tenancy::TenancyResult r = scheduler.run(points[i]);
      const double p1 = now_s();
      point_ms.push_back(1e3 * (p1 - p0));
      if (i == 0) first_point_s.push_back(p1 - p0);
      tracer.record("tenancy.point", i, p0, p1, -1);
      report.attempt();
      if (!same_result(cold_points[i]->result, r)) {
        report.failed_op();
        report.fail("a serial tenancy point differs from the sweep");
      }
    }
  }

  // The same grid on 1 thread must give identical results.
  {
    const tenancy::TenancyCampaign serial(*fleet, pvt, 1);
    const Sweep one = sweep(serial);
    report.attempt(points.size());
    if (const std::uint64_t bad = mismatches(cold, one); bad != 0) {
      report.failed_op(bad);
      report.fail("tenancy results differ between 1 and 4 threads");
    }
  }

  std::vector<double> aware;
  for (const auto& r : cold) {
    aware.push_back(
        r.point(1.0, "variation-aware", "water-fill").throughput_vs_naive);
  }
  report.set("setup_s", median(setup_s));
  report.set("ops_per_s", static_cast<double>(points.size()) / cold_s);
  report.set("warm_ops_per_s",
             static_cast<double>(points.size()) / median(warm_s));
  report.set("latency_p50_ms", percentile(point_ms, 50));
  report.info("tenancy.point_p90_ms", percentile(point_ms, 90));
  report.set("speedup_x", mean(aware));
  report.info("tenancy.points", static_cast<double>(points.size()));
  report.info("tenancy.cold_s", cold_s);
  report.info("tenancy.point_samples", static_cast<double>(point_ms.size()));
  for (const auto& p : cold.front().points) {
    if (p.trace.arrival_scale == 1.0) {
      report.info("tenancy.thr_vs_naive." + p.trace.placement + "+" +
                      p.trace.partition,
                  p.throughput_vs_naive);
    }
  }
  report.info("tenancy.digest", digest.hex());

  if (tracer.enabled()) {
    // The blocking path: the first grid point from a cleared cache. The
    // scheduler fills each admitted job's test runs and oracle PMT through
    // the cache before that job's pipeline runs; those fills are made here
    // first, with the same calls and keys, so each gets its own span and the
    // point then hits them. The point runs with stage telemetry.
    constexpr int kWarmReps = 5;
    const tenancy::TenancyTrace& point = points.front();
    const tenancy::TenancyResult& ref = cold_points.front()->result;
    cache.clear();
    util::Telemetry tel;
    tenancy::TenancyOptions options;
    options.config.telemetry = &tel;
    const tenancy::MachineScheduler traced(*fleet, pvt, options);
    BlockingPath path;
    path.residual_is =
        "the MachineScheduler's own event loop, partitioning and its "
        "uncached calibrate_pmt_per_class calls";
    std::uint64_t test_calls = 0, oracle_calls = 0;
    std::vector<core::ClassTestRuns> class_tests(ref.jobs.size());
    const double t0 = now_s();
    {
      Span root_span(tracer, "bench.tenancy_point_cold");
      for (std::size_t k = 0; k < ref.jobs.size(); ++k) {
        const std::vector<hw::ModuleId>& alloc = ref.jobs[k].allocation;
        if (alloc.empty()) continue;
        const workloads::Workload& w =
            workloads::by_name(point.jobs[k].workload);
        cache_call(tracer, cache, "core.test_run", k, path.layer_s,
                   &test_calls, [&] {
          core::ClassTestRuns& tests = class_tests[k];
          const hw::DeviceClass front = fleet->device_class(alloc.front());
          tests[hw::device_class_index(front)] = cache.test_run(
              *fleet, alloc.front(), w, core::test_run_seed(*fleet, w));
          for (hw::ModuleId id : alloc) {
            const hw::DeviceClass c = fleet->device_class(id);
            auto& slot = tests[hw::device_class_index(c)];
            if (slot) continue;
            slot = cache.test_run(
                *fleet, id, w,
                core::test_run_seed(*fleet, w).fork(hw::device_class_name(c)));
          }
        });
        cache_call(tracer, cache, "core.oracle_pmt", k, path.layer_s,
                   &oracle_calls, [&] {
          static_cast<void>(
              cache.oracle(*fleet, alloc, w, core::oracle_seed(*fleet, w)));
        });
      }
      Span span(tracer, "tenancy.point_cold");
      if (!same_result(ref, traced.run(point))) {
        report.fail("the traced cold point differs from the sweep");
      }
    }
    path.wall_s = now_s() - t0;
    attribute_stages(tel, path);
    const double cold_point = path.wall_s;
    report.attempt();

    // The scheduler's own calibrate_pmt_per_class calls, made again one by
    // one: once at each job's admission and once for its solo reference.
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t k = 0; k < ref.jobs.size(); ++k) {
        if (ref.jobs[k].allocation.empty()) continue;
        Span span(tracer, "core.calibrate_pmt", k);
        static_cast<void>(core::calibrate_pmt_per_class(
            *fleet, *pvt, class_tests[k], ref.jobs[k].allocation));
      }
    }

    // The same point warm, kWarmReps times with stage telemetry.
    util::Telemetry warm_tel;
    options.config.telemetry = &warm_tel;
    const tenancy::MachineScheduler warm_traced(*fleet, pvt, options);
    std::vector<double> warm_points;
    int resolves = 0;
    for (int rep = 0; rep < kWarmReps; ++rep) {
      Span span(tracer, "tenancy.point_warm", static_cast<std::uint64_t>(rep));
      const double s0 = now_s();
      resolves = warm_traced.run(point).resolves;
      warm_points.push_back(now_s() - s0);
    }
    const double warm_point = median(warm_points);
    double stages_s = 0.0;
    for (const auto& [name, st] : warm_tel.stages()) {
      stages_s += st.total_s / kWarmReps;
    }
    int total_resolves = 0;
    for (const auto* p : cold_points) total_resolves += p->result.resolves;
    const auto self = tracer.self_by_name();
    const auto calls = tracer.count_by_name();
    auto stage = [&](const char* n) {
      auto it = tel.stages().find(n);
      return it == tel.stages().end() ? 0.0 : it->second.total_s;
    };
    const std::uint64_t hits = after_cold.hits - before.hits;
    const std::uint64_t misses = after_cold.misses - before.misses;
    report.set("cluster.fabricate_s", self.at("cluster.fabricate") / kSetups);
    report.set("core.pvt_generate_s", self.at("core.pvt_generate") / kSetups);
    report.set("core.test_run_s", path.layer_s["core.test_run"]);
    report.set("core.test_run_calls", static_cast<double>(test_calls));
    report.set("core.oracle_pmt_s", path.layer_s["core.oracle_pmt"]);
    report.set("core.oracle_pmt_calls", static_cast<double>(oracle_calls));
    report.set("core.calibrate_pmt_s", self.at("core.calibrate_pmt"));
    report.set("core.calibrate_pmt_calls",
               static_cast<double>(calls.at("core.calibrate_pmt")));
    report.set("core.cache_hits", static_cast<double>(hits));
    report.set("core.cache_misses", static_cast<double>(misses));
    report.set("core.cache_hit_ratio",
               hits + misses == 0 ? 0.0
                                  : static_cast<double>(hits) /
                                        static_cast<double>(hits + misses));
    report.set("core.stage.model_s", stage("model"));
    report.set("core.stage.solve_s", stage("solve"));
    report.set("core.stage.enforce_s", stage("enforce"));
    report.set("des.execute_s", stage("execute"));
    report.set("tenancy.point_s", median(point_ms) / 1e3);
    report.set("tenancy.resolves", static_cast<double>(total_resolves));
    report.set("tenancy.calibration_fill_s", cold_point - warm_point);
    report.set("tenancy.scheduler_self_s", warm_point - stages_s);
    report.set("trace.overhead_ratio", warm_point / median(first_point_s));
    report.not_entered({"cluster.soa_gather_s", "cluster.power_tree_build_s",
                        "core.solve_flat_s", "core.solve_tree_s",
                        "core.run_scheme_s", "util.parallel_speedup",
                        "service.decode_us", "service.encode_solve_us",
                        "service.encode_run_us", "service.reply_bytes_mean",
                        "service.inproc_latency_us", "service.transport_ms",
                        "service.dedup_ratio", "service.reply_hit_ratio",
                        "service.batches", "service.max_batch",
                        "client.late_p99_ms"});
    report.info("tenancy.point_resolves", static_cast<double>(resolves));
    report.info("tenancy.traced_points",
                static_cast<double>(calls.at("tenancy.point")));
    finish_trace(args, tracer, path, report);
  }
  report.set("peak_rss_mb", peak_rss_mb());
}

}  // namespace perfbench
