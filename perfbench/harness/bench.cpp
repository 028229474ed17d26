#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

double now_s() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
  const std::size_t k =
      std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, xs.size());
  return xs[k - 1];
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

std::string Digest::hex() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value()));
  return buf;
}

double peak_rss_mb(const std::string& pid) {
  std::ifstream f("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// -- Tracer -------------------------------------------------------------------

int Tracer::open(std::string name, std::uint64_t id) {
  if (!enabled_) return -1;
  Record s;
  s.name = std::move(name);
  s.id = id;
  s.parent = current();
  s.start_s = now_s();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  if (!enabled_ || index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_s = now_s();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void Tracer::record(std::string name, std::uint64_t id, double start_s,
                    double end_s, int parent) {
  if (!enabled_) return;
  Record s;
  s.name = std::move(name);
  s.id = id;
  s.parent = parent == -2 ? current() : parent;
  s.start_s = start_s;
  s.end_s = end_s;
  spans_.push_back(std::move(s));
}

std::vector<double> Tracer::self_all() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Record& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s,
                                                                s.end_s);
    }
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = -1.0;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, spans_[i].start_s);
      hi = std::min(hi, spans_[i].end_s);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, spans_[i].end_s - spans_[i].start_s - covered);
  }
  return self;
}

std::map<std::string, double> Tracer::self_by_name() const {
  std::map<std::string, double> out;
  const std::vector<double> self = self_all();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += self[i];
  }
  return out;
}

std::map<std::string, std::uint64_t> Tracer::count_by_name() const {
  std::map<std::string, std::uint64_t> out;
  for (const Record& s : spans_) ++out[s.name];
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return;
  const std::vector<double> self = self_all();
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  ", \"id\": %llu, \"parent\": %d, \"start_s\": %.9f, "
                  "\"end_s\": %.9f, \"self_s\": %.9f}",
                  static_cast<unsigned long long>(s.id), s.parent, s.start_s,
                  s.end_s, self[i]);
    f << "{\"span\": " << i << ", \"name\": \"" << s.name << '"' << buf
      << '\n';
  }
}

// -- metric catalog -----------------------------------------------------------

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"ops_per_s", "1/s"},
      {"warm_ops_per_s", "1/s"},
      {"latency_p50_ms", "ms"},
      {"speedup_x", "x"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"cluster.fabricate_s", "s"},
      {"cluster.soa_gather_s", "s"},
      {"cluster.power_tree_build_s", "s"},
      {"core.pvt_generate_s", "s"},
      {"core.test_run_s", "s"},
      {"core.test_run_calls", "count"},
      {"core.oracle_pmt_s", "s"},
      {"core.oracle_pmt_calls", "count"},
      {"core.calibrate_pmt_s", "s"},
      {"core.calibrate_pmt_calls", "count"},
      {"core.stage.model_s", "s"},
      {"core.stage.solve_s", "s"},
      {"core.stage.enforce_s", "s"},
      {"core.cache_hits", "count"},
      {"core.cache_misses", "count"},
      {"core.cache_hit_ratio", "ratio"},
      {"core.solve_flat_s", "s"},
      {"core.solve_tree_s", "s"},
      {"core.run_scheme_s", "s"},
      {"des.execute_s", "s"},
      {"util.parallel_speedup", "x"},
      {"service.decode_us", "us"},
      {"service.encode_solve_us", "us"},
      {"service.encode_run_us", "us"},
      {"service.reply_bytes_mean", "B"},
      {"service.inproc_latency_us", "us"},
      {"service.transport_ms", "ms"},
      {"service.dedup_ratio", "ratio"},
      {"service.reply_hit_ratio", "ratio"},
      {"service.batches", "count"},
      {"service.max_batch", "count"},
      {"client.late_p99_ms", "ms"},
      {"tenancy.point_s", "s"},
      {"tenancy.resolves", "count"},
      {"tenancy.calibration_fill_s", "s"},
      {"tenancy.scheduler_self_s", "s"},
      {"trace.spans", "count"},
      {"trace.residual_share", "ratio"},
      {"trace.overhead_ratio", "x"},
  };
  return defs;
}

// -- Report -------------------------------------------------------------------

void Report::set(const std::string& name, double value) {
  values_[name] = value;
}

void Report::not_entered(std::initializer_list<const char*> names) {
  for (const char* n : names) not_entered_.emplace_back(n);
}

void Report::fail(const std::string& what) {
  failures_.push_back(what);
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

void Report::info(const std::string& key, double value) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  info_.emplace_back(key, buf);
}

int Report::print() const {
  for (const auto& [k, v] : info_) std::printf("info %s = %s\n", k.c_str(), v.c_str());
  for (const std::string& f : failures_) std::printf("check failed: %s\n", f.c_str());
  if (trace_) {
    // The traced run's end-to-end figures, to set against an untraced run's.
    for (const MetricDef& d : end_to_end_metrics()) {
      if (auto it = values_.find(d.name); it != values_.end()) {
        std::printf("info e2e.%s = %.6g\n", d.name, it->second);
      }
    }
  }
  const auto& defs = trace_ ? per_layer_metrics() : end_to_end_metrics();
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  int missing = 0;
  for (const MetricDef& d : defs) {
    const bool declared = std::find(not_entered_.begin(), not_entered_.end(),
                                    d.name) != not_entered_.end();
    if (trace_ && declared && values_.count(d.name) != 0) {
      std::fprintf(stderr, "perfbench: metric %s is set but declared not entered\n",
                   d.name);
      ++missing;
    }
  }
  if (trace_) {
    std::string list;
    for (const std::string& n : not_entered_) list += (list.empty() ? "" : ",") + n;
    std::printf("info trace.not_entered = %s\n", list.c_str());
  }
  for (const MetricDef& d : defs) {
    auto it = values_.find(d.name);
    double v = 0.0;
    const bool declared = std::find(not_entered_.begin(), not_entered_.end(),
                                    d.name) != not_entered_.end();
    if (it != values_.end()) {
      v = it->second;
    } else if (!trace_ || !declared) {
      std::fprintf(stderr, "perfbench: metric %s not measured\n", d.name);
      ++missing;
    }
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", d.name);
      ++missing;
      v = 0.0;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << (first ? "" : ", ") << '"' << d.name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  os << "}}";
  if (missing != 0) return 1;
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
  return 0;
}

void attribute_stages(const vapb::util::Telemetry& telemetry,
                      BlockingPath& path) {
  for (const auto& [name, st] : telemetry.stages()) {
    path.layer_s[name == "execute" ? std::string("des.execute")
                                   : "core.stage." + name] += st.total_s;
  }
}

void finish_trace(const Args& args, const Tracer& tracer,
                  const BlockingPath& path, Report& report) {
  if (!tracer.enabled()) return;
  double attributed = 0.0;
  for (const auto& [name, s] : path.layer_s) {
    attributed += s;
    report.info("path." + name + "_s", s);
  }
  const double residual =
      path.wall_s > 0.0 ? 1.0 - attributed / path.wall_s : 1.0;
  report.set("trace.spans", static_cast<double>(tracer.size()));
  report.set("trace.residual_share", residual);
  report.info("path.wall_s", path.wall_s);
  report.info("path.residual_is", path.residual_is);
  report.info("path.max_residual_share", path.max_residual);
  if (residual > path.max_residual) {
    report.fail("layer figures cover only " +
                std::to_string(100.0 * (1.0 - residual)) +
                "% of the blocking path; " +
                std::to_string(100.0 * path.max_residual) + "% is the limit");
  } else if (residual < -0.01) {
    report.fail("layer figures add up to more than the blocking path");
  }
  if (!args.out_dir.empty()) {
    const std::string path_name = args.out_dir + "/trace-" + args.workload +
                                  "-" + std::to_string(args.seed) + ".jsonl";
    tracer.write(path_name);
    report.info("trace.file", path_name);
  }
}

}  // namespace perfbench

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--vapbd PATH] [--out-dir DIR]\n"
               "workloads: campaign_fig7 vapbd_mixed fleet_scale "
               "tenancy_sweep\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--vapbd") {
      args.vapbd = value;
    } else if (key == "--out-dir") {
      args.out_dir = value;

    } else {
      usage();
      return 2;
    }
  }
  if (!(args.seconds > 0.0)) {
    usage();
    return 2;
  }
  Report report(args.trace);
  try {
    if (args.workload == "campaign_fig7") {
      run_campaign_fig7(args, report);
    } else if (args.workload == "vapbd_mixed") {
      run_vapbd_mixed(args, report);
    } else if (args.workload == "fleet_scale") {
      run_fleet_scale(args, report);
    } else if (args.workload == "tenancy_sweep") {
      run_tenancy_sweep(args, report);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  return report.print();
}
