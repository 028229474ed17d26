// Shared plumbing of the repository benchmark: command line, the in-memory
// span tracer, sample statistics, result accounting and the one-line JSON
// report that closes every run.
//
// Every workload is a function `run_<name>(const Args&, Report&)` that
// fills the report; main() prints it. End-to-end metrics are measured with
// the tracer disabled; `--trace 1` enables it and the workload reports the
// per-layer metrics instead.
#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 2015;
  double seconds = 10.0;
  bool trace = false;
  std::string vapbd;     ///< path of the vapbd binary
  std::string out_dir;   ///< where span dumps go (inside the checkout)
};

// -- time ---------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

/// Seconds since an arbitrary fixed epoch (steady clock).
double now_s();

// -- statistics ---------------------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]) of `xs`; 0 when empty.
double percentile(std::vector<double> xs, double p);
double median(std::vector<double> xs);
double mean(const std::vector<double>& xs);

/// Incremental input to util::fnv1a, for result digests.
class Digest {
 public:
  void add(const void* data, std::size_t n) {
    bytes_.append(static_cast<const char*>(data), n);
  }
  void add(std::string_view s) { add(s.data(), s.size()); }
  void add(double v) { add(&v, sizeof v); }
  void add(std::uint64_t v) { add(&v, sizeof v); }
  [[nodiscard]] std::uint64_t value() const { return vapb::util::fnv1a(bytes_); }
  [[nodiscard]] std::string hex() const;

 private:
  std::string bytes_;
};

/// util::SplitMix64 with the draws the workloads need: the same --seed gives
/// the same inputs on every platform.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : gen_(seed) {}
  std::uint64_t next() { return gen_.next(); }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  vapb::util::SplitMix64 gen_;
};

/// Peak resident set (VmHWM) of `pid` ("self" for this process) in MB.
double peak_rss_mb(const std::string& pid = "self");

// -- tracing ------------------------------------------------------------------

/// Spans kept in memory and written out when the run ends. A span has a
/// name ("<layer>.<call>"), an id shared by every span of one request or
/// job, a parent and its start/end. Self time is the span's duration minus
/// the part of it that its children cover (their union, so overlapping
/// asynchronous children are not double-counted). Disabled tracers record
/// nothing and never read the clock.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a nested span on the calling thread's stack; returns its index
  /// (-1 when disabled).
  int open(std::string name, std::uint64_t id = 0);
  void close(int index);

  /// Records a finished span explicitly (asynchronous work measured
  /// elsewhere, e.g. a pipelined request). `parent` -1 = the open span.
  void record(std::string name, std::uint64_t id, double start_s,
              double end_s, int parent = -2);

  [[nodiscard]] int current() const { return stack_.empty() ? -1 : stack_.back(); }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Sum of self time / count of spans by name.
  [[nodiscard]] std::map<std::string, double> self_by_name() const;
  [[nodiscard]] std::map<std::string, std::uint64_t> count_by_name() const;

  /// Writes every span as JSON lines (name, id, parent, start, end, self).
  void write(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    std::uint64_t id = 0;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
  };
  std::vector<double> self_all() const;

  bool enabled_;
  std::vector<Record> spans_;
  std::vector<int> stack_;
};

/// RAII nested span.
class Span {
 public:
  Span(Tracer& tracer, std::string name, std::uint64_t id = 0)
      : tracer_(tracer), index_(tracer.open(std::move(name), id)) {}
  ~Span() { tracer_.close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

// -- report -------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every workload reports with --trace 0, and the
/// per-layer metrics every workload reports with --trace 1. A workload sets
/// each per-layer metric or declares that it never enters that layer
/// (reported as 0). BENCHMARK.json lists the same names and units;
/// perfbench/run.py refuses a report whose names differ, or one that
/// declares a metric not entered that predictions.json cites for the
/// workload.
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  void set(const std::string& name, double value);
  /// Per-layer metrics of layers this workload never enters: reported as 0
  /// and listed in the `trace.not_entered` info line. Any other per-layer
  /// metric left unset fails the traced run.
  void not_entered(std::initializer_list<const char*> names);
  /// A failed output check: the run reports correct = false.
  void fail(const std::string& what);
  /// Operation accounting.
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void failed_op(std::uint64_t n = 1) { failed_ += n; }
  /// Informational key/value lines printed before the result line.
  void info(const std::string& key, const std::string& value);
  void info(const std::string& key, double value);

  [[nodiscard]] bool correct() const { return failures_.empty(); }

  /// Prints the info lines, then the result object as the last line.
  /// Returns the process exit code (0, or 1 when a metric is missing).
  int print() const;

 private:
  bool trace_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, double> values_;
  std::vector<std::string> not_entered_;
  std::vector<std::pair<std::string, std::string>> info_;
};

// -- workloads ----------------------------------------------------------------

void run_campaign_fig7(const Args& args, Report& report);
void run_vapbd_mixed(const Args& args, Report& report);
void run_fleet_scale(const Args& args, Report& report);
void run_tenancy_sweep(const Args& args, Report& report);

/// The blocking path of a traced run: one serial phase of the workload,
/// its wall time, and the part of it attributed to layers — the self time
/// of spans around calls into a layer plus the stage totals the program
/// exports for the pipeline runs inside the phase. The rest is the
/// residual: work on the path that no layer figure covers.
struct BlockingPath {
  double wall_s = 0.0;
  std::map<std::string, double> layer_s;  ///< attributed seconds by name
  double max_residual = 0.05;  ///< largest residual share that passes
  const char* residual_is = "";  ///< what the residual holds, for the report
};

/// Runs one CalibrationCache call inside a span `name`; adds its wall
/// seconds to `seconds[name]` and the cache misses it caused to `*misses`.
template <typename Cache, typename Call>
void cache_call(Tracer& tracer, const Cache& cache, const char* name,
                std::uint64_t id, std::map<std::string, double>& seconds,
                std::uint64_t* misses, Call call) {
  const auto before = cache.stats().misses;
  const double t0 = now_s();
  {
    Span span(tracer, name, id);
    call();
  }
  seconds[name] += now_s() - t0;
  *misses += cache.stats().misses - before;
}

/// Folds stage totals ("model", "execute", ...) into `path` as
/// "core.stage.<name>" / "des.execute".
void attribute_stages(const vapb::util::Telemetry& telemetry,
                      BlockingPath& path);

/// Stamps the bookkeeping every traced workload shares: trace.spans,
/// trace.residual_share = 1 - attributed / wall of `path` (a share above
/// path.max_residual, or attribution beyond the wall time, fails the run),
/// one info line per attributed layer, and writes the spans file.
void finish_trace(const Args& args, const Tracer& tracer,
                  const BlockingPath& path, Report& report);

}  // namespace perfbench
