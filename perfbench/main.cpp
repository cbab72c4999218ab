// Repository benchmark: runs one whole-scenario workload — a src-scenario-v1
// manifest under perfbench/workloads — and prints its end-to-end metrics, or
// with --trace 1 its per-layer metrics.
//
// Every layer is measured from outside. The benchmark times calls into the
// public entry points (scenario::parse_scenario / build / build_pod, the built
// trace factory, core::collect_training_data, Tpm::fit / predict_batch,
// core::run_experiment / run_pod_experiment, core::run_standalone) and reads
// the passive obs::Observatory snapshot of a traced run. Each workload is a
// batch run: one seeded trace set replayed open-loop in simulated time, so
// host time measures the simulator alone. Run times are the fastest of a
// window of identical runs (see fastest()), and so is setup_s, over setups
// spread through that window.
//
//   perfbench --workload NAME --manifest-dir DIR [--seed N] [--seconds S]
//             [--trace 0|1] [--smoke] [--out-dir DIR] [--commit ID]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}. A failed correctness check prints its reason on stderr, a
// result with correct=false and no metrics, and exits 1. A layer metric the
// workload cannot observe is reported as -1 and listed under "absent" in
// the stamp line printed just before the result.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/podscale.hpp"
#include "core/presets.hpp"
#include "core/standalone.hpp"
#include "core/tpm.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "scenario/build.hpp"
#include "scenario/serialize.hpp"
#include "workload/features.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace src;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The fastest of several timings of one deterministic computation. On a
/// shared host, interference from other tenants only ever adds time and
/// comes in bursts lasting seconds, so the fastest run of a window is a far
/// steadier estimate of the program's own cost than the median. The same
/// holds for setup: a sub-millisecond setup's median moved 31% between two
/// sets of runs of the same code as the host got busier.
double fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// A correctness check failed: the run reports no numbers.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

// ---------------------------------------------------------------------------
// Command line

struct Options {
  std::string workload;
  std::string manifest_dir;
  std::optional<std::uint64_t> seed;  ///< unset: the manifest's preset seed
  double seconds = 30.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --manifest-dir DIR [--seed N]\n"
               "                 [--seconds S] [--trace 0|1] [--smoke]\n"
               "                 [--out-dir DIR] [--commit ID]\n",
               error.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos ||
      text.size() > 19) {
    usage(flag + " needs a non-negative integer (got '" + text + "')");
  }
  return std::stoull(text);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--manifest-dir") {
      opt.manifest_dir = value;
    } else if (flag == "--seed") {
      opt.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<double>(parse_u64(flag, value));
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else if (flag == "--commit") {
      opt.commit = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (opt.manifest_dir.empty()) usage("--manifest-dir is required");
  return opt;
}

// ---------------------------------------------------------------------------
// Workloads: workload "a-b" is the manifest a_b.json. Why each exists is
// recorded in BENCHMARK.json; the manifests carry the calibration.

std::string manifest_path(const Options& opt) {
  std::string file = opt.workload;
  std::replace(file.begin(), file.end(), '-', '_');
  const std::string path = opt.manifest_dir + "/" + file + ".json";
  if (opt.workload.find_first_of("/.") != std::string::npos || !std::ifstream(path)) {
    usage("unknown workload '" + opt.workload + "' (no manifest " + path + ")");
  }
  return path;
}

// ---------------------------------------------------------------------------
// Bench-side spans: host-time intervals around each call into a layer, kept
// in memory and written out as a Chrome trace when the benchmark ends.

class SpanLog {
 public:
  /// Runs `fn` inside a span named `name`, nested under the open span, and
  /// returns its host seconds.
  template <class Fn>
  double time(const std::string& name, Fn&& fn) {
    const std::size_t id = spans_.size();
    const int parent = stack_.empty() ? -1 : static_cast<int>(stack_.back());
    const auto start = Clock::now();
    spans_.push_back({name, micros(start), 0.0, parent});
    stack_.push_back(id);
    fn();
    const double s = seconds_since(start);
    stack_.pop_back();
    spans_[id].dur_us = s * 1e6;
    return s;
  }

  void write_chrome(const std::string& path, obs::Json metadata) const {
    obs::Json events{obs::Json::Array{}};
    for (std::size_t id = 0; id < spans_.size(); ++id) {
      const Span& span = spans_[id];
      obs::Json args{obs::Json::Object{}};
      args.set("id", obs::Json{static_cast<std::uint64_t>(id)});
      args.set("parent", obs::Json{span.parent});
      obs::Json event{obs::Json::Object{}};
      event.set("name", obs::Json{span.name});
      event.set("cat", obs::Json{"perfbench"});
      event.set("ph", obs::Json{"X"});
      event.set("ts", obs::Json{span.start_us});
      event.set("dur", obs::Json{span.dur_us});
      event.set("pid", obs::Json{1});
      event.set("tid", obs::Json{1});
      event.set("args", std::move(args));
      events.push_back(std::move(event));
    }
    obs::Json doc{obs::Json::Object{}};
    doc.set("traceEvents", std::move(events));
    doc.set("metadata", std::move(metadata));
    std::ofstream out(path);
    out << doc.dump(1) << "\n";
    if (!out) throw std::runtime_error("cannot write " + path);
  }

 private:
  struct Span {
    std::string name;
    double start_us;
    double dur_us;
    int parent;
  };

  double micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

// ---------------------------------------------------------------------------
// Setup: manifest -> ready-to-run config with pre-generated traces.

struct Setup {
  scenario::ScenarioSpec spec;
  bool pod = false;
  std::shared_ptr<const core::Tpm> tpm;  ///< SRC workloads only
  scenario::BuiltScenario star;          ///< star kind
  core::PodExperimentConfig pod_config;  ///< pod kind
  std::shared_ptr<const std::vector<workload::Trace>> traces;
  std::uint64_t requests = 0;

  double parse_s = 0.0;
  double build_s = 0.0;
  double gen_s = 0.0;
  double collect_s = 0.0;
  double fit_s = 0.0;
  double total_s = 0.0;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read manifest " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Smoke scale: a tenth of the requests and, for the pod, a 128-host
/// grammar — enough to exercise every code path and print every metric.
void shrink_for_smoke(scenario::ScenarioSpec& spec) {
  for (scenario::WorkloadSpec& w : spec.workloads) {
    w.micro.read.count /= 10;
    w.micro.write.count /= 10;
    w.synthetic.read.count /= 10;
    w.synthetic.write.count /= 10;
  }
  if (spec.topology.kind == "pod") spec.topology.pod.hosts_per_rack = 8;
}

/// The training grid core::train_default_tpm uses, rebuilt here so that
/// collection and fitting can be timed apart. The trace-mode check that
/// this TPM reproduces the manifest's "train-default" results guards the
/// copy against drift.
core::TrainingGrid default_grid(const ssd::SsdConfig& ssd, std::uint64_t seed) {
  std::vector<double> iat_grid;
  if (ssd.read_latency <= 10 * common::kMicrosecond) {
    iat_grid = {5.0, 8.0, 12.0, 18.0, 27.0};
  }
  return core::default_training_grid(6000, seed, std::move(iat_grid));
}

Setup prepare(const Options& opt, const std::string& path, SpanLog& spans) {
  Setup s;
  const auto start = Clock::now();
  s.parse_s = spans.time("scenario.parse_scenario", [&] {
    s.spec = scenario::parse_scenario(read_file(path), path);
  });
  // One seed feeds both the traces and the TPM training grid.
  if (opt.seed) {
    s.spec.seed = *opt.seed;
    s.spec.src.tpm.train_seed = *opt.seed;
  }
  if (opt.smoke) shrink_for_smoke(s.spec);
  s.pod = s.spec.topology.kind == "pod";

  if (s.spec.src.enabled) {
    std::optional<ml::Dataset> data;
    s.collect_s = spans.time("core.collect_training_data", [&] {
      data = core::collect_training_data(
          s.spec.ssd, default_grid(s.spec.ssd, s.spec.src.tpm.train_seed));
    });
    auto tpm = std::make_shared<core::Tpm>();
    s.fit_s = spans.time("core.Tpm.fit", [&] { tpm->fit(*data); });
    s.tpm = std::move(tpm);
  }

  scenario::BuildOptions build_options;
  build_options.tpm = s.tpm.get();
  s.build_s = spans.time(s.pod ? "scenario.build_pod" : "scenario.build", [&] {
    if (s.pod) {
      s.pod_config = scenario::build_pod(s.spec, build_options);
    } else {
      s.star = scenario::build(s.spec, build_options);
    }
  });

  // Generate every initiator's trace once; the runs replay copies of them.
  auto& factory = s.pod ? s.pod_config.trace_for : s.star.config.trace_for;
  auto traces = std::make_shared<std::vector<workload::Trace>>();
  s.gen_s = spans.time("workload.trace_for", [&] {
    for (std::size_t i = 0; i < s.spec.topology.initiators; ++i) {
      traces->push_back(factory(i));
    }
  });
  for (const workload::Trace& trace : *traces) s.requests += trace.size();
  factory = [traces](std::size_t i) { return (*traces)[i]; };
  s.traces = std::move(traces);
  s.total_s = seconds_since(start);
  return s;
}

// ---------------------------------------------------------------------------
// Runs. An Outcome holds every simulated result; two runs of one set must
// produce identical digests.

struct Outcome {
  /// Every simulated count and latency, exactly.
  std::string counts;
  /// `counts` plus the throughputs, which are averaged up to the time of the
  /// last event and so also depend on the kernel's clock.
  std::string digest;
  std::uint64_t events = 0;
  common::SimTime end_time = 0;
  std::uint64_t completed_ios = 0;
  std::uint64_t failed_ios = 0;
  std::uint64_t pauses = 0;
  std::uint64_t cross_shard = 0;
  double aggregate_gbps = 0.0;
  double read_jain = 0.0;
};

Outcome outcome_of(const core::ExperimentResult& r) {
  Outcome o;
  std::ostringstream d;
  d << std::hexfloat << "pauses " << r.total_pauses
    << " cnps " << r.total_cnps << " reads " << r.reads_completed << " writes "
    << r.writes_completed << " failed " << r.reads_failed << "/"
    << r.writes_failed << " retries " << r.retries << " timeouts " << r.timeouts
    << " errors " << r.error_completions << " completed " << r.completed
    << " adjustments " << r.adjustments.size()
    << " w " << r.final_weight_ratio() << " rejected "
    << r.controller_stats.rejected_predictions << " read_p99 "
    << r.read_latency.quantile_us(0.99) << " write_p99 "
    << r.write_latency.quantile_us(0.99);
  o.counts = d.str();
  d << " read " << r.read_rate.as_bytes_per_second() << " write "
    << r.write_rate.as_bytes_per_second() << " shares";
  for (const common::Rate rate : r.per_initiator_read_rate) {
    d << " " << rate.as_bytes_per_second();
  }
  o.digest = d.str();
  o.events = r.events_executed;
  o.end_time = r.end_time;
  o.completed_ios = r.reads_completed + r.writes_completed;
  o.failed_ios = r.reads_failed + r.writes_failed;
  o.pauses = r.total_pauses;
  o.aggregate_gbps = r.aggregate_rate().as_gbps();
  o.read_jain = r.read_fairness_index();
  return o;
}

Outcome outcome_of(const core::PodExperimentResult& r) {
  Outcome o;
  o.counts = o.digest = r.snapshot();
  o.events = r.events_executed;
  o.end_time = r.end_time;
  o.completed_ios = r.reads_completed + r.writes_completed;
  o.pauses = r.total_pauses;
  o.cross_shard = r.cross_shard_messages;
  std::uint64_t bytes = 0;
  for (const std::uint64_t b : r.per_initiator_read_bytes) bytes += b;
  for (const std::uint64_t b : r.per_target_write_bytes) bytes += b;
  o.aggregate_gbps = static_cast<double>(bytes) * 8.0 /
                     static_cast<double>(r.end_time);  // bits per ns = Gbps
  o.read_jain = r.read_fairness_index();
  return o;
}

/// What one run may change relative to the prepared setup.
struct RunVariant {
  obs::Observatory* observatory = nullptr;
  std::size_t lanes = 0;  ///< pod only; 0 keeps the manifest's lane count
};

/// One simulation of the prepared workload; `wall` gets the host seconds of
/// the run call alone.
Outcome run_once(const Setup& s, SpanLog& spans, const std::string& label,
                 const RunVariant& variant, double& wall) {
  if (s.pod) {
    core::PodExperimentConfig config = s.pod_config;
    config.observatory = variant.observatory;
    if (variant.lanes != 0) config.lanes = variant.lanes;
    core::PodExperimentResult result;
    wall = spans.time(label + " core.run_pod_experiment",
                      [&] { result = core::run_pod_experiment(config); });
    return outcome_of(result);
  }
  core::ExperimentConfig config = s.star.config;
  config.observatory = variant.observatory;
  core::ExperimentResult result;
  wall = spans.time(label + " core.run_experiment",
                    [&] { result = core::run_experiment(config); });
  return outcome_of(result);
}

/// `counts_only`: the run scheduled passive events of its own (verifier
/// polls). They add events and can move the time of the last event, and with
/// it the averaged throughputs; every count and latency must still match.
void expect_same(const Outcome& ref, const Outcome& got, const std::string& what,
                 bool counts_only = false) {
  const std::string& want = counts_only ? ref.counts : ref.digest;
  const std::string& have = counts_only ? got.counts : got.digest;
  check(have == want, what + ": simulated results differ from the reference run\n  ref: " +
                          want + "\n  got: " + have);
  check(counts_only || (got.events == ref.events && got.end_time == ref.end_time),
        what + ": event count or end time differs from the reference run (" +
            std::to_string(ref.events) + " events at " + std::to_string(ref.end_time) +
            " ns vs " + std::to_string(got.events) + " at " +
            std::to_string(got.end_time) + " ns)");
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  bool absent = false;
};

class MetricSet {
 public:
  /// `observed` false: a metric this workload cannot observe. It prints as
  /// -1, never as 0, so a later change that makes it observable does not
  /// read as a jump from 0.
  void add(std::string name, std::string unit, double value, bool observed = true) {
    metrics_.push_back(
        {std::move(name), std::move(unit), observed ? value : -1.0, !observed});
  }
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t counter(const obs::Observatory& o, const char* name) {
  const obs::Counter* c = o.metrics().find_counter(name);
  return c == nullptr ? 0 : c->value();
}

/// Quantile of an observatory latency histogram, interpolated linearly
/// inside its bucket. FixedHistogram::quantile answers with bucket
/// midpoints, which on the 1-2-5 latency buckets makes two distributions
/// sharing a bucket read as equal and their difference as 0.
double quantile_us(const obs::Observatory& o, const char* name, double q) {
  const obs::FixedHistogram* h = o.metrics().find_histogram(name);
  if (h == nullptr || h->total() == 0) return 0.0;
  const std::vector<double>& bounds = h->bounds();
  const double rank = q * static_cast<double>(h->total());
  double seen = 0.0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    const double count = static_cast<double>(h->bucket(i));
    if (count > 0.0 && seen + count >= rank) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      return lo + (bounds[i] - lo) * (rank - seen) / count;
    }
    seen += count;
  }
  return bounds.back();  // overflow bucket
}

/// The request stream target 0 serves: initiators spread their records
/// round-robin over the targets (core::run_experiment), merged by arrival.
workload::Trace target0_stream(const Setup& s) {
  workload::Trace stream;
  const std::size_t targets = s.spec.topology.targets;
  for (const workload::Trace& trace : *s.traces) {
    for (std::size_t i = 0; i < trace.size(); i += targets) stream.push_back(trace[i]);
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const workload::TraceRecord& a, const workload::TraceRecord& b) {
                     return a.arrival < b.arrival;
                   });
  return stream;
}

/// Host nanoseconds per predicted row of Tpm::predict_batch over the
/// workload's own Ch at w = 1..max_weight_ratio (Algorithm 1's search).
double predict_ns_per_row(const Setup& s, const workload::Trace& stream,
                          SpanLog& spans) {
  const workload::WorkloadFeatures ch = workload::extract_features(stream);
  std::vector<double> ws;
  for (std::uint32_t w = 1; w <= s.spec.src.params.max_weight_ratio; ++w) {
    ws.push_back(static_cast<double>(w));
  }
  std::vector<core::TpmPrediction> out(ws.size());
  std::vector<double> per_row;
  spans.time("core.Tpm.predict_batch", [&] {
    for (int block = 0; block < 7; ++block) {
      const auto start = Clock::now();
      std::size_t rows = 0;
      do {
        s.tpm->predict_batch(ch, ws, out);
        rows += ws.size();
      } while (seconds_since(start) < 0.03);
      per_row.push_back(seconds_since(start) * 1e9 / static_cast<double>(rows));
    }
  });
  return fastest(per_row);
}

// ---------------------------------------------------------------------------
// Output

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string fmt_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  obs::Json values{obs::Json::Object{}};
  for (const Metric& metric : metrics) {
    obs::Json entry{obs::Json::Object{}};
    entry.set("value", obs::Json{metric.value});
    entry.set("unit", obs::Json{metric.unit});
    values.set(metric.name, std::move(entry));
  }
  obs::Json result{obs::Json::Object{}};
  result.set("correct", obs::Json{correct});
  result.set("attempted", obs::Json{attempted});
  result.set("failed", obs::Json{failed});
  result.set("metrics", std::move(values));
  std::cout << result.dump() << std::endl;
}

// ---------------------------------------------------------------------------
// The benchmark

struct Bench {
  Options opt;
  std::string manifest;
  SpanLog spans;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;
  std::uint64_t seed = 0;  ///< the workload seed actually used

  /// One measurement window: the setup the runs use, a warm-up run whose
  /// outcome every later run must reproduce, then timed runs for
  /// opt.seconds (at least `min_runs`). Further setups (at least 3 in all,
  /// at most about half of the window) come in short bursts after each
  /// run, so setup and run samples see the same mix of quiet and busy host
  /// periods. The cap on their number grows with the elapsed share of the
  /// window, so cheap setups are spread through all of it rather than
  /// spent in its first seconds.
  struct Window {
    std::optional<Setup> setup;  ///< per-phase times are the fastest over setups
    std::vector<double> setup_totals;
    std::vector<double> walls;
    Outcome ref;
    double peak_rss_mb = 0.0;  ///< after the first setup and the warm-up run
  };

  static constexpr double kMaxSetups = 500.0;

  Window measure(std::size_t min_runs) {
    Window w;
    std::vector<double> parse, build, gen, collect, fit;
    auto set_up = [&] {
      std::optional<Setup> s;
      spans.time("setup", [&] { s = prepare(opt, manifest, spans); });
      w.setup_totals.push_back(s->total_s);
      parse.push_back(s->parse_s);
      build.push_back(s->build_s);
      gen.push_back(s->gen_s);
      collect.push_back(s->collect_s);
      fit.push_back(s->fit_s);
      if (!w.setup) w.setup = std::move(s);
    };
    auto setup_spent = [&] {
      double total = 0.0;
      for (const double t : w.setup_totals) total += t;
      return total;
    };

    set_up();
    const Setup& s = *w.setup;
    seed = s.spec.seed;
    double wall = 0.0;
    w.ref = run_once(s, spans, "warmup", {}, wall);
    // Read here, the peak is what one setup and one simulation need. Later
    // runs only add allocator fragmentation, which on the lane engine
    // depends on how threads land on malloc arenas and varied by 2.5 MB
    // between runs of one seed.
    w.peak_rss_mb = peak_rss_mb();
    const auto start = Clock::now();
    while (w.walls.size() < min_runs || seconds_since(start) < opt.seconds) {
      const Outcome got = run_once(s, spans, "timed", {}, wall);
      expect_same(w.ref, got, "timed run " + std::to_string(w.walls.size() + 1));
      w.walls.push_back(wall);
      const auto burst = Clock::now();
      const double share = std::min(1.0, seconds_since(start) / opt.seconds);
      while (w.setup_totals.size() < 3 ||
             (static_cast<double>(w.setup_totals.size()) < kMaxSetups * share &&
              setup_spent() < seconds_since(start) / 2.0 &&
              seconds_since(burst) < wall / 20.0)) {
        set_up();
      }
    }
    while (w.setup_totals.size() < 3) set_up();
    w.setup->parse_s = fastest(parse);
    w.setup->build_s = fastest(build);
    w.setup->gen_s = fastest(gen);
    w.setup->collect_s = fastest(collect);
    w.setup->fit_s = fastest(fit);

    attempted += s.requests * w.walls.size();
    failed += w.ref.failed_ios * w.walls.size();
    std::string runs = "timed run seconds:";
    for (const double t : w.walls) runs += " " + fmt_number(t);
    notes.push_back(runs);
    notes.push_back("setups: " + std::to_string(w.setup_totals.size()) +
                    ", median setup seconds " + fmt_number(median(w.setup_totals)) +
                    ", fastest " + fmt_number(fastest(w.setup_totals)));
    return w;
  }

  std::vector<Metric> end_to_end() {
    const Window w = measure(1);
    MetricSet m;
    m.add("setup_s", "s", fastest(w.setup_totals));
    m.add("sim_s_per_wall_s", "s/s", common::to_seconds(w.ref.end_time) / fastest(w.walls));
    m.add("peak_rss_mb", "MB", w.peak_rss_mb);
    m.add("sim_aggregate_gbps", "Gbps", w.ref.aggregate_gbps);
    m.add("sim_read_jain", "ratio", w.ref.read_jain);
    return m.all();
  }

  std::vector<Metric> per_layer() {
    const Window w = measure(3);
    const Setup& s = *w.setup;
    const Outcome& ref = w.ref;
    const bool star = !s.pod;
    const bool src_on = s.spec.src.enabled;
    const double untraced = fastest(w.walls);

    // Traced runs: a fresh observatory with tracing on each time, otherwise
    // identical. The layer counters come from the last one. Lane runs record
    // nothing into it yet, so the pod cannot observe the network, fabric
    // and storage layers; only the SSQ driver (SRC on) arbitrates.
    std::optional<obs::Observatory> last_observatory;
    std::vector<double> traced;
    for (std::size_t i = 0; i < (opt.smoke ? 1 : 2); ++i) {
      last_observatory.emplace(obs::ObsConfig{true, obs::EventTracer::kDefaultCapacity});
      RunVariant observed;
      observed.observatory = &*last_observatory;
      double wall = 0.0;
      expect_same(ref, run_once(s, spans, "traced", observed, wall), "traced run");
      traced.push_back(wall);
    }
    const obs::Observatory& o = *last_observatory;
    auto count = [&o](const char* name) { return static_cast<double>(counter(o, name)); };

    MetricSet m;
    m.add("scenario.parse_s", "s", s.parse_s);
    m.add("scenario.build_s", "s", s.build_s);
    m.add("workload.gen_s", "s", s.gen_s);
    m.add("workload.requests", "count", static_cast<double>(s.requests));

    const workload::Trace stream = star ? target0_stream(s) : workload::Trace{};
    m.add("ml.tpm_collect_s", "s", s.collect_s, src_on);
    m.add("ml.tpm_fit_s", "s", s.fit_s, src_on);
    m.add("ml.predict_ns", "ns", src_on ? predict_ns_per_row(s, stream, spans) : 0.0, src_on);
    for (const char* name : {"src.adjustments", "src.weight_changes", "src.rejected_predictions"}) {
      m.add(name, "count", count(name), src_on);
    }

    const double events = static_cast<double>(ref.events);
    m.add("sim.events", "count", events);
    m.add("sim.events_per_s", "1/s", events / untraced);
    m.add("sim.events_per_io", "ratio",
          events / static_cast<double>(std::max<std::uint64_t>(ref.completed_ios, 1)));
    m.add("core.pauses", "count", static_cast<double>(ref.pauses));

    const double l1 = s.pod ? one_lane_seconds(s, ref) : 0.0;
    m.add("lane.cross_shard_frac", "ratio", static_cast<double>(ref.cross_shard) / events, s.pod);
    m.add("lane.l1_run_s", "s", l1, s.pod);
    m.add("lane.scaling", "ratio", l1 / untraced, s.pod);

    for (const char* name :
         {"net.pfc.pauses_sent", "net.port.ecn_marks", "net.port.packets_dropped",
          "net.dcqcn.cnps", "net.swift.delay_samples", "net.dcqcn.rate_cuts",
          "net.swift.rate_cuts", "net.cubic.rate_cuts"}) {
      m.add(name, "count", count(name), star);
    }
    // Time reads waited in the network: fabric minus nvme read latency.
    m.add("net.read_wait_us.p50", "us",
          quantile_us(o, "fabric.read_latency_us", 0.5) - quantile_us(o, "nvme.read_latency_us", 0.5),
          star);
    m.add("net.read_wait_us.p99", "us",
          quantile_us(o, "fabric.read_latency_us", 0.99) -
              quantile_us(o, "nvme.read_latency_us", 0.99),
          star);
    for (const char* hist : {"fabric.read_latency_us", "fabric.write_latency_us"}) {
      m.add(std::string(hist) + ".p50", "us", quantile_us(o, hist, 0.5), star);
      m.add(std::string(hist) + ".p99", "us", quantile_us(o, hist, 0.99), star);
    }
    const double issued = count("fabric.reads_issued") + count("fabric.writes_issued");
    const double finished = count("fabric.reads_completed") + count("fabric.writes_completed") +
                            count("fabric.requests_failed");
    m.add("fabric.unfinished", "count", issued - finished, star);
    m.add("fabric.retries", "count", count("fabric.retries"), star);
    m.add("fabric.timeouts", "count", count("fabric.timeouts"), star);
    m.add("nvme.read_latency_us.p50", "us", quantile_us(o, "nvme.read_latency_us", 0.5), star);
    m.add("nvme.read_latency_us.p99", "us", quantile_us(o, "nvme.read_latency_us", 0.99), star);
    for (const char* name : {"nvme.ssq.fetched_from_rsq", "nvme.ssq.fetched_from_wsq",
                             "nvme.ssq.weight_adjustments"}) {
      m.add(name, "count", count(name), src_on);
    }

    const double replay = star ? storage_replay_seconds(s, stream) : 0.0;
    m.add("storage.replay_s", "s", replay, star);
    m.add("storage.ns_per_io", "ns",
          replay * 1e9 / static_cast<double>(std::max<std::size_t>(stream.size(), 1)), star);
    for (const char* name : {"ssd.cache_absorbed_writes", "ssd.sync_writes", "ssd.gc.invocations"}) {
      m.add(name, "count", count(name), star);
    }
    m.add("obs.trace_overhead", "ratio", fastest(traced) / untraced);

    if (star) verify_star(s, ref);
    if (src_on) check_train_default(s, ref);
    return m.all();
  }

  /// The lane engine's scaling point: the same spec at one lane must
  /// reproduce the result exactly; returns the fastest 1-lane run time.
  double one_lane_seconds(const Setup& s, const Outcome& ref) {
    std::vector<double> walls;
    for (std::size_t i = 0; i < (opt.smoke ? 1 : 2); ++i) {
      RunVariant one_lane;
      one_lane.lanes = 1;
      double wall = 0.0;
      expect_same(ref, run_once(s, spans, "lanes=1", one_lane, wall),
                  "1-lane run vs " + std::to_string(s.pod_config.lanes) + " lanes");
      walls.push_back(wall);
    }
    return fastest(walls);
  }

  /// The storage stack's host cost alone: target 0's request stream on a
  /// fresh device behind the workload's driver, with no network.
  double storage_replay_seconds(const Setup& s, const workload::Trace& stream) {
    core::StandaloneOptions options;
    options.use_ssq = s.star.config.driver_mode.value_or(s.spec.src.enabled
                                                             ? fabric::DriverMode::kSsq
                                                             : fabric::DriverMode::kFifo) ==
                      fabric::DriverMode::kSsq;
    options.seed = s.spec.seed;
    std::vector<double> walls;
    std::optional<std::uint64_t> completed;
    for (int i = 0; i < (opt.smoke ? 1 : 3); ++i) {
      core::StandaloneResult r;
      walls.push_back(spans.time("core.run_standalone",
                                 [&] { r = core::run_standalone(s.spec.ssd, stream, options); }));
      const std::uint64_t n = r.reads_completed + r.writes_completed;
      check(!completed || *completed == n, "standalone replay is not repeatable");
      completed = n;
    }
    return fastest(walls);
  }

  /// Arms verify::RigVerifier through the spec's verify block; the run must
  /// finish with zero violations and unchanged results.
  void verify_star(const Setup& s, const Outcome& ref) {
    scenario::ScenarioSpec spec = s.spec;
    spec.verify.enabled = true;
    scenario::BuildOptions options;
    options.tpm = s.tpm.get();
    scenario::BuiltScenario built = scenario::build(spec, options);
    built.config.trace_for = s.star.config.trace_for;
    core::ExperimentResult result;
    spans.time("verified core.run_experiment",
               [&] { result = core::run_experiment(built.config); });
    expect_same(ref, outcome_of(result), "verified run", /*counts_only=*/true);
    const verify::Report& report = *built.verify_report;
    std::string first;
    if (!report.violations.empty()) {
      first = report.violations.front().checker + ": " + report.violations.front().detail;
    }
    check(report.clean(), "RigVerifier reported " +
                              std::to_string(report.violations.size()) +
                              " violation(s); first: " + first);
    notes.push_back("verify: " + std::to_string(report.polls) + " polls, 0 violations");
  }

  /// The separately timed TPM must give the same results as the manifest's
  /// own "train-default" source.
  void check_train_default(const Setup& s, const Outcome& ref) {
    core::ExperimentResult result;
    spans.time("train-default scenario.run", [&] { result = scenario::run(s.spec); });
    expect_same(ref, outcome_of(result), "manifest train-default TPM run");
    notes.push_back("train-default TPM reproduces the timed TPM's results");
  }
};

obs::Json stamp(const Bench& bench, const Options& opt, const std::vector<Metric>& metrics) {
  obs::Json machine{obs::Json::Object{}};
  machine.set("nproc", obs::Json{static_cast<std::uint64_t>(std::thread::hardware_concurrency())});
  machine.set("compiler", obs::Json{compiler_id()});
  machine.set("build_type", obs::Json{PERFBENCH_BUILD_TYPE});
  machine.set("commit", obs::Json{opt.commit});
  obs::Json absent{obs::Json::Array{}};
  for (const Metric& metric : metrics) {
    if (metric.absent) absent.push_back(obs::Json{metric.name});
  }
  obs::Json notes{obs::Json::Array{}};
  for (const std::string& note : bench.notes) notes.push_back(obs::Json{note});
  obs::Json doc{obs::Json::Object{}};
  doc.set("perfbench", obs::Json{"src-perfbench-v1"});
  doc.set("workload", obs::Json{opt.workload});
  // The seed the run used, so a claim can be re-checked on another seed.
  doc.set("seed", obs::Json{bench.seed});
  doc.set("seed_source", obs::Json{opt.seed ? "--seed" : "manifest preset"});
  doc.set("trace", obs::Json{opt.trace});
  doc.set("smoke", obs::Json{opt.smoke});
  doc.set("machine", std::move(machine));
  doc.set("absent", std::move(absent));
  doc.set("notes", std::move(notes));
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "perfbench: refusing to measure an unoptimised build\n");
  return 2;
#endif
  Bench bench;
  bench.opt = opt;
  bench.manifest = manifest_path(opt);
  try {
    std::vector<Metric> metrics;
    bench.spans.time(std::string("perfbench ") + opt.workload, [&] {
      metrics = opt.trace ? bench.per_layer() : bench.end_to_end();
    });
    const obs::Json doc = stamp(bench, opt, metrics);
    if (opt.trace) {
      const std::string path = opt.out_dir + "/perfbench-trace-" + opt.workload + ".json";
      bench.spans.write_chrome(path, doc);
      std::printf("chrome trace: %s\n", path.c_str());
    }
    for (const Metric& metric : metrics) {
      std::printf("  %-32s %14.6g %s%s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str(), metric.absent ? "  (absent)" : "");
    }
    std::cout << doc.dump() << "\n";
    print_result(true, bench.attempted, bench.failed, metrics);
    return 0;
  } catch (const CheckFailure& err) {
    std::fprintf(stderr, "perfbench: correctness check failed: %s\n", err.what());
    print_result(false, std::max<std::uint64_t>(bench.attempted, 1), bench.failed, {});
    return 1;
  } catch (const std::exception& err) {
    std::fprintf(stderr, "perfbench: error: %s\n", err.what());
    return 1;
  }
}
