// perfbench: the repository benchmark driver.
//
//   perfbench --workload <gossip_large|scenario_library|udp_soak>
//             --seed <n> --seconds <s> --trace <0|1>
//             --root <checkout> --work <dir> [--quick]
//   perfbench --shard-check --root <checkout> --work <dir>
//
// Runs one workload through the library's public entry points
// (cluster::load_scenario_file, cluster::run_cluster, obs::replay_qos,
// transport::run_soak, transport::read_checkpoint), checks every output,
// and prints one JSON object as the last stdout line: with --trace 0 the
// end-to-end metrics, with --trace 1 the per-layer metrics. Every call
// into a layer is timed as a span (run -> iteration -> entry-point call)
// held in memory and written to <work>/spans-*.jsonl when the run ends.
//
// --quick shrinks every workload to a plumbing-sized input (used by
// run.py --self-test). --shard-check runs the gossip_large config at
// n=256 on 1 and 2 shards and requires identical outcomes, which is why
// the full-size workload never pays for a second shard count.
//
// See perfbench/README.md for the workloads, the metrics and the
// layer -> end-to-end map.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/engine.hpp"
#include "cluster/scenario_dsl.hpp"
#include "obs/replay.hpp"
#include "transport/checkpoint.hpp"
#include "transport/soak.hpp"

namespace {

using namespace rfd;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

/// A condition that makes the run meaningless (missing input, busy port):
/// the driver exits non-zero without printing a result.
struct Fatal : std::runtime_error {
  using std::runtime_error::runtime_error;
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ------------------------------------------------------------ metric names

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_ms_per_sim_s", "ms"},
    {"cpu_ms_per_sim_s", "ms"},
    {"peak_rss_mb", "MiB"},
    {"false_susp_per_node_min", "1/node/min"},
    {"detect_p99_ms", "ms"},
};

constexpr MetricDef kPerLayer[] = {
    {"scenario_dsl.parse_ms", "ms"},
    {"scenario_dsl.timeline_events", "count"},
    {"engine.run_ms", "ms"},
    {"engine.events", "count"},
    {"engine.events_per_s", "1/s"},
    {"engine.messages", "count"},
    {"engine.peak_event_queue", "count"},
    {"engine.rss_bytes_per_pair", "B"},
    {"digest.entries_per_msg", "entries/msg"},
    {"digest.bytes_per_entry", "B/entry"},
    {"runtime.event_queue.dispatch_ms", "ms"},
    {"runtime.event_queue.dispatch_calls", "count"},
    {"cluster.topology.digest_ms", "ms"},
    {"cluster.topology.digest_calls", "count"},
    {"cluster.node.observe_ms", "ms"},
    {"cluster.node.observe_calls", "count"},
    {"runtime.network.route_ms", "ms"},
    {"runtime.network.route_calls", "count"},
    {"runtime.shard_executor.sync_wait_ms", "ms"},
    {"runtime.shard_executor.sync_meets", "count"},
    {"profile.overhead_ratio", "ratio"},
    {"obs.trace.records", "count"},
    {"obs.trace.bytes_per_record", "B/record"},
    {"obs.trace.dropped", "count"},
    {"obs.trace.cost_ms", "ms"},
    {"obs.replay.ms", "ms"},
    {"obs.replay.records_per_s", "1/s"},
    {"transport.sent", "count"},
    {"transport.delivered_share", "ratio"},
    {"transport.queue_drops", "count"},
    {"transport.retries", "count"},
    {"transport.sock_errors", "count"},
    {"transport.cpu_us_per_dgram", "us"},
    {"transport.sys_cpu_share", "ratio"},
    {"soak.pace_overrun_ms", "ms"},
    {"soak.driver_cpu_ms_per_sim_s", "ms"},
    {"checkpoint.written", "count"},
    {"checkpoint.bytes", "B"},
    {"checkpoint.read_ms", "ms"},
};

/// Profiler phase -> (estimated time metric, call count metric). The sync
/// phase's calls are barrier meets.
const std::map<std::string, std::pair<std::string, std::string>>
    kPhaseMetrics = {
        {"dispatch",
         {"runtime.event_queue.dispatch_ms",
          "runtime.event_queue.dispatch_calls"}},
        {"digest",
         {"cluster.topology.digest_ms", "cluster.topology.digest_calls"}},
        {"observe", {"cluster.node.observe_ms", "cluster.node.observe_calls"}},
        {"route", {"runtime.network.route_ms", "runtime.network.route_calls"}},
        {"sync",
         {"runtime.shard_executor.sync_wait_ms",
          "runtime.shard_executor.sync_meets"}},
};

// ------------------------------------------------------------------ spans

/// In-memory span log: name, parent, start, end. Written once, when the
/// run ends, so recording costs two clock reads per span.
class SpanLog {
 public:
  int open(std::string name, int parent) {
    spans_.push_back({std::move(name), parent, Clock::now(), {}});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Closes span `id` and returns its duration in ms.
  double close(int id) {
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end = Clock::now();
    return ms_between(span.start, span.end);
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"parent\":%d,\"name\":\"%s\","
                   "\"start_ms\":%.6f,\"end_ms\":%.6f}\n",
                   i, s.parent, s.name.c_str(), ms_between(origin_, s.start),
                   ms_between(origin_, s.end));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// ------------------------------------------------------- process resources

struct Usage {
  Clock::time_point wall;
  double user_ms = 0.0;
  double sys_ms = 0.0;

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);  // every thread, live and joined
    const auto ms = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) * 1e3 +
             static_cast<double>(tv.tv_usec) * 1e-3;
    };
    return {Clock::now(), ms(ru.ru_utime), ms(ru.ru_stime)};
  }
};

struct Cost {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  double sys_ms = 0.0;
};

Cost cost_between(const Usage& a, const Usage& b) {
  return {ms_between(a.wall, b.wall),
          (b.user_ms - a.user_ms) + (b.sys_ms - a.sys_ms),
          b.sys_ms - a.sys_ms};
}

/// High-water RSS of this process image (VmHWM). ru_maxrss is not used:
/// Linux carries it across execve, so it would report the launcher's RSS
/// whenever that is larger.
double peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw Fatal("cannot read /proc/self/status");
  char line[256];
  double kib = -1.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib < 0.0) throw Fatal("no VmHWM in /proc/self/status");
  return kib * 1024.0;
}

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  bool shard_check = false;
  std::string root = ".";
  std::string work = ".bench_build/perfbench-work";
};

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      opt.quick = true;
      continue;
    }
    if (flag == "--shard-check") {
      opt.shard_check = true;
      continue;
    }
    if (i + 1 >= argc) throw Fatal("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') throw Fatal("bad --seed " + value);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opt.seconds > 0.0)) {
        throw Fatal("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw Fatal("bad --trace " + value);
      opt.trace = value == "1";
    } else if (flag == "--root") {
      opt.root = value;
    } else if (flag == "--work") {
      opt.work = value;
    } else {
      throw Fatal("unknown flag " + flag);
    }
  }
  return opt;
}

// ------------------------------------------------------------ seed mixing

/// The benchmark's own seed derivation (splitmix64), independent of the
/// library's RNG code so the generated inputs never move with it.
std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t a,
                     std::uint64_t b = 0) {
  return splitmix(splitmix(splitmix(seed) ^ a) ^ (b * 0x9e3779b97f4a7c15ull));
}

// ---------------------------------------------------------- run + results

/// One benchmark run: the span log, the metric series, and the
/// failure accounting every workload reports into.
class Run {
 public:
  explicit Run(const Options& opt) : opt(opt) {}

  const Options& opt;
  SpanLog spans;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void add(const std::string& name, double value) {
    series_[name].push_back(value);
  }

  /// Records a failed output check; the run reports correct=false.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct_ = false;
    if (++check_failures_ <= 20) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }

  /// Prints one human line per metric (median, quartiles, sample count)
  /// and then the result object as the last stdout line.
  void print(const MetricDef* defs, std::size_t count) {
    std::string json;
    for (std::size_t i = 0; i < count; ++i) {
      std::vector<double> v = series_[defs[i].name];
      std::sort(v.begin(), v.end());
      const double med = quantile(v, 0.5);
      check(std::isfinite(med), std::string(defs[i].name) + " not finite");
      const double value = std::isfinite(med) ? med : 0.0;
      std::printf("perfbench: %-38s %16.6f %-11s q1=%.6f q3=%.6f n=%zu\n",
                  defs[i].name, value, defs[i].unit, quantile(v, 0.25),
                  quantile(v, 0.75), v.size());
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", defs[i].name, value, defs[i].unit);
      json += buf;
    }
    for (const auto& [name, values] : series_) {
      bool known = false;
      for (std::size_t i = 0; i < count; ++i) known |= name == defs[i].name;
      check(known, "metric " + name + " is not in the reported set");
    }
    std::printf(
        "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
        "\"metrics\": {%s}}\n",
        correct_ ? "true" : "false", static_cast<long long>(attempted),
        static_cast<long long>(failed), json.c_str());
    std::fflush(stdout);
  }

 private:
  /// Linear-interpolated quantile of a sorted series; an empty series
  /// (a layer the workload does not touch) reads 0.
  static double quantile(const std::vector<double>& v, double q) {
    if (v.empty()) return 0.0;
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  }

  bool correct_ = true;
  int check_failures_ = 0;
  std::map<std::string, std::vector<double>> series_;
};

/// Runs `body(i)` for i = 0, 1, ...: another iteration starts only while
/// the mean iteration time so far predicts it ends within `seconds`, and
/// at least `min_iterations` run regardless.
template <class Body>
void run_iterations(double seconds, int min_iterations, Body&& body) {
  const Clock::time_point start = Clock::now();
  for (int done = 0;;) {
    body(done);
    ++done;
    const double elapsed = ms_between(start, Clock::now()) / 1e3;
    if (done >= min_iterations && elapsed + elapsed / done > seconds) return;
  }
}

/// Times one set-up (config, parse, and an entry-point call over a single
/// check interval or tick) as a setup_s sample. Workloads take samples
/// before the first iteration and again between iterations, so the
/// reported median spans the whole run instead of its first second.
template <class Fn>
void time_setup(Run& run, Fn&& fn) {
  const int span = run.spans.open("setup", -1);
  fn();
  run.add("setup_s", run.spans.close(span) / 1e3);
}

/// Engine-layer totals over one or more run_cluster calls.
struct EngineTotals {
  double run_ms = 0.0, events = 0.0, messages = 0.0;
  double entries = 0.0, bytes = 0.0, peak_queue = 0.0;
  int max_nodes = 0;
  /// Profiler phase -> (calls, estimated ms), summed over calls and shards.
  std::map<std::string, std::pair<double, double>> profile;

  void add(const cluster::ClusterReport& r, double ms) {
    run_ms += ms;
    events += static_cast<double>(r.events_executed);
    messages += static_cast<double>(r.messages_sent);
    entries += static_cast<double>(r.digest_entries_sent);
    bytes += static_cast<double>(r.digest_payload_bytes);
    peak_queue = std::max(peak_queue, static_cast<double>(r.peak_event_queue));
    max_nodes = std::max(max_nodes, r.max_nodes);
    for (const obs::PhaseStat& stat : r.profile) {
      auto& [calls, est_ms] = profile[stat.phase];
      calls += static_cast<double>(stat.calls);
      est_ms += stat.est_ms;
    }
  }
};

/// The engine, digest and profiler metrics of the traced pass: counts
/// from an unprofiled run (`e`), phase rollups from its profiled twin.
void report_engine(Run& run, const EngineTotals& e,
                   const EngineTotals& profiled) {
  run.add("engine.run_ms", e.run_ms);
  run.add("engine.events", e.events);
  run.add("engine.events_per_s", e.events / (e.run_ms / 1e3));
  run.add("engine.messages", e.messages);
  run.add("engine.peak_event_queue", e.peak_queue);
  const double pairs = static_cast<double>(e.max_nodes) * e.max_nodes;
  run.add("engine.rss_bytes_per_pair", peak_rss_bytes() / pairs);
  run.add("digest.entries_per_msg", e.entries / e.messages);
  run.add("digest.bytes_per_entry", e.bytes / e.entries);
  for (const auto& [phase, names] : kPhaseMetrics) {
    const auto it = profiled.profile.find(phase);
    const bool seen = it != profiled.profile.end();
    run.add(names.first, seen ? it->second.second : 0.0);
    run.add(names.second, seen ? it->second.first : 0.0);
  }
  run.add("profile.overhead_ratio", profiled.run_ms / e.run_ms);
}

// ------------------------------------------------------------ gossip_large

/// The E12/E13 gossip cell (fanout 3, digest n/8, heartbeat 250 ms, check
/// 50 ms, fixed timeout from E12's formula: 8000 ms at n=2048, crash wave
/// of n/64 victims spread over the id space) with the horizon stretched
/// from 12 s to 30 s and the wave moved to 6 s so the crashes are
/// detected inside the run. The seed only seeds the run.
cluster::ClusterConfig gossip_config(int n, int shards) {
  constexpr double kHeartbeatMs = 250.0;
  cluster::ClusterConfig config;
  config.n = n;
  config.topology.kind = cluster::TopologyKind::kGossip;
  config.topology.gossip_fanout = 3;
  config.topology.digest_size = std::max(32, n / 8);
  config.heartbeat_interval_ms = kHeartbeatMs;
  config.check_interval_ms = 50.0;
  config.detector.kind = rt::DetectorKind::kFixed;
  const double per_round = 3.0 * config.topology.digest_size;
  const double gap_ms = kHeartbeatMs * std::max(1.0, n / per_round);
  config.detector.fixed.timeout_ms = std::max(1'000.0, 12.0 * gap_ms);
  config.bootstrap_grace_ms =
      std::max(1'500.0, config.detector.fixed.timeout_ms);
  config.duration_ms = 30'000.0;
  config.shards = shards;
  const int crashes = std::max(1, n / 64);
  for (int i = 0; i < crashes; ++i) {
    config.scenario.crash(6'000.0, i * n / crashes + n / (2 * crashes));
  }
  return config;
}

/// Everything deterministic about a cluster run; equal for equal inputs.
struct ClusterOutcome {
  std::int64_t events, messages, false_suspicions, raises, clears;
  std::int64_t detections, missed;
  double detection_sum, detection_p99;
  bool operator==(const ClusterOutcome&) const = default;
};

ClusterOutcome outcome_of(const cluster::ClusterReport& r) {
  return {r.events_executed,
          r.messages_sent,
          r.false_suspicions,
          r.suspicion_raises,
          r.suspicion_clears,
          r.detection_latency_ms.count(),
          r.missed_detections,
          r.detection_latency_ms.sum(),
          r.detection_latency_ms.count() > 0
              ? r.detection_latency_ms.percentile(0.99)
              : 0.0};
}

void gossip_large(Run& run) {
  const Options& opt = run.opt;
  const int n = opt.quick ? 256 : 2048;
  const std::int64_t min_samples = opt.quick ? 1 : 1000;
  const std::uint64_t run_seed = derive(opt.seed, 2);
  const double sim_s = gossip_config(n, 2).duration_ms / 1e3;

  std::optional<ClusterOutcome> first;
  // One run_cluster call; returns the report and records its cost.
  const auto execute = [&](int parent, bool profile, Cost& cost) {
    cluster::ClusterConfig config = gossip_config(n, 2);
    config.obs.profile = profile;
    const Usage before = Usage::now();
    const int span =
        run.spans.open(profile ? "run_cluster:profiled" : "run_cluster",
                       parent);
    cluster::ClusterReport report = cluster::run_cluster(config, run_seed);
    run.spans.close(span);
    cost = cost_between(before, Usage::now());
    // An iteration fails when its outcome differs from the first one at
    // this seed, when more than 1 in 1000 (observer, victim) pairs is
    // missed, or when it pools too few samples. Zero misses cannot be
    // required: on a few seeds one observer clears a standing suspicion
    // of a crashed node more than 24 s after the crash, at any horizon
    // (see README.md). E12's 12 s horizon missed 99.98%.
    const ClusterOutcome outcome = outcome_of(report);
    if (!first) first = outcome;
    const std::int64_t pairs =
        report.detection_latency_ms.count() + report.missed_detections;
    const bool same = outcome == *first;
    const bool detected = report.missed_detections * 1000 <= pairs;
    const bool enough = report.detection_latency_ms.count() >= min_samples;
    run.check(same, "gossip_large outcome differs between iterations");
    run.check(detected, "gossip_large missed " +
                            std::to_string(report.missed_detections) +
                            " of " + std::to_string(pairs) + " pairs");
    run.check(enough, "gossip_large pooled too few detection samples");
    const bool ok = same && detected && enough;
    ++run.attempted;
    if (!ok) ++run.failed;
    return report;
  };

  if (!opt.trace) {
    const auto setup = [&] {
      cluster::ClusterConfig config = gossip_config(n, 2);
      config.duration_ms = config.check_interval_ms;
      cluster::run_cluster(config, run_seed);
    };
    for (int r = 0; r < 3; ++r) time_setup(run, setup);
    run_iterations(opt.seconds, 2, [&](int i) {
      const int it = run.spans.open("iteration:" + std::to_string(i), -1);
      Cost cost;
      const cluster::ClusterReport r = execute(it, false, cost);
      run.spans.close(it);
      run.add("wall_ms_per_sim_s", cost.wall_ms / sim_s);
      run.add("cpu_ms_per_sim_s", cost.cpu_ms / sim_s);
      run.add("false_susp_per_node_min", r.false_suspicions_per_node_per_min);
      run.add("detect_p99_ms", r.detection_latency_ms.percentile(0.99));
      time_setup(run, setup);
    });
    run.add("peak_rss_mb", peak_rss_bytes() / (1024.0 * 1024.0));
    return;
  }

  // Traced pass: an untraced run and a profiled twin per iteration, in
  // alternating order so neither always runs on memory the other freed.
  run_iterations(opt.seconds, 1, [&](int i) {
    const int it = run.spans.open("iteration:" + std::to_string(i), -1);
    EngineTotals e, p;
    for (int k = 0; k < 2; ++k) {
      const bool profile = (i + k) % 2 == 1;
      Cost cost;
      const cluster::ClusterReport r = execute(it, profile, cost);
      (profile ? p : e).add(r, cost.wall_ms);
    }
    run.spans.close(it);
    report_engine(run, e, p);
  });
}

/// Shard-count invariance of the gossip_large config at small n: one and
/// two shards must produce the same outcome.
bool shard_check() {
  const std::uint64_t seed = 7;
  const ClusterOutcome one = outcome_of(
      cluster::run_cluster(gossip_config(256, 1), derive(seed, 2)));
  const ClusterOutcome two = outcome_of(
      cluster::run_cluster(gossip_config(256, 2), derive(seed, 2)));
  std::printf("shard-check: n=256 shards 1 vs 2: events %lld/%lld, "
              "false %lld/%lld, detections %lld/%lld -> %s\n",
              static_cast<long long>(one.events),
              static_cast<long long>(two.events),
              static_cast<long long>(one.false_suspicions),
              static_cast<long long>(two.false_suspicions),
              static_cast<long long>(one.detections),
              static_cast<long long>(two.detections),
              one == two ? "identical" : "DIFFERENT");
  return one == two && one.detections > 0;
}

// ------------------------------------------------------- scenario library

/// The ten library files, fixed so the workload does not change when a
/// file is added to scenarios/.
constexpr const char* kLibrary[] = {
    "asymmetric_partition", "byzantine_counters", "cascading_overload",
    "churn_storm",          "crash_recovery_wave", "flapping_links",
    "gray_failure",         "partition_cascade",  "rack_failure",
    "slow_nodes",
};

std::vector<std::string> library_files(const Options& opt) {
  std::vector<std::string> files;
  for (const char* name : kLibrary) {
    files.push_back(opt.root + "/scenarios/" + name + ".scn");
    if (opt.quick && files.size() == 2) break;
  }
  return files;
}

cluster::ScenarioDoc load_doc(Run& run, int parent, const std::string& path,
                              double& parse_ms) {
  cluster::ScenarioDoc doc;
  cluster::DslError err;
  const int span = run.spans.open("load_scenario_file", parent);
  const bool ok =
      cluster::load_scenario_file(path, cluster::DslContext{}, doc, err);
  parse_ms += run.spans.close(span);
  if (!ok) throw Fatal(path + ": " + err.to_string());
  return doc;
}

/// cluster_demo's scenario config: gossip f=3 (digest = n), phi
/// threshold 8, 100 ms heartbeat and check grid, one shard.
cluster::ClusterConfig library_config(cluster::ScenarioDoc& doc) {
  cluster::ClusterConfig config;
  config.n = doc.n;
  config.max_nodes = std::max(
      {doc.max_nodes, doc.n, static_cast<int>(doc.max_node_ref) + 1});
  config.duration_ms = doc.duration_ms;
  config.topology.kind = cluster::TopologyKind::kGossip;
  config.topology.gossip_fanout = 3;
  config.topology.digest_size = doc.n;
  config.detector.kind = rt::DetectorKind::kPhi;
  config.detector.phi.threshold = 8.0;
  config.heartbeat_interval_ms = 100.0;
  config.check_interval_ms = 100.0;
  config.shards = 1;
  config.scenario = std::move(doc.scenario);
  return config;
}

enum class LibraryMode { kTraceOff, kTraced, kProfiled };

/// Totals of one library sweep (every file once).
struct LibrarySweep {
  double sim_s = 0.0, node_min = 0.0;
  double parse_ms = 0.0, replay_ms = 0.0, timeline_events = 0.0;
  double trace_records = 0.0, trace_bytes = 0.0, trace_dropped = 0.0;
  double replay_records = 0.0, false_suspicions = 0.0;
  EngineTotals engine;
  Summary detection;
};

/// Runs every file once at seed set `sweep`. Traced sweeps replay each
/// trace and require replay == live; every file run is one operation.
LibrarySweep library_sweep(Run& run, int parent, int sweep, LibraryMode mode) {
  LibrarySweep out;
  const std::vector<std::string> files = library_files(run.opt);
  for (std::size_t i = 0; i < files.size(); ++i) {
    cluster::ScenarioDoc doc = load_doc(run, parent, files[i], out.parse_ms);
    out.timeline_events += static_cast<double>(doc.scenario.events.size());
    const std::string name = kLibrary[i];
    cluster::ClusterConfig config = library_config(doc);
    const std::string trace = run.opt.work + "/" + name + ".jsonl";
    if (mode != LibraryMode::kTraceOff) {
      config.obs.trace_path = trace;
      config.obs.snapshot_every_ticks = 10;
      config.obs.profile = mode == LibraryMode::kProfiled;
    }
    const std::uint64_t seed = derive(run.opt.seed, 100 + sweep, i);
    int span = run.spans.open("run_cluster:" + name, parent);
    const cluster::ClusterReport r = cluster::run_cluster(config, seed);
    out.engine.add(r, run.spans.close(span));

    out.sim_s += r.duration_ms / 1e3;
    out.node_min += r.n * r.duration_ms / 60e3;
    out.false_suspicions += static_cast<double>(r.false_suspicions);
    out.detection.merge(r.detection_latency_ms);

    ++run.attempted;
    if (mode == LibraryMode::kTraceOff) continue;
    out.trace_records += static_cast<double>(r.trace_records);
    out.trace_dropped += static_cast<double>(r.trace_dropped);
    std::error_code ec;
    out.trace_bytes += static_cast<double>(fs::file_size(trace, ec));
    if (mode == LibraryMode::kProfiled) {
      fs::remove(trace, ec);
      continue;
    }

    span = run.spans.open("replay_qos:" + name, parent);
    const obs::ReplayQos q = obs::replay_qos(trace);
    out.replay_ms += run.spans.close(span);
    out.replay_records += static_cast<double>(q.records_read);
    const Summary& a = r.detection_latency_ms;
    const Summary& b = q.detection_latency_ms;
    const bool same_detection =
        a.count() == b.count() &&
        (a.count() == 0 ||
         (a.sum() == b.sum() && a.percentile(0.5) == b.percentile(0.5) &&
          a.percentile(0.99) == b.percentile(0.99)));
    const bool ok = q.ok && q.lost_records == 0 && r.trace_dropped == 0 &&
                    q.false_suspicions == r.false_suspicions &&
                    q.suspicion_raises == r.suspicion_raises &&
                    q.suspicion_clears == r.suspicion_clears &&
                    same_detection;
    run.check(ok, name + ": trace dropped records or replay_qos disagrees "
                         "with the live report" +
                      (q.ok ? "" : " (" + q.error + ")"));
    if (!ok) ++run.failed;
    fs::remove(trace, ec);
  }
  return out;
}

void scenario_library(Run& run) {
  const Options& opt = run.opt;
  // detect_p99 pools three sweeps (~360 samples each) into one iteration;
  // iteration i runs seed sets 3i..3i+2, and the per-iteration values are
  // reported as medians, which keeps the p99's seed-to-seed spread small.
  const int sweeps = opt.quick ? 1 : 3;
  const std::int64_t min_samples = opt.quick ? 1 : 1000;

  if (!opt.trace) {
    const auto setup = [&] {
      double parse_ms = 0.0;
      for (const std::string& file : library_files(opt)) {
        cluster::ScenarioDoc doc = load_doc(run, -1, file, parse_ms);
        cluster::ClusterConfig config = library_config(doc);
        config.duration_ms = config.check_interval_ms;
        config.obs.trace_path = opt.work + "/setup.jsonl";
        config.obs.snapshot_every_ticks = 10;
        cluster::run_cluster(config, opt.seed);
      }
      std::error_code ec;
      fs::remove(opt.work + "/setup.jsonl", ec);
    };
    for (int r = 0; r < 3; ++r) time_setup(run, setup);
    run_iterations(opt.seconds, opt.quick ? 1 : 5, [&](int i) {
      const int it = run.spans.open("iteration:" + std::to_string(i), -1);
      const Usage before = Usage::now();
      double sim_s = 0.0, node_min = 0.0, false_suspicions = 0.0;
      Summary detection;
      for (int s = 0; s < sweeps; ++s) {
        const LibrarySweep sw =
            library_sweep(run, it, i * sweeps + s, LibraryMode::kTraced);
        sim_s += sw.sim_s;
        node_min += sw.node_min;
        false_suspicions += sw.false_suspicions;
        detection.merge(sw.detection);
      }
      const Cost cost = cost_between(before, Usage::now());
      run.spans.close(it);
      run.check(detection.count() >= min_samples,
                "scenario_library pooled too few detection samples");
      run.add("wall_ms_per_sim_s", cost.wall_ms / sim_s);
      run.add("cpu_ms_per_sim_s", cost.cpu_ms / sim_s);
      run.add("false_susp_per_node_min", false_suspicions / node_min);
      run.add("detect_p99_ms", detection.percentile(0.99));
      time_setup(run, setup);
    });
    run.add("peak_rss_mb", peak_rss_bytes() / (1024.0 * 1024.0));
    return;
  }

  // Traced pass: one sweep each with the trace on (+ replay), with the
  // profiler on as well, and with the trace off, per iteration; the order
  // rotates between iterations.
  run_iterations(opt.seconds, 1, [&](int i) {
    const int it = run.spans.open("iteration:" + std::to_string(i), -1);
    constexpr LibraryMode kModes[] = {
        LibraryMode::kTraced, LibraryMode::kProfiled, LibraryMode::kTraceOff};
    LibrarySweep sweeps[3];
    for (int k = 0; k < 3; ++k) {
      const int m = (i + k) % 3;
      sweeps[m] = library_sweep(run, it, 0, kModes[m]);
    }
    run.spans.close(it);
    const LibrarySweep& on = sweeps[0];
    const LibrarySweep& prof = sweeps[1];
    const LibrarySweep& off = sweeps[2];
    run.add("scenario_dsl.parse_ms", on.parse_ms);
    run.add("scenario_dsl.timeline_events", on.timeline_events);
    report_engine(run, on.engine, prof.engine);
    run.add("obs.trace.records", on.trace_records);
    run.add("obs.trace.bytes_per_record",
            on.trace_records > 0 ? on.trace_bytes / on.trace_records : 0.0);
    run.add("obs.trace.dropped", on.trace_dropped);
    run.add("obs.trace.cost_ms", on.engine.run_ms - off.engine.run_ms);
    run.add("obs.replay.ms", on.replay_ms);
    run.add("obs.replay.records_per_s",
            on.replay_records / (on.replay_ms / 1e3));
  });
}

// --------------------------------------------------------------- udp_soak

constexpr double kTimeScale = 0.05;
/// Loopback port ranges tried in order, clear of soak_main/CI's 39000
/// range and below the kernel's default ephemeral range (32768+).
constexpr int kPortBases[] = {24000, 24256, 24512, 24768, 25024, 25280};
constexpr int kPortSpan = 64;  // >= every library file's id space

bool port_free(int port) {
  const int fd = socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const bool ok =
      bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  close(fd);
  return ok;
}

/// First port in [base, base + kPortSpan) that cannot be bound, or -1.
int first_busy_port(int base) {
  for (int p = base; p < base + kPortSpan; ++p) {
    if (!port_free(p)) return p;
  }
  return -1;
}

/// The soak configuration of one library file: real loopback UDP under
/// FlakyTransport (5% loss), fixed 1000 ms timeout, 100 ms tick, a
/// checkpoint every 5 s simulated, time_scale 0.05.
transport::SoakConfig soak_config(cluster::ScenarioDoc& doc, bool udp,
                                  int base_port, const std::string& ckpt) {
  if (std::max({doc.max_nodes, doc.n, doc.max_node_ref + 1}) > kPortSpan) {
    throw Fatal("scenario \"" + doc.name + "\" needs more than " +
                std::to_string(kPortSpan) + " UDP ports");
  }
  transport::SoakConfig config;
  config.n = doc.n;
  config.max_nodes = doc.max_nodes;
  config.duration_ms = doc.duration_ms;
  config.topology.kind = cluster::TopologyKind::kGossip;
  config.topology.gossip_fanout = 3;
  config.topology.digest_size = std::max(32, doc.n);
  config.detector.kind = rt::DetectorKind::kFixed;
  config.detector.fixed.timeout_ms = 1'000.0;
  config.tick_ms = 100.0;
  config.backend =
      udp ? transport::SoakBackend::kUdp : transport::SoakBackend::kSim;
  config.flaky = true;
  config.flaky_params.network.loss_prob = 0.05;
  config.udp.base_port = static_cast<std::uint16_t>(base_port);
  config.checkpoint_path = ckpt;
  config.checkpoint_every_ms = 5'000.0;
  config.time_scale = kTimeScale;
  config.scenario = std::move(doc.scenario);
  return config;
}

/// Runs one soak; on UDP the whole port range must be free first, since
/// UdpTransport aborts on a failed bind.
transport::SoakReport soak_once(Run& run, int parent, const std::string& name,
                                const transport::SoakConfig& config) {
  const int base = config.udp.base_port;
  const int busy = config.backend == transport::SoakBackend::kUdp
                       ? first_busy_port(base)
                       : -1;
  if (busy >= 0) {
    throw Fatal("udp port " + std::to_string(busy) +
                " is busy; the soak needs 127.0.0.1:" + std::to_string(base) +
                "-" + std::to_string(base + kPortSpan - 1));
  }
  transport::SoakReport report;
  std::string error;
  const int span = run.spans.open("run_soak:" + name, parent);
  const bool ok = transport::run_soak(config, report, error);
  run.spans.close(span);
  if (!ok) throw Fatal("run_soak " + name + ": " + error);
  return report;
}

struct SoakSweep {
  double sim_s = 0.0, node_min = 0.0, false_suspicions = 0.0;
  double parse_ms = 0.0, timeline_events = 0.0, pace_overrun_ms = 0.0;
  double checkpoints = 0.0, checkpoint_bytes = 0.0, read_ms = 0.0;
  transport::TransportCounters counters;
  Summary detection;
  Cost cost;
};

/// Soaks every file once at seed set `sweep`. On UDP each datagram sent is
/// an operation and queue drops or socket errors fail it.
SoakSweep soak_sweep(Run& run, int parent, int sweep, bool udp, int base) {
  SoakSweep out;
  const Usage before = Usage::now();
  const std::vector<std::string> files = library_files(run.opt);
  for (std::size_t i = 0; i < files.size(); ++i) {
    const std::string name = kLibrary[i];
    cluster::ScenarioDoc doc = load_doc(run, parent, files[i], out.parse_ms);
    out.timeline_events += static_cast<double>(doc.scenario.events.size());
    const std::string ckpt = run.opt.work + "/" + name + ".ckpt";
    transport::SoakConfig config = soak_config(doc, udp, base, ckpt);
    config.seed = derive(run.opt.seed, 200 + sweep, i);
    const transport::SoakReport r = soak_once(run, parent, name, config);

    const transport::TransportCounters& c = r.transport;
    run.check(c.delivered + c.dropped + c.queue_drops <= c.sent + c.duplicated,
              name + ": datagram conservation violated (delivered " +
                  std::to_string(c.delivered) + " + dropped " +
                  std::to_string(c.dropped) + " + queue_drops " +
                  std::to_string(c.queue_drops) + " > sent " +
                  std::to_string(c.sent) + " + duplicated " +
                  std::to_string(c.duplicated) + ")");
    if (udp) {
      run.attempted += c.sent;
      run.failed += c.queue_drops + c.sock_errors;
    }
    out.counters.sent += c.sent;
    out.counters.delivered += c.delivered;
    out.counters.dropped += c.dropped;
    out.counters.duplicated += c.duplicated;
    out.counters.queue_drops += c.queue_drops;
    out.counters.retries += c.retries;
    out.counters.sock_errors += c.sock_errors;
    out.sim_s += r.sim_ms / 1e3;
    out.node_min += r.n * r.sim_ms / 60e3;
    out.false_suspicions += static_cast<double>(r.false_suspicions);
    out.detection.merge(r.detection);
    out.pace_overrun_ms += r.wall_ms - r.sim_ms * kTimeScale;
    out.checkpoints += r.checkpoints_written;

    // The final checkpoint must read back at the tick the run ended on.
    transport::CheckpointData data;
    std::string error;
    const int span = run.spans.open("read_checkpoint:" + name, parent);
    const bool ok = transport::read_checkpoint(
        ckpt, transport::soak_config_fingerprint(config), data, error);
    out.read_ms += run.spans.close(span);
    run.check(ok && static_cast<double>(data.tick) * config.tick_ms == r.sim_ms,
              name + ": final checkpoint unreadable or stale: " + error);
    std::error_code ec;
    out.checkpoint_bytes += static_cast<double>(fs::file_size(ckpt, ec));
    fs::remove(ckpt, ec);
  }
  out.cost = cost_between(before, Usage::now());
  return out;
}

void udp_soak(Run& run) {
  const Options& opt = run.opt;
  // detect_p99 pools two sweeps (~900 samples each) into one iteration.
  const int sweeps = opt.quick ? 1 : 2;
  const std::int64_t min_samples = opt.quick ? 1 : 1000;
  const int* free_base =
      std::find_if(std::begin(kPortBases), std::end(kPortBases),
                   [](int b) { return first_busy_port(b) < 0; });
  if (free_base == std::end(kPortBases)) {
    throw Fatal("no free loopback UDP port range for udp_soak");
  }
  const int base = *free_base;

  if (!opt.trace) {
    const auto setup = [&] {
      double parse_ms = 0.0;
      const std::vector<std::string> files = library_files(opt);
      const std::string ckpt = opt.work + "/setup.ckpt";
      for (std::size_t i = 0; i < files.size(); ++i) {
        cluster::ScenarioDoc doc = load_doc(run, -1, files[i], parse_ms);
        transport::SoakConfig config = soak_config(doc, true, base, ckpt);
        config.duration_ms = config.tick_ms;
        soak_once(run, -1, kLibrary[i], config);
      }
      std::error_code ec;
      fs::remove(ckpt, ec);
    };
    for (int r = 0; r < 3; ++r) time_setup(run, setup);
    run_iterations(opt.seconds, 1, [&](int i) {
      const int it = run.spans.open("iteration:" + std::to_string(i), -1);
      Cost cost;
      double sim_s = 0.0, node_min = 0.0, false_suspicions = 0.0;
      Summary detection;
      for (int s = 0; s < sweeps; ++s) {
        const SoakSweep sw = soak_sweep(run, it, s, true, base);
        cost.wall_ms += sw.cost.wall_ms;
        cost.cpu_ms += sw.cost.cpu_ms;
        sim_s += sw.sim_s;
        node_min += sw.node_min;
        false_suspicions += sw.false_suspicions;
        detection.merge(sw.detection);
        time_setup(run, setup);
      }
      run.spans.close(it);
      run.check(detection.count() >= min_samples,
                "udp_soak pooled too few detection samples");
      run.add("wall_ms_per_sim_s", cost.wall_ms / sim_s);
      run.add("cpu_ms_per_sim_s", cost.cpu_ms / sim_s);
      run.add("false_susp_per_node_min", false_suspicions / node_min);
      run.add("detect_p99_ms", detection.percentile(0.99));
    });
    run.add("peak_rss_mb", peak_rss_bytes() / (1024.0 * 1024.0));
    return;
  }

  // Traced pass: a UDP sweep for the transport, soak and checkpoint
  // layers, and a sim-backend twin that isolates the driver's own CPU.
  run_iterations(opt.seconds, 1, [&](int i) {
    const int it = run.spans.open("iteration:" + std::to_string(i), -1);
    const SoakSweep u = soak_sweep(run, it, 0, true, base);
    const SoakSweep s = soak_sweep(run, it, 0, false, base);
    run.spans.close(it);
    const transport::TransportCounters& c = u.counters;
    const double sent = static_cast<double>(c.sent);
    const double offered = static_cast<double>(c.sent - c.dropped);
    run.add("scenario_dsl.parse_ms", u.parse_ms);
    run.add("scenario_dsl.timeline_events", u.timeline_events);
    run.add("transport.sent", sent);
    run.add("transport.delivered_share",
            offered > 0 ? static_cast<double>(c.delivered) / offered : 0.0);
    run.add("transport.queue_drops", static_cast<double>(c.queue_drops));
    run.add("transport.retries", static_cast<double>(c.retries));
    run.add("transport.sock_errors", static_cast<double>(c.sock_errors));
    run.add("transport.cpu_us_per_dgram",
            sent > 0 ? u.cost.cpu_ms * 1e3 / sent : 0.0);
    run.add("transport.sys_cpu_share",
            u.cost.cpu_ms > 0 ? u.cost.sys_ms / u.cost.cpu_ms : 0.0);
    run.add("soak.pace_overrun_ms", u.pace_overrun_ms);
    run.add("soak.driver_cpu_ms_per_sim_s", s.cost.cpu_ms / s.sim_s);
    run.add("checkpoint.written", u.checkpoints);
    run.add("checkpoint.bytes", u.checkpoint_bytes);
    run.add("checkpoint.read_ms", u.read_ms);
  });
}

int run_main(const Options& opt) {
  std::error_code ec;
  fs::create_directories(opt.work, ec);
  if (ec) throw Fatal("cannot create " + opt.work + ": " + ec.message());
  if (opt.shard_check) return shard_check() ? 0 : 1;

  Run run(opt);
  if (opt.workload == "gossip_large") {
    gossip_large(run);
  } else if (opt.workload == "scenario_library") {
    scenario_library(run);
  } else if (opt.workload == "udp_soak") {
    udp_soak(run);
  } else {
    throw Fatal("unknown workload \"" + opt.workload +
                "\" (gossip_large|scenario_library|udp_soak)");
  }
  const std::string spans = opt.work + "/spans-" + opt.workload + "-" +
                            std::to_string(opt.seed) + "-trace" +
                            (opt.trace ? "1" : "0") + ".jsonl";
  if (!run.spans.write(spans)) throw Fatal("cannot write " + spans);
  if (opt.trace) {
    run.print(kPerLayer, std::size(kPerLayer));
  } else {
    run.print(kEndToEnd, std::size(kEndToEnd));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_main(parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
