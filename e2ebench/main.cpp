// e2e_bench — the repository's end-to-end benchmark harness.
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1 [--work DIR]
//   e2e_bench --emit NAME --seed N     (print the generated input file)
//   e2e_bench --check-kofn             (generator vs models::kofn_as_model)
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// ones (README.md has the catalogue).  Human-readable detail goes to
// stderr; the last line of stdout is one JSON object:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// Exit 0 when every output check passed, 1 when one failed or the run
// could not start, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <string>
#include <vector>

#include "generators.h"
#include "io/number_parse.h"
#include "obs/trace.h"
#include "timing.h"
#include "workloads.h"

namespace {

using e2ebench::EngineRun;
using e2ebench::kThreads;
using e2ebench::median;
using e2ebench::now_ns;
using e2ebench::quantile;

struct Metric {
  const char* name;
  const char* unit;
};

// Must list exactly BENCHMARK.json's end_to_end and per_layer names
// (test_bench.py checks it).
constexpr Metric kEndToEnd[] = {
    {"throughput", "items/s"},  {"throughput_1t", "items/s"},
    {"setup_s", "s"},           {"cpu_s_per_kitem", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr Metric kPerLayer[] = {
    {"io.load_ms", "ms"},
    {"io.model_lines", "count"},
    {"expr.bind_us_p50", "us"},
    {"expr.bind_us_p99", "us"},
    {"expr.bind_n", "count"},
    {"expr.bind_share", "ratio"},
    {"cache.key_us_p50", "us"},
    {"cache.key_share", "ratio"},
    {"cache.lookups", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions", "count"},
    {"solve.us_p50", "us"},
    {"solve.us_p99", "us"},
    {"solve.n", "count"},
    {"solve.iterations_per_solve", "count"},
    {"solve.share", "ratio"},
    {"metrics.us_p50", "us"},
    {"metrics.share", "ratio"},
    {"stats.draw_ms", "ms"},
    {"stats.reduce_ms", "ms"},
    {"pool.busy_frac", "ratio"},
    {"pool.serial_ms", "ms"},
    {"pool.scaling_eff", "ratio"},
    {"serve.parse_us_p50", "us"},
    {"serve.render_us_p50", "us"},
    {"serve.share", "ratio"},
    {"serve.sink_write_ms", "ms"},
    {"serve.sink_bytes", "bytes"},
    {"resil.checkpoint_share", "ratio"},
    {"resil.flush_ms_final", "ms"},
    {"resil.flushes", "count"},
    {"resil.checkpoint_bytes", "bytes"},
    {"faultinj.trial_us", "us"},
    {"obs.overhead_ratio", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string work_dir = ".bench_build/work";
  std::string emit;
  bool check_kofn = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work DIR]\n"
               "       e2e_bench --emit NAME --seed N\n"
               "       e2e_bench --check-kofn\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--check-kofn") {
      args.check_kofn = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    std::uint64_t trace = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--emit") {
      args.emit = value;
    } else if (flag == "--work") {
      args.work_dir = value;
    } else if (flag == "--seed") {
      if (!rascal::io::parse_uint64(value, args.seed)) return false;
    } else if (flag == "--seconds") {
      if (!rascal::io::parse_finite_double(value, args.seconds) ||
          !(args.seconds > 0.0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (!rascal::io::parse_uint64(value, trace) || trace > 1) return false;
      args.trace = static_cast<int>(trace);
    } else {
      return false;
    }
  }
  return true;
}

double throughput(const EngineRun& run) {
  return static_cast<double>(run.items) / run.wall_s;
}

template <typename Fn>
std::vector<double> each(const std::vector<EngineRun>& runs, Fn&& fn) {
  std::vector<double> out;
  for (const EngineRun& run : runs) out.push_back(fn(run));
  return out;
}

// Bookkeeping shared by both modes: attempted/failed totals and the
// bit-identity of every engine call against the first one.
struct Ledger {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint64_t fingerprint = 0;
  bool identical = true;

  const EngineRun& add(const EngineRun& run) {
    if (attempted == 0) fingerprint = run.fingerprint;
    identical = identical && run.fingerprint == fingerprint;
    attempted += run.items;
    failed += run.failed;
    return run;
  }
};

void print_result(bool correct, const Ledger& ledger, const Metric* catalog,
                  std::size_t count, const e2ebench::LayerMetrics& values) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", ledger.attempted, ledger.failed);
  for (std::size_t i = 0; i < count; ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", catalog[i].name,
                values.at(catalog[i].name), catalog[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// Host-speed readings (timing.h: host_speed) between the timed steps
// of a run; a step's speed is the mean of the readings on either side.
class HostSpeed {
 public:
  HostSpeed() : last_(e2ebench::host_speed()) {}
  // Call right after a timed step.
  double step_speed() {
    const double before = last_;
    last_ = e2ebench::host_speed();
    readings_.push_back(last_);
    return (before + last_) / 2.0;
  }
  [[nodiscard]] const std::vector<double>& readings() const {
    return readings_;
  }

 private:
  double last_;
  std::vector<double> readings_;
};

// --trace 0: rounds of a 1-thread engine call, a 4-thread engine call
// and a batch of set-ups (about 15% of the round, 1 to 100 of them)
// until the time budget is spent.  On a shared host a core's speed
// drifts by 10-40% within minutes (README.md, findings), so every time
// is taken in reference seconds, and each metric is the median over
// the run's rounds.
e2ebench::LayerMetrics measure(e2ebench::Workload& w, double seconds,
                               Ledger& ledger) {
  const std::int64_t start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(seconds * 1e9);
  for (int i = 0; i < 5; ++i) (void)w.setup();  // warm-up
  ledger.add(w.run(kThreads));  // warm-up: page faults, lazy statics
  HostSpeed host;
  std::vector<double> one, four, setup, cpu_per_kitem, wall_one, wall_four,
      busy_one;
  while (one.size() < 3 || now_ns() - start < budget_ns) {
    const EngineRun single = ledger.add(w.run(1));
    const double single_speed = host.step_speed();
    const EngineRun multi = ledger.add(w.run(kThreads));
    const double multi_speed = host.step_speed();
    const double round_s = single.wall_s + multi.wall_s;
    double spent_s = 0.0;
    std::size_t setups = 0;
    while (setups < 100 && (setups == 0 || spent_s < 0.15 * round_s)) {
      spent_s += w.setup();
      ++setups;
    }
    const double setup_speed = host.step_speed();

    wall_one.push_back(throughput(single));
    wall_four.push_back(throughput(multi));
    busy_one.push_back(single.cpu_s / single.wall_s);
    one.push_back(wall_one.back() / single_speed);
    four.push_back(wall_four.back() / multi_speed);
    setup.push_back(spent_s / static_cast<double>(setups) * setup_speed);
    cpu_per_kitem.push_back(multi.cpu_s * multi_speed * 1000.0 /
                            static_cast<double>(multi.items));
  }
  e2ebench::LayerMetrics m;
  m["throughput"] = median(four);
  m["throughput_1t"] = median(one);
  m["setup_s"] = median(setup);
  m["cpu_s_per_kitem"] = median(cpu_per_kitem);
  m["peak_rss_mb"] = e2ebench::peak_rss_mb();
  std::fprintf(stderr, "%zu rounds of 1- and %zu-thread calls and set-ups\n",
               one.size(), kThreads);
  const auto spread = [](const char* what, const std::vector<double>& v) {
    std::fprintf(stderr,
                 "  %-18s min %.6g  q1 %.6g  median %.6g  q3 %.6g  max %.6g\n",
                 what, quantile(v, 0), quantile(v, 0.25), quantile(v, 0.5),
                 quantile(v, 0.75), quantile(v, 1));
  };
  spread("throughput", four);
  spread("throughput_1t", one);
  spread("setup_s", setup);
  spread("cpu_s_per_kitem", cpu_per_kitem);
  spread("wall throughput", wall_four);
  spread("wall throughput_1t", wall_one);
  spread("cpu/wall, 1 thread", busy_one);
  spread("host speed", host.readings());
  return m;
}

// --trace 1: rounds of untraced (4 and 1 thread), traced, and
// obs-enabled engine calls, then the workload's per-layer report.
e2ebench::LayerMetrics measure_layers(e2ebench::Workload& w, double seconds,
                                      Ledger& ledger) {
  const std::int64_t start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(seconds * 1e9);
  w.setup();
  ledger.add(w.run(kThreads));  // warm-up
  std::vector<EngineRun> plain, one, traced, observed;
  while (plain.size() < 2 || now_ns() - start < budget_ns) {
    plain.push_back(ledger.add(w.run(kThreads)));
    one.push_back(ledger.add(w.run(1)));
    traced.push_back(ledger.add(w.traced_run(kThreads)));
    rascal::obs::TraceSessionOptions options;
    options.collect_events = false;  // as `rascal_cli --stats`
    rascal::obs::TraceSession session(options);
    observed.push_back(ledger.add(w.run(kThreads)));
    w.observe(session.stop());
  }
  const auto wall = [](const EngineRun& r) { return r.wall_s; };
  const double plain_wall = median(each(plain, wall));
  e2ebench::LayerMetrics m = w.layer_metrics();
  m["pool.busy_frac"] = median(each(plain, [](const EngineRun& r) {
    return r.cpu_s / (static_cast<double>(kThreads) * r.wall_s);
  }));
  m["pool.scaling_eff"] =
      median(each(plain, throughput)) /
      (static_cast<double>(kThreads) * median(each(one, throughput)));
  m["trace.overhead_ratio"] = median(each(traced, wall)) / plain_wall;
  m["obs.overhead_ratio"] = median(each(observed, wall)) / plain_wall;
  std::fprintf(stderr, "%zu rounds of untraced, traced and obs-on calls\n",
               plain.size());
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();
  try {
    if (args.check_kofn) {
      const std::string problem = e2ebench::check_kofn_rasc({});
      if (!problem.empty()) {
        std::fprintf(stderr, "k-of-n generator check failed: %s\n",
                     problem.c_str());
        return 1;
      }
      std::fprintf(stderr, "k-of-n generator matches kofn_as_model\n");
      return 0;
    }
    if (!args.emit.empty()) {
      const std::string text = e2ebench::workload_input(args.emit, args.seed);
      std::fwrite(text.data(), 1, text.size(), stdout);
      return 0;
    }
    auto workload =
        e2ebench::make_workload(args.workload, args.seed, args.work_dir);
    if (!workload) {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return usage();
    }
    Ledger ledger;
    const Metric* catalog = args.trace ? kPerLayer : kEndToEnd;
    const std::size_t count =
        args.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
    e2ebench::LayerMetrics values =
        args.trace ? measure_layers(*workload, args.seconds, ledger)
                   : measure(*workload, args.seconds, ledger);
    // Layers a workload does not exercise read 0.
    for (std::size_t i = 0; i < count; ++i) {
      values.emplace(catalog[i].name, 0.0);
    }
    if (values.size() != count) {
      std::fprintf(stderr, "internal error: metric outside the catalogue\n");
      return 1;
    }
    const std::string problem = workload->check();
    if (!problem.empty()) {
      std::fprintf(stderr, "check failed: %s\n", problem.c_str());
    }
    if (!ledger.identical) {
      std::fprintf(stderr, "check failed: engine outputs differ between "
                           "runs or thread counts\n");
    }
    if (ledger.failed != 0) {
      std::fprintf(stderr, "check failed: %zu failed items\n", ledger.failed);
    }
    for (std::size_t i = 0; i < count; ++i) {
      std::fprintf(stderr, "  %-28s %14.6g %s\n", catalog[i].name,
                   values.at(catalog[i].name), catalog[i].unit);
    }
    const bool correct =
        problem.empty() && ledger.identical && ledger.failed == 0;
    print_result(correct, ledger, catalog, count, values);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
