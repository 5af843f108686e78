// Wall-clock scaling of the deterministic parallel sampling engine.
//
// Times the two headline workloads at 1/2/4/8 worker threads and
// checks that every thread count reproduces the single-thread output
// bit for bit:
//   * the Figure 7 uncertainty analysis (1,000 model solves over the
//     Section 7 parameter ranges, Config 1);
//   * the Section 3 fault-injection campaign (3,287 trials).
//
//   bench_parallel_scaling [--samples N] [--trials N] [--json FILE]
//
// --json writes the timings as a machine-readable record.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/uncertainty.h"
#include "faultinj/injector.h"
#include "models/jsas_system.h"
#include "models/params.h"
#include "uncertainty_common.h"

namespace {

using namespace rascal;

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Scaling {
  std::vector<double> seconds;  // aligned with kThreadCounts
  bool deterministic = true;
};

Scaling time_uncertainty(std::size_t samples) {
  const models::JsasConfig config = models::JsasConfig::config1();
  const auto ranges = benchutil::paper_ranges();
  const analysis::ContextModelFunction model =
      [&config](const expr::ParameterSet& params, ctmc::SolveCache& cache) {
        return models::solve_jsas(config, params, cache)
            .downtime_minutes_per_year;
      };

  Scaling scaling;
  analysis::UncertaintyOptions options;
  options.samples = samples;
  options.seed = 2004;
  options.threads = 1;
  const auto reference = analysis::uncertainty_analysis(
      model, models::default_parameters(), ranges, options);
  for (std::size_t threads : kThreadCounts) {
    options.threads = threads;
    const auto start = std::chrono::steady_clock::now();
    const auto result = analysis::uncertainty_analysis(
        model, models::default_parameters(), ranges, options);
    scaling.seconds.push_back(seconds_since(start));
    scaling.deterministic =
        scaling.deterministic && result.mean == reference.mean &&
        result.interval80.lower == reference.interval80.lower &&
        result.interval90.upper == reference.interval90.upper &&
        result.metrics == reference.metrics;
  }
  return scaling;
}

Scaling time_campaign(std::size_t trials) {
  Scaling scaling;
  faultinj::CampaignOptions options;
  options.trials = trials;
  options.threads = 1;
  const auto reference = faultinj::run_campaign(options);
  for (std::size_t threads : kThreadCounts) {
    options.threads = threads;
    const auto start = std::chrono::steady_clock::now();
    const auto result = faultinj::run_campaign(options);
    scaling.seconds.push_back(seconds_since(start));
    scaling.deterministic =
        scaling.deterministic && result.successes == reference.successes &&
        result.hadb_restart_times.mean() ==
            reference.hadb_restart_times.mean() &&
        result.as_restart_times.mean() == reference.as_restart_times.mean();
  }
  return scaling;
}

void print_table(const char* name, const Scaling& scaling) {
  std::printf("%s\n", name);
  for (std::size_t i = 0; i < scaling.seconds.size(); ++i) {
    std::printf("  %zu thread%s : %8.3f s   speedup %.2fx\n",
                kThreadCounts[i], kThreadCounts[i] == 1 ? " " : "s",
                scaling.seconds[i],
                scaling.seconds[0] / scaling.seconds[i]);
  }
  std::printf("  bit-identical across thread counts: %s\n\n",
              scaling.deterministic ? "yes" : "NO");
}

void write_json(const std::string& path, std::size_t samples,
                std::size_t trials, const Scaling& uncertainty,
                const Scaling& campaign) {
  std::ofstream out(path);
  const auto emit = [&](const char* name, std::size_t size,
                        const Scaling& scaling, bool last) {
    out << "    \"" << name << "\": {\n"
        << "      \"size\": " << size << ",\n"
        << "      \"seconds_by_threads\": {";
    for (std::size_t i = 0; i < scaling.seconds.size(); ++i) {
      out << (i ? ", " : "") << "\"" << kThreadCounts[i]
          << "\": " << scaling.seconds[i];
    }
    out << "},\n"
        << "      \"speedup_at_8_threads\": "
        << scaling.seconds.front() / scaling.seconds.back() << ",\n"
        << "      \"deterministic\": "
        << (scaling.deterministic ? "true" : "false") << "\n"
        << "    }" << (last ? "\n" : ",\n");
  };
  out << "{\n  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n  \"workloads\": {\n";
  emit("fig7_uncertainty", samples, uncertainty, false);
  emit("faultinj_campaign", trials, campaign, true);
  out << "  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t samples = 1000;
  std::size_t trials = 3287;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(argv[i], "--samples") == 0) {
      const char* value = next();
      if (value) samples = std::stoul(value);
    } else if (std::strcmp(argv[i], "--trials") == 0) {
      const char* value = next();
      if (value) trials = std::stoul(value);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      const char* value = next();
      if (value) json_path = value;
    } else {
      std::fprintf(stderr,
                   "usage: bench_parallel_scaling [--samples N] "
                   "[--trials N] [--json FILE]\n");
      return 2;
    }
  }

  std::printf("=== Parallel scaling (hardware_concurrency = %u) ===\n\n",
              std::thread::hardware_concurrency());
  const Scaling uncertainty = time_uncertainty(samples);
  print_table("Figure 7 uncertainty workload", uncertainty);
  const Scaling campaign = time_campaign(trials);
  print_table("Fault-injection campaign", campaign);

  if (!json_path.empty()) {
    write_json(json_path, samples, trials, uncertainty, campaign);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return uncertainty.deterministic && campaign.deterministic ? 0 : 1;
}
