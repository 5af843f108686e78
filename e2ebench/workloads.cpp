#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "analysis/uncertainty.h"
#include "core/metrics.h"
#include "ctmc/solve_cache.h"
#include "faultinj/injector.h"
#include "generators.h"
#include "io/model_file.h"
#include "resil/resil.h"
#include "serve/batch.h"
#include "serve/request.h"
#include "serve/supervise.h"
#include "stats/rng.h"
#include "stats/sampling.h"
#include "stats/summary.h"
#include "timing.h"

namespace e2ebench {

namespace {

using namespace rascal;

// Problem size of one engine call: 0.1-0.3 s at one thread on a
// 4-core x86 host, so a 20-second run repeats the call 30-60 times.
constexpr std::size_t kPaperSamples = 50000;
constexpr std::size_t kKofnSamples = 64;
constexpr std::size_t kBatchRequests = 25000;
constexpr std::size_t kBatchHotKeys = 256;
constexpr double kBatchHotShare = 0.8;
constexpr std::size_t kCampaignTrials = 5000;

// rascal_cli's defaults for the flags these workloads leave unset.
constexpr ctmc::SteadyStateMethod kMethod = ctmc::SteadyStateMethod::kGth;
constexpr std::size_t kCacheEntries = 1024;
constexpr std::size_t kMaxAttempts = 3;

double ms_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e6;
}

double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

std::size_t count_lines(const std::string& path) {
  std::ifstream in(path);
  return static_cast<std::size_t>(std::count(
      std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>(),
      '\n'));
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

// Median wall milliseconds of `fn` over `reps` calls.
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t start = now_ns();
    fn();
    ms.push_back(ms_since(start));
  }
  return median(std::move(ms));
}

// Wall and process CPU time around one engine call.
class Stopwatch {
 public:
  Stopwatch() : cpu_s_(process_cpu_s()), start_ns_(now_ns()) {}
  void stop(EngineRun& run) {
    end_ns_ = now_ns();
    run.cpu_s = process_cpu_s() - cpu_s_;
    run.wall_s = static_cast<double>(end_ns_ - start_ns_) / 1e9;
  }
  [[nodiscard]] std::int64_t start_ns() const { return start_ns_; }
  [[nodiscard]] std::int64_t end_ns() const { return end_ns_; }

 private:
  double cpu_s_;
  std::int64_t start_ns_;
  std::int64_t end_ns_ = 0;
};

// The uncertainty subcommand's solver control (batch_solve_control in
// rascal_cli: no escalation, ILU(0), library sparse threshold).
ctmc::SolveControl cli_batch_solve_control(
    const resil::CancellationToken* cancel) {
  ctmc::SolveControl control;
  control.cancel = cancel;
  control.escalate = false;
  control.precond = linalg::PrecondKind::kIlu0;
  return control;
}

// Per-item layer times (microseconds) of traced engine calls or
// replays, pooled over every traced call of a run.
struct ItemLayers {
  std::vector<double> parse, bind, key, solve, metric, render;
  double item_total = 0.0;  // sum of whole-item times
  std::size_t lookups = 0;
  std::size_t hits = 0;
  std::size_t iterations = 0;  // over fresh solves

  static double sum(const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return s;
  }
  double share(const std::vector<double>& v) const {
    return item_total > 0.0 ? sum(v) / item_total : 0.0;
  }

  void report(LayerMetrics& m, std::size_t calls) const {
    m["expr.bind_us_p50"] = quantile(bind, 0.5);
    m["expr.bind_us_p99"] = quantile(bind, 0.99);
    m["expr.bind_n"] = static_cast<double>(bind.size());
    m["expr.bind_share"] = share(bind);
    m["cache.key_us_p50"] = quantile(key, 0.5);
    m["cache.key_share"] = share(key);
    m["cache.lookups"] = static_cast<double>(lookups / calls);
    m["cache.hit_ratio"] =
        lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                    : 0.0;
    m["solve.us_p50"] = quantile(solve, 0.5);
    m["solve.us_p99"] = quantile(solve, 0.99);
    m["solve.n"] = static_cast<double>(solve.size());
    m["solve.iterations_per_solve"] =
        solve.empty() ? 0.0
                      : static_cast<double>(iterations) /
                            static_cast<double>(solve.size());
    m["solve.share"] = share(solve);
    m["metrics.us_p50"] = quantile(metric, 0.5);
    m["metrics.share"] = share(metric);
    if (!parse.empty()) {
      m["serve.parse_us_p50"] = quantile(parse, 0.5);
      m["serve.render_us_p50"] = quantile(render, 0.5);
      m["serve.share"] = share(parse) + share(render);
    }
  }
};

// ---------------------------------------------------------------- unc

// `rascal_cli uncertainty MODEL --range ... --samples N --seed S
// --metric downtime --threads T`.
class UncertaintyWorkload final : public Workload {
 public:
  UncertaintyWorkload(std::string model_path,
                      std::vector<stats::ParameterRange> ranges,
                      std::size_t samples, std::uint64_t seed)
      : model_path_(std::move(model_path)),
        ranges_(std::move(ranges)),
        samples_(samples),
        seed_(seed) {}

  double setup() override {
    const std::int64_t start = now_ns();
    file_.emplace(io::load_model(model_path_));
    base_ = file_->parameters.with(expr::ParameterSet{});
    options_ = analysis::UncertaintyOptions{};
    options_.samples = samples_;
    options_.seed = seed_;
    options_.control.cancel = &cancel_;
    options_.control.skip_failures = true;
    // rascal_cli computes the checkpoint digest even without --checkpoint.
    (void)analysis::uncertainty_checkpoint_digest(options_, ranges_);
    return ms_since(start) / 1e3;
  }

  EngineRun run(std::size_t threads) override {
    const ctmc::SolveControl control = cli_batch_solve_control(&cancel_);
    const io::ModelFile& file = *file_;
    // rascal_cli's metric function, verbatim.
    const analysis::ContextModelFunction metric_fn =
        [&](const expr::ParameterSet& params, ctmc::SolveCache& cache) {
          const ctmc::Ctmc chain = file.model.bind(params);
          const auto m = core::availability_metrics(
              chain, cache.steady_state(chain, kMethod,
                                        ctmc::Validation::kOn, control));
          return m.downtime_minutes_per_year;
        };
    return call(metric_fn, threads);
  }

  EngineRun traced_run(std::size_t threads) override {
    struct Item {
      std::int64_t start = 0, bind = 0, key = 0, solve = 0, metric = 0,
                   end = 0;
      std::uint64_t key_value = 0;
      std::size_t iterations = 0;
      bool hit = false;
    };
    std::vector<Item> items(samples_);
    std::atomic<std::size_t> next{0};
    const ctmc::SolveControl control = cli_batch_solve_control(&cancel_);
    const io::ModelFile& file = *file_;
    // The same calls as run(), with a timer between layers.  The key
    // is computed once more on its own to time it; SolveCache computes
    // it again inside, so the solve's self time subtracts it.
    const analysis::ContextModelFunction metric_fn =
        [&](const expr::ParameterSet& params, ctmc::SolveCache& cache) {
          Item t;
          t.start = now_ns();
          const ctmc::Ctmc chain = file.model.bind(params);
          const std::int64_t bound = now_ns();
          t.key_value = ctmc::steady_state_key(chain, kMethod,
                                               ctmc::Validation::kOn, control);
          const std::int64_t keyed = now_ns();
          const std::uint64_t hits = cache.hits();
          const ctmc::SteadyState& steady =
              cache.steady_state(chain, kMethod, ctmc::Validation::kOn,
                                 control);
          const std::int64_t solved = now_ns();
          t.hit = cache.hits() != hits;
          t.iterations = steady.iterations;
          const auto m = core::availability_metrics(chain, steady);
          t.end = now_ns();
          t.bind = bound - t.start;
          t.key = keyed - bound;
          t.solve = std::max<std::int64_t>(0, solved - keyed - t.key);
          t.metric = t.end - solved;
          const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
          if (slot < items.size()) items[slot] = t;
          return m.downtime_minutes_per_year;
        };
    const EngineRun run = call(metric_fn, threads);

    const std::size_t done = std::min(next.load(), items.size());
    std::int64_t first_start = call_end_ns_;
    std::int64_t last_end = call_start_ns_;
    for (std::size_t i = 0; i < done; ++i) {
      const Item& t = items[i];
      layers_.bind.push_back(us(t.bind));
      layers_.key.push_back(us(t.key));
      layers_.metric.push_back(us(t.metric));
      if (!t.hit) {
        layers_.solve.push_back(us(t.solve));
        layers_.iterations += t.iterations;
      }
      layers_.item_total += us(t.end - t.start);
      ++layers_.lookups;
      layers_.hits += t.hit ? 1 : 0;
      first_start = std::min(first_start, t.start);
      last_end = std::max(last_end, t.end);
    }
    ++traced_calls_;
    // Wall time on the calling thread outside every sample: the serial
    // draw before the parallel region and the reductions after it.
    serial_ms_.push_back(
        static_cast<double>((first_start - call_start_ns_) +
                            (call_end_ns_ - last_end)) /
        1e6);
    return run;
  }

  LayerMetrics layer_metrics() override {
    LayerMetrics m;
    m["io.load_ms"] = median_ms(3, [&] { (void)io::load_model(model_path_); });
    m["io.model_lines"] = static_cast<double>(count_lines(model_path_));
    layers_.report(m, std::max<std::size_t>(1, traced_calls_));
    // The serial stats layer, replayed with the engine's own inputs.
    m["stats.draw_ms"] = median_ms(3, [&] {
      stats::RandomEngine rng(seed_);
      (void)stats::monte_carlo_samples(ranges_, samples_, rng);
    });
    m["stats.reduce_ms"] = median_ms(3, [&] {
      stats::Summary summary;
      for (const double v : result_.metrics) summary.add(v);
      (void)stats::sample_interval(result_.metrics, 0.8);
      (void)stats::sample_interval(result_.metrics, 0.9);
    });
    m["pool.serial_ms"] = median(serial_ms_);
    return m;
  }

  std::string check() override {
    if (result_.completed != samples_ || !result_.failures.empty()) {
      return "uncertainty: " + std::to_string(result_.failures.size()) +
             " of " + std::to_string(samples_) + " samples dropped";
    }
    if (!(result_.mean > 0.0) || !(result_.interval90.lower <= result_.mean) ||
        !(result_.mean <= result_.interval90.upper)) {
      return "uncertainty: mean downtime outside its own 90% interval";
    }
    return "";
  }

 private:
  EngineRun call(const analysis::ContextModelFunction& fn,
                 std::size_t threads) {
    options_.threads = threads;
    EngineRun run;
    Stopwatch watch;
    result_ = analysis::uncertainty_analysis(fn, base_, ranges_, options_);
    watch.stop(run);
    call_start_ns_ = watch.start_ns();
    call_end_ns_ = watch.end_ns();
    run.items = result_.requested;
    run.failed = result_.requested - result_.completed;
    Fnv fnv;
    fnv.word(result_.completed)
        .f64(result_.mean)
        .f64(result_.summary.stddev())
        .f64(result_.summary.min())
        .f64(result_.summary.max())
        .f64(result_.interval80.lower)
        .f64(result_.interval80.upper)
        .f64(result_.interval90.lower)
        .f64(result_.interval90.upper);
    for (const double v : result_.metrics) fnv.f64(v);
    run.fingerprint = fnv.value();
    return run;
  }

  std::string model_path_;
  std::vector<stats::ParameterRange> ranges_;
  std::size_t samples_;
  std::uint64_t seed_;
  resil::CancellationToken cancel_;

  std::optional<io::ModelFile> file_;
  expr::ParameterSet base_;
  analysis::UncertaintyOptions options_;
  analysis::UncertaintyResult result_;
  std::int64_t call_start_ns_ = 0;
  std::int64_t call_end_ns_ = 0;

  ItemLayers layers_;
  std::size_t traced_calls_ = 0;
  std::vector<double> serial_ms_;
};

// -------------------------------------------------------------- batch

double output_value(serve::OutputKind kind,
                    const core::AvailabilityMetrics& m) {
  switch (kind) {
    case serve::OutputKind::kAvailability: return m.availability;
    case serve::OutputKind::kUnavailability: return m.unavailability;
    case serve::OutputKind::kDowntime: return m.downtime_minutes_per_year;
    case serve::OutputKind::kMtbf: return m.mtbf_hours;
    case serve::OutputKind::kMttf: return m.mttf_hours;
    case serve::OutputKind::kMttr: return m.mttr_hours;
    case serve::OutputKind::kRewardRate: return m.expected_reward_rate;
    case serve::OutputKind::kFailureFrequency: return m.failure_frequency;
  }
  return 0.0;
}

// `rascal_cli batch REQUESTS.jsonl --out FILE --threads T` with the
// default 1024-slot shared cache and supervision.
class BatchWorkload final : public Workload {
 public:
  BatchWorkload(std::string requests_path, std::string sink_path)
      : requests_path_(std::move(requests_path)),
        sink_path_(std::move(sink_path)) {}

  double setup() override {
    const std::int64_t start = now_ns();
    std::ifstream in(requests_path_);
    if (!in) throw std::runtime_error("cannot open " + requests_path_);
    lines_ = serve::read_request_lines(in);
    options_ = serve::BatchOptions{};
    options_.cache_capacity = kCacheEntries;
    options_.control.cancel = &cancel_;
    options_.supervision.retry.max_attempts = kMaxAttempts;
    options_.supervision.retry.base_iterations = 0;
    // rascal_cli computes the checkpoint digest even without --checkpoint.
    (void)serve::batch_checkpoint_digest(lines_, options_.supervision);
    return ms_since(start) / 1e3;
  }

  EngineRun run(std::size_t threads) override {
    std::ofstream out(sink_path_, std::ios::trunc);
    return call(out, threads);
  }

  EngineRun traced_run(std::size_t threads) override {
    std::ofstream file(sink_path_, std::ios::trunc);
    TimedStream out(file.rdbuf());
    const EngineRun run = call(out, threads);
    sink_write_ms_.push_back(out.write_ms());
    lookups_ = result_.cache.hits + result_.worker_hits + result_.cache.misses;
    hit_ratio_ = result_.hit_rate();
    evictions_ = result_.cache.evictions;
    return run;
  }

  LayerMetrics layer_metrics() override {
    LayerMetrics m;
    ItemLayers layers;
    // Serial replay of the stream through the same public calls that
    // run_batch makes: parse, load (once per model), bind, key,
    // supervised solve through a SolveCache backed by a
    // SharedSolveCache, metrics, render.  Its bytes must equal the
    // sink's.
    std::map<std::string, io::ModelFile> models;
    double load_ms = 0.0;
    double model_lines = 0.0;
    ctmc::SharedSolveCache::Config config;
    config.capacity = kCacheEntries;
    ctmc::SharedSolveCache shared(config);
    ctmc::SolveCache local;
    local.set_shared(&shared);
    Fnv replay;
    std::uint64_t shared_misses = 0;
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      const std::int64_t t0 = now_ns();
      const serve::Request request = serve::parse_request(lines_[i]);
      const std::int64_t t1 = now_ns();
      auto found = models.find(request.model_path);
      if (found == models.end()) {
        const std::int64_t load_start = now_ns();
        found = models.emplace(request.model_path,
                               io::load_model(request.model_path))
                    .first;
        load_ms += ms_since(load_start);
        model_lines += static_cast<double>(count_lines(request.model_path));
      }
      const std::int64_t t2 = now_ns();
      const ctmc::Ctmc chain = found->second.bind(request.overrides);
      const std::int64_t t3 = now_ns();
      ctmc::SolveControl control;
      control.precond = request.precond;
      control.sparse_threshold = request.sparse_threshold;
      (void)ctmc::steady_state_key(chain, request.method,
                                   ctmc::Validation::kOn, control);
      const std::int64_t t4 = now_ns();
      serve::SolveSpec spec;
      spec.method = request.method;
      spec.precond = request.precond;
      spec.sparse_threshold = request.sparse_threshold;
      spec.max_iterations = request.max_iterations;
      spec.gmres_restart = request.gmres_restart;
      const std::uint64_t local_hits = local.hits();
      const serve::SupervisedSolve solved = serve::supervised_solve(
          chain, spec, local, options_.supervision, &cancel_);
      const std::int64_t t5 = now_ns();
      const core::AvailabilityMetrics metrics =
          core::availability_metrics(chain, solved.steady);
      std::vector<double> values;
      for (const serve::OutputKind kind : request.outputs) {
        values.push_back(output_value(kind, metrics));
      }
      const std::int64_t t6 = now_ns();
      const std::string line =
          serve::render_result_line(i, request, values, solved.fallback);
      const std::int64_t t7 = now_ns();
      replay.bytes(line.data(), line.size()).bytes("\n", 1);

      bool fresh = false;
      if (local.hits() == local_hits) {
        const std::uint64_t misses = shared.stats().misses;
        fresh = misses != shared_misses;
        shared_misses = misses;
      }
      layers.parse.push_back(us(t1 - t0));
      layers.bind.push_back(us(t3 - t2));
      layers.key.push_back(us(t4 - t3));
      if (fresh) {
        layers.solve.push_back(
            us(std::max<std::int64_t>(0, (t5 - t4) - (t4 - t3))));
        layers.iterations += solved.steady.iterations;
      }
      layers.metric.push_back(us(t6 - t5));
      layers.render.push_back(us(t7 - t6));
      layers.item_total += us((t1 - t0) + (t7 - t2));
    }
    if (replay.value() != sink_.hash) {
      throw std::runtime_error(
          "batch: serial replay does not reproduce the run_batch sink bytes");
    }
    layers.report(m, 1);
    // Cache statistics come from the engine, not the serial replay.
    m["cache.lookups"] = static_cast<double>(lookups_);
    m["cache.hit_ratio"] = hit_ratio_;
    m["cache.evictions"] = static_cast<double>(evictions_);
    m["io.load_ms"] = load_ms;
    m["io.model_lines"] = model_lines;
    // run_batch parses every line and loads every model serially
    // before its parallel region.
    m["pool.serial_ms"] = ItemLayers::sum(layers.parse) / 1e3 + load_ms;
    m["serve.sink_write_ms"] = median(sink_write_ms_);
    m["serve.sink_bytes"] = static_cast<double>(sink_.bytes);
    return m;
  }

  std::string check() override {
    std::size_t ok = 0;
    std::ifstream records(sink_path_);
    std::string line;
    while (std::getline(records, line)) {
      if (line.find("\"status\":\"ok\"") == std::string::npos) {
        return "batch: record is not ok: " + line.substr(0, 200);
      }
      ++ok;
    }
    if (ok != lines_.size() || result_.succeeded != lines_.size()) {
      return "batch: " + std::to_string(ok) + " ok records for " +
             std::to_string(lines_.size()) + " requests";
    }
    return "";
  }

 private:
  // The sink stream must write to sink_path_; run_batch flushes it
  // before returning, so the file is complete when the timer stops.
  EngineRun call(std::ostream& out, std::size_t threads) {
    options_.threads = threads;
    EngineRun run;
    Stopwatch watch;
    result_ = serve::run_batch(lines_, out, options_);
    watch.stop(run);
    run.items = result_.requests;
    run.failed = result_.failed + result_.shed + result_.lost +
                 result_.sink_write_failures;
    sink_ = digest_file(sink_path_);
    run.fingerprint = Fnv()
                          .word(sink_.hash)
                          .word(sink_.bytes)
                          .word(result_.succeeded)
                          .value();
    return run;
  }

  std::string requests_path_;
  std::string sink_path_;
  resil::CancellationToken cancel_;
  std::vector<std::string> lines_;
  serve::BatchOptions options_;
  serve::BatchResult result_;
  FileDigest sink_;

  std::vector<double> sink_write_ms_;
  std::uint64_t lookups_ = 0;
  double hit_ratio_ = 0.0;
  std::uint64_t evictions_ = 0;
};

// ----------------------------------------------------------- campaign

// `rascal_cli campaign --trials N --seed S --threads T --checkpoint F`
// at the default FIR of 0.
class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(std::string checkpoint_path, std::uint64_t seed)
      : path_(std::move(checkpoint_path)), seed_(seed) {}

  double setup() override {
    // rascal_cli refuses to overwrite a checkpoint without --resume;
    // each engine call starts from a fresh file.
    checkpoint_.reset();
    std::filesystem::remove(path_);
    std::filesystem::remove(path_ + ".tmp");
    const std::int64_t start = now_ns();
    options_ = faultinj::CampaignOptions{};
    options_.trials = kCampaignTrials;
    options_.seed = seed_;
    options_.recovery.true_imperfect_recovery = 0.0;
    options_.control.cancel = &cancel_;
    options_.control.skip_failures = true;
    digest_ = faultinj::campaign_checkpoint_digest(options_);
    if (resil::checkpoint_file_exists(path_)) {
      throw std::runtime_error("campaign: stale checkpoint " + path_);
    }
    checkpoint_ = std::make_unique<resil::Checkpointer>(
        path_, "campaign", digest_, options_.trials);
    options_.control.checkpoint = checkpoint_.get();
    return ms_since(start) / 1e3;
  }

  EngineRun run(std::size_t threads) override {
    setup();
    return call(threads);
  }

  EngineRun traced_run(std::size_t threads) override {
    const EngineRun run = this->run(threads);
    checkpointed_ms_.push_back(run.wall_s * 1e3);
    // The same campaign without a checkpoint, at the same and at one
    // thread: the resil layer's share and the per-trial cost.
    options_.control.checkpoint = nullptr;
    plain_ms_.push_back(call(threads).wall_s * 1e3);
    plain_1t_ms_.push_back(call(1).wall_s * 1e3);
    options_.control.checkpoint = checkpoint_.get();
    return run;
  }

  void observe(const obs::Snapshot& snapshot) override {
    for (const obs::CounterValue& counter : snapshot.counters) {
      if (counter.name == "resil.checkpoint.flushes") {
        flushes_ = static_cast<double>(counter.value);
      }
    }
  }

  LayerMetrics layer_metrics() override {
    LayerMetrics m;
    const double with = median(checkpointed_ms_);
    const double without = median(plain_ms_);
    m["resil.checkpoint_share"] = with > 0.0 ? (with - without) / with : 0.0;
    m["resil.flushes"] = flushes_;
    m["resil.flush_ms_final"] =
        median_ms(3, [&] { checkpoint_->flush(); });
    m["resil.checkpoint_bytes"] =
        static_cast<double>(std::filesystem::file_size(path_));
    m["faultinj.trial_us"] =
        median(plain_1t_ms_) * 1e3 / static_cast<double>(kCampaignTrials);
    return m;
  }

  std::string check() override {
    // Set-ups repeated since the last engine call removed its
    // checkpoint; one more call leaves a checkpoint to reload.
    const std::uint64_t fingerprint = last_fingerprint_;
    if (run(kThreads).fingerprint != fingerprint) {
      return "campaign: aggregates differ between runs";
    }
    if (result_.trials != kCampaignTrials ||
        result_.successes != result_.trials || !result_.failures.empty()) {
      return "campaign: " + std::to_string(result_.successes) +
             " successes over " + std::to_string(result_.trials) +
             " trials at FIR 0";
    }
    resil::Checkpointer reload(path_, "campaign", digest_, kCampaignTrials);
    const std::size_t restored = reload.resume_from_disk();
    const std::vector<resil::CheckpointEntry> entries = reload.entries();
    if (restored != kCampaignTrials || entries.size() != kCampaignTrials) {
      return "campaign: checkpoint reloads " + std::to_string(restored) +
             " of " + std::to_string(kCampaignTrials) + " trials";
    }
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].index != i ||
          entries[i].status != resil::EntryStatus::kOk) {
        return "campaign: checkpoint entry " + std::to_string(i) +
               " missing or failed";
      }
    }
    return "";
  }

 private:
  EngineRun call(std::size_t threads) {
    options_.threads = threads;
    EngineRun run;
    Stopwatch watch;
    result_ = faultinj::run_campaign(options_);
    watch.stop(run);
    run.items = result_.requested;
    run.failed = result_.requested - result_.trials;
    Fnv fnv;
    fnv.word(result_.trials)
        .word(result_.successes)
        .f64(result_.fir_upper_bound(0.95))
        .f64(result_.fir_upper_bound(0.99));
    for (const stats::Summary* s :
         {&result_.hadb_restart_times, &result_.hadb_rebuild_times,
          &result_.as_restart_times, &result_.recovery_by_workload[0],
          &result_.recovery_by_workload[1], &result_.recovery_by_workload[2]}) {
      fnv.word(s->count());
      if (s->count() > 0) fnv.f64(s->mean()).f64(s->max());
    }
    for (const faultinj::InjectionRecord& r : result_.records) {
      fnv.word(static_cast<std::uint64_t>(r.fault))
          .word(r.target)
          .f64(r.recovery_time_hours);
    }
    run.fingerprint = fnv.value();
    last_fingerprint_ = run.fingerprint;
    return run;
  }

  std::string path_;
  std::uint64_t seed_;
  resil::CancellationToken cancel_;
  faultinj::CampaignOptions options_;
  std::uint64_t digest_ = 0;
  std::unique_ptr<resil::Checkpointer> checkpoint_;
  faultinj::CampaignResult result_;
  std::uint64_t last_fingerprint_ = 0;

  std::vector<double> checkpointed_ms_;
  std::vector<double> plain_ms_;
  std::vector<double> plain_1t_ms_;
  double flushes_ = 0.0;
};

}  // namespace

std::string workload_input(const std::string& name, std::uint64_t seed) {
  if (name == "unc_kofn") return kofn_rasc(KofnRasc{});
  if (name != "batch_zipf") return "";
  std::string text;
  for (const std::string& line :
       batch_requests(seed, kBatchRequests, kBatchHotKeys, kBatchHotShare)) {
    text += line;
    text += '\n';
  }
  return text;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& work_dir) {
  std::filesystem::create_directories(work_dir);
  if (name == "unc_paper") {
    // Section 7: the Fig. 3 HADB pair with FIR and one failure rate
    // uncertain.
    return std::make_unique<UncertaintyWorkload>(
        "examples/models/hadb_pair.rasc",
        std::vector<stats::ParameterRange>{{"FIR", 0.0, 0.002},
                                           {"La_hadb", 1.0 / 8760, 4.0 / 8760}},
        kPaperSamples, seed);
  }
  if (name == "unc_kofn") {
    const std::string path = work_dir + "/kofn_as_7.rasc";
    write_file(path, workload_input(name, seed));
    return std::make_unique<UncertaintyWorkload>(
        path,
        std::vector<stats::ParameterRange>{{"La", 0.01, 0.03},
                                           {"C", 0.85, 0.95}},
        kKofnSamples, seed);
  }
  if (name == "batch_zipf") {
    const std::string path = work_dir + "/requests.jsonl";
    write_file(path, workload_input(name, seed));
    return std::make_unique<BatchWorkload>(path, work_dir + "/results.jsonl");
  }
  if (name == "campaign_ckpt") {
    return std::make_unique<CampaignWorkload>(work_dir + "/campaign.ckpt",
                                              seed);
  }
  return nullptr;
}

}  // namespace e2ebench
