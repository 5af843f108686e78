// rascal_cli — solve availability models from .rasc files.
//
//   rascal_cli solve MODEL.rasc [--set NAME=VALUE ...] [--method M]
//   rascal_cli lint  MODEL.rasc [--set NAME=VALUE ...] [--json] [--werror]
//   rascal_cli states MODEL.rasc [--set NAME=VALUE ...]
//   rascal_cli sweep MODEL.rasc --param NAME --from A --to B
//              [--points N] [--metric OUTPUT]
//              [--set NAME=VALUE ...]
//   rascal_cli mttf  MODEL.rasc [--start STATE] [--set NAME=VALUE ...]
//   rascal_cli lump  MODEL.rasc [--set NAME=VALUE ...]
//   rascal_cli dot   MODEL.rasc [--set NAME=VALUE ...]   (Graphviz)
//   rascal_cli sens  MODEL.rasc [--set NAME=VALUE ...]   (exact d/dtheta)
//   rascal_cli golden GOLDEN_DIR [--update-golden]       (paper regression)
//   rascal_cli uncertainty MODEL.rasc --range NAME=LO:HI ...
//              [--samples N] [--seed S] [--lhs] [--threads N]
//              [--metric OUTPUT] [--set NAME=VALUE ...]
//   rascal_cli campaign [--trials N] [--seed S] [--threads N] [--fir P]
//   rascal_cli batch REQUESTS.jsonl [--out FILE] [--threads N]
//              [--cache-entries N]     (JSONL solve requests -> records)
//   rascal_cli serve [--out FILE] [--threads N] [--cache-entries N]
//              (batch over stdin; see docs/serving.md for the schema)
//
// Every subcommand additionally accepts --trace FILE (write a Chrome
// trace-event JSON viewable in Perfetto / chrome://tracing) and
// --stats (print the span/counter summary to stderr).  Telemetry
// never touches the RNG stream, so traced runs produce bit-identical
// numerical output on stdout.
//
// Long-running subcommands (uncertainty, campaign, batch, serve) accept
// --checkpoint FILE / --resume / --deadline SECS: the run writes
// periodic append-only checkpoints, drains cleanly on SIGINT/SIGTERM or
// deadline expiry with partial results clearly marked, and a resumed
// run emits stdout byte-identical to an uninterrupted one.
//
// Exit codes: 0 success; 1 internal error; 2 usage; 3 model or
// validation error (parse failure, lint errors, bad ranges, corrupt
// checkpoint, golden mismatch); 4 solver nonconvergence or deadline
// exceeded; 128+N interrupted by signal N after checkpointing (130
// SIGINT, 143 SIGTERM).
//
// Methods: gth (default), gmres, bicgstab.  solve, states, sweep and
// batch/serve answer through serve::evaluate and its one fallback
// ladder; a lower rung's answer is announced on stderr or in a record.
// Outputs (--metric): availability (default), unavailability,
// downtime, mtbf, mttf, mttr, reward_rate, failure_frequency.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "analysis/exact_sensitivity.h"
#include "analysis/parametric.h"
#include "analysis/uncertainty.h"
#include "check/golden.h"
#include "check/paper_golden.h"
#include "core/metrics.h"
#include "ctmc/absorption.h"
#include "ctmc/lumping.h"
#include "ctmc/steady_state.h"
#include "faultinj/injector.h"
#include "io/dot_export.h"
#include "io/model_file.h"
#include "io/number_parse.h"
#include "lint/lint.h"
#include "obs/trace.h"
#include "report/ascii_plot.h"
#include "report/diagnostics.h"
#include "report/table.h"
#include "resil/resil.h"
#include "serve/batch.h"
#include "serve/request.h"
#include "serve/supervise.h"

namespace {

using namespace rascal;

// Exit-code contract (documented in usage() and docs/resilience.md).
constexpr int kExitOk = 0;
constexpr int kExitInternal = 1;
constexpr int kExitUsage = 2;
constexpr int kExitModelError = 3;
constexpr int kExitNonConvergence = 4;  // also: deadline exceeded

// Residuals above this mean the printed pi cannot be trusted; the CLI
// warns on stderr and exits kExitNonConvergence even though metrics
// were printed (satellite: nonconvergence must not be silent).
constexpr double kResidualWarnLimit = 1e-6;

// One process-wide token: the signal handlers latch it, --deadline
// arms it, and every solver / sampling loop polls it.
resil::CancellationToken g_cancel;

[[nodiscard]] int interrupted_exit_code() {
  if (g_cancel.reason() == resil::CancelReason::kSignal) {
    return 128 + g_cancel.signal_number();
  }
  return kExitNonConvergence;  // deadline (or programmatic cancel)
}

int usage() {
  std::cerr
      << "usage:\n"
         "  rascal_cli solve  MODEL.rasc [--set NAME=VALUE ...] "
         "[--method gth|gmres|bicgstab]\n"
         "             [--precond none|jacobi|ilu0]"
         " [--sparse-threshold N]\n"
         "  rascal_cli lint   MODEL.rasc [--set NAME=VALUE ...] [--json]"
         " [--werror]\n"
         "             (static analysis; exit 3 on errors, or on"
         " warnings with --werror)\n"
         "  rascal_cli states MODEL.rasc [--set NAME=VALUE ...]\n"
         "  rascal_cli sweep  MODEL.rasc --param NAME --from A --to B\n"
         "             [--points N] [--metric OUTPUT]"
         " [--set NAME=VALUE ...] [--threads N]\n"
         "             (--threads 0 = auto: RASCAL_THREADS env, else all"
         " cores)\n"
         "  rascal_cli mttf   MODEL.rasc [--start STATE] "
         "[--set NAME=VALUE ...]\n"
         "  rascal_cli lump   MODEL.rasc [--set NAME=VALUE ...]\n"
         "  rascal_cli dot    MODEL.rasc [--set NAME=VALUE ...]\n"
         "  rascal_cli sens   MODEL.rasc [--set NAME=VALUE ...]\n"
         "  rascal_cli golden GOLDEN_DIR [--update-golden]\n"
         "             (verify paper-golden files; --update-golden"
         " regenerates them)\n"
         "  rascal_cli uncertainty MODEL.rasc --range NAME=LO:HI ...\n"
         "             [--samples N] [--seed S] [--lhs] [--threads N]\n"
         "             [--metric OUTPUT] [--set NAME=VALUE ...]\n"
         "             (OUTPUT: availability, unavailability, downtime,"
         " mtbf, mttf, mttr,\n"
         "              reward_rate, failure_frequency)\n"
         "  rascal_cli campaign [--trials N] [--seed S] [--threads N]"
         " [--fir P]\n"
         "             (fault-injection campaign on the simulated"
         " testbed)\n"
         "  rascal_cli batch  REQUESTS.jsonl [--out FILE] [--threads N]"
         " [--cache-entries N]\n"
         "             [--max-attempts N] [--admission-states N]"
         " [--admission-nnz N] [--queue-cap N]\n"
         "             (one JSONL solve request per line -> one JSONL"
         " result record per line;\n"
         "              supervised: deterministic retry/fallback ladder,"
         " admission shedding)\n"
         "  rascal_cli serve  [--out FILE] [--threads N]"
         " [--cache-entries N]\n"
         "             [--max-attempts N] [--admission-states N]"
         " [--admission-nnz N] [--queue-cap N]\n"
         "             (batch over stdin; schema in docs/serving.md)\n"
         "\n"
         "  global flags (any subcommand):\n"
         "    --trace FILE   write a Chrome trace-event JSON"
         " (chrome://tracing, Perfetto)\n"
         "    --stats        print the telemetry summary to stderr\n"
         "    --deadline SECS       cooperative wall-clock budget;"
         " drains and exits 4\n"
         "    --max-iter-budget N   cap Krylov-solver iterations"
         " per solve\n"
         "    --max-attempts N      attempts per solve in solve, states,"
         " sweep, batch, serve\n"
         "                          (default 3): retry, then the fallback"
         " ladder (warned)\n"
         "\n"
         "  resilience flags (uncertainty, campaign, batch, serve):\n"
         "    --checkpoint FILE  write periodic append-only checkpoints of"
         " completed indices\n"
         "    --resume           continue from FILE; resumed output is"
         " byte-identical\n"
         "\n"
         "  exit codes: 0 ok; 1 internal error; 2 usage; 3 model/"
         "validation error\n"
         "    (incl. failed/shed/lost batch records); 4 nonconvergence"
         " or deadline;\n"
         "    128+N interrupted by signal N\n";
  return kExitUsage;
}

struct Arguments {
  std::string command;
  std::string model_path;
  expr::ParameterSet overrides;
  // --method, --precond, --sparse-threshold, --max-iter-budget
  serve::SolveSpec spec;
  // --max-attempts and the batch/serve admission flags; the retry
  // bound governs the solves of solve, states and sweep too
  serve::SupervisionOptions supervision;
  std::string sweep_param;
  double from = 0.0;
  double to = 0.0;
  std::size_t points = 11;
  serve::OutputKind metric = serve::OutputKind::kAvailability;
  std::string start_state;  // mttf: defaults to the first state
  std::size_t threads = 0;  // 0 = auto (RASCAL_THREADS, else all cores)
  bool update_golden = false;
  bool json = false;    // lint: machine-readable output
  bool werror = false;  // lint: warnings fail the run

  // uncertainty
  std::vector<stats::ParameterRange> ranges;
  std::size_t samples = 1000;
  bool latin_hypercube = false;

  // campaign
  std::size_t trials = 3287;  // the paper's campaign size
  double true_fir = 0.0;

  std::uint64_t seed = 2004;
  bool seed_set = false;  // campaign defaults to 1973 unless --seed given

  // global observability flags
  std::string trace_path;  // empty = no trace file
  bool stats = false;      // print telemetry summary to stderr

  // resilience flags
  std::string checkpoint_path;     // empty = no checkpointing
  bool resume = false;             // continue from checkpoint_path
  double deadline_seconds = 0.0;   // 0 = no deadline

  // batch/serve
  std::string out_path;              // empty = results to stdout
  std::size_t cache_entries = 1024;  // shared solve-cache slots; 0 off
};

// Every numeric flag goes through io/number_parse: the whole token
// must be consumed (no "1.5junk") and the value must be finite (no
// "nan", "inf", "1e999").  A rejected value prints the reason here
// and the flag loop bails out to usage() with exit code 2.
bool parse_double(const char* text, double& out) {
  if (io::parse_finite_double(text, out)) return true;
  std::cerr << "invalid value '" << text << "': expected a finite number\n";
  return false;
}

bool parse_size(const char* text, std::size_t& out) {
  if (io::parse_size(text, out)) return true;
  std::cerr << "invalid value '" << text
            << "': expected a non-negative integer\n";
  return false;
}

bool parse_set(const std::string& text, expr::ParameterSet& out) {
  const auto eq = text.find('=');
  if (eq == std::string::npos || eq == 0) {
    std::cerr << "invalid --set '" << text << "': expected NAME=VALUE\n";
    return false;
  }
  double value = 0.0;
  if (!io::parse_finite_double(text.substr(eq + 1), value)) {
    std::cerr << "invalid --set '" << text
              << "': value must be a finite number\n";
    return false;
  }
  out.set(text.substr(0, eq), value);
  return true;
}

// NAME=LO:HI, e.g. FIR=0:0.001.
bool parse_range(const std::string& text, stats::ParameterRange& out) {
  const auto eq = text.find('=');
  const auto colon = text.find(':', eq == std::string::npos ? 0 : eq);
  if (eq == std::string::npos || eq == 0 || colon == std::string::npos ||
      colon < eq + 2 || colon + 1 >= text.size()) {
    std::cerr << "invalid --range '" << text << "': expected NAME=LO:HI\n";
    return false;
  }
  out.name = text.substr(0, eq);
  return parse_double(text.substr(eq + 1, colon - eq - 1).c_str(), out.lo) &&
         parse_double(text.substr(colon + 1).c_str(), out.hi);
}

bool parse_uint64(const char* text, std::uint64_t& out) {
  if (io::parse_uint64(text, out)) return true;
  std::cerr << "invalid value '" << text
            << "': expected a non-negative integer\n";
  return false;
}

// --method, --precond and --metric take a name from their enum's own
// table; a name that is not there is reported like a malformed number.
template <typename Enum>
bool parse_name(const char* text, const std::string& flag,
                bool (*parse)(const std::string&, Enum&), Enum& out) {
  if (parse(text, out)) return true;
  std::cerr << "invalid value '" << text << "' for " << flag << "\n";
  return false;
}

bool parse_arguments(int argc, char** argv, Arguments& args) {
  if (argc < 2) return false;
  args.command = argv[1];
  // `campaign` drives the built-in simulated testbed and `serve`
  // reads requests from stdin; every other subcommand requires a
  // positional argument (a model file, the golden directory, or the
  // batch request file).
  int first_flag = 2;
  if (args.command != "campaign" && args.command != "serve") {
    if (argc < 3) return false;
    args.model_path = argv[2];
    first_flag = 3;
  }
  for (int i = first_flag; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const auto next_size = [&](std::size_t& out) {
      const char* value = next();
      return value != nullptr && parse_size(value, out);
    };
    if (flag == "--set") {
      const char* value = next();
      if (!value || !parse_set(value, args.overrides)) return false;
    } else if (flag == "--method") {
      const char* value = next();
      if (!value ||
          !parse_name(value, flag, ctmc::parse_method, args.spec.method)) {
        return false;
      }
    } else if (flag == "--precond") {
      const char* value = next();
      if (!value ||
          !parse_name(value, flag, linalg::parse_precond, args.spec.precond)) {
        return false;
      }
    } else if (flag == "--sparse-threshold") {
      if (!next_size(args.spec.sparse_threshold)) return false;
    } else if (flag == "--param") {
      const char* value = next();
      if (!value) return false;
      args.sweep_param = value;
    } else if (flag == "--from" || flag == "--to") {
      const char* value = next();
      if (!value ||
          !parse_double(value, flag == "--from" ? args.from : args.to)) {
        return false;
      }
    } else if (flag == "--points") {
      if (!next_size(args.points)) return false;
    } else if (flag == "--threads") {
      if (!next_size(args.threads)) return false;
    } else if (flag == "--range") {
      const char* value = next();
      stats::ParameterRange range;
      if (!value || !parse_range(value, range)) return false;
      args.ranges.push_back(std::move(range));
    } else if (flag == "--samples") {
      if (!next_size(args.samples)) return false;
    } else if (flag == "--trials") {
      if (!next_size(args.trials)) return false;
    } else if (flag == "--seed") {
      const char* value = next();
      if (!value || !parse_uint64(value, args.seed)) return false;
      args.seed_set = true;
    } else if (flag == "--fir") {
      const char* value = next();
      if (!value || !parse_double(value, args.true_fir)) return false;
    } else if (flag == "--lhs") {
      args.latin_hypercube = true;
    } else if (flag == "--trace") {
      const char* value = next();
      if (!value) return false;
      args.trace_path = value;
    } else if (flag == "--stats") {
      args.stats = true;
    } else if (flag == "--checkpoint") {
      const char* value = next();
      if (!value) return false;
      args.checkpoint_path = value;
    } else if (flag == "--resume") {
      args.resume = true;
    } else if (flag == "--deadline") {
      const char* value = next();
      if (!value || !parse_double(value, args.deadline_seconds)) return false;
    } else if (flag == "--max-iter-budget") {
      if (!next_size(args.spec.max_iterations)) return false;
    } else if (flag == "--out") {
      const char* value = next();
      if (!value) return false;
      args.out_path = value;
    } else if (flag == "--cache-entries") {
      if (!next_size(args.cache_entries)) return false;
    } else if (flag == "--max-attempts") {
      std::size_t& attempts = args.supervision.retry.max_attempts;
      if (!next_size(attempts)) return false;
      if (attempts == 0) {
        std::cerr << "invalid value '0': --max-attempts counts the first "
                     "try, so it must be at least 1\n";
        return false;
      }
    } else if (flag == "--admission-states") {
      if (!next_size(args.supervision.admission_states)) return false;
    } else if (flag == "--admission-nnz") {
      if (!next_size(args.supervision.admission_nnz)) return false;
    } else if (flag == "--queue-cap") {
      if (!next_size(args.supervision.queue_cap)) return false;
    } else if (flag == "--update-golden") {
      args.update_golden = true;
    } else if (flag == "--json") {
      args.json = true;
    } else if (flag == "--werror") {
      args.werror = true;
    } else if (flag == "--metric") {
      const char* value = next();
      if (!value || !parse_name(value, flag, serve::parse_output, args.metric)) {
        return false;
      }
    } else if (flag == "--start") {
      const char* value = next();
      if (!value) return false;
      args.start_state = value;
    } else {
      std::cerr << "unknown flag: " << flag << "\n";
      return false;
    }
  }
  return true;
}

void print_metrics(const core::AvailabilityMetrics& m) {
  std::printf("availability        : %.9f (%s)\n", m.availability,
              report::format_percent(m.availability, 5).c_str());
  std::printf("yearly downtime     : %.4f minutes\n",
              m.downtime_minutes_per_year);
  std::printf("failure frequency   : %.6e per hour\n", m.failure_frequency);
  std::printf("MTBF                : %.2f hours\n", m.mtbf_hours);
  std::printf("MTTR                : %.4f hours\n", m.mttr_hours);
  std::printf("expected reward rate: %.9f\n", m.expected_reward_rate);
}

// Uncertainty samples: one attempt and no fallback — a sample whose
// solve fails is recorded with its parameter draw and dropped, which
// keeps the failure visible in the report instead of switching methods
// mid-analysis.
ctmc::SolveControl batch_solve_control(const Arguments& args) {
  ctmc::SolveControl control;
  control.max_iterations = args.spec.max_iterations;
  control.cancel = &g_cancel;
  control.precond = args.spec.precond;
  control.sparse_threshold = args.spec.sparse_threshold;
  return control;
}

// A degraded answer must reach the user, not just an obs counter: warn
// when a lower rung of the fallback ladder answered, and return
// kExitNonConvergence when the printed pi failed its residual check.
int report_solve_quality(const serve::Evaluation& evaluation,
                         const Arguments& args) {
  if (!evaluation.solved.fallback.empty()) {
    std::cerr << "warning: method '" << ctmc::to_string(args.spec.method)
              << "' failed; answered on fallback rung '"
              << evaluation.solved.fallback << "'\n";
  }
  const ctmc::SteadyState& steady = evaluation.solved.steady;
  if (steady.residual > kResidualWarnLimit) {
    std::cerr << "warning: steady-state residual " << steady.residual
              << " exceeds " << kResidualWarnLimit
              << "; the printed solution did not converge\n";
    return kExitNonConvergence;
  }
  return kExitOk;
}

int run_solve(const Arguments& args) {
  const io::ModelFile file = io::load_model(args.model_path);
  ctmc::SolveCache cache;
  const serve::Evaluation evaluation = serve::evaluate(
      file, args.overrides, args.spec, cache, args.supervision, &g_cancel);
  if (!file.name.empty()) std::printf("model: %s\n\n", file.name.c_str());
  print_metrics(evaluation.metrics);
  return report_solve_quality(evaluation, args);
}

int run_lint(const Arguments& args) {
  lint::LintReport report;
  try {
    const io::ModelFile file =
        io::load_model(args.model_path, io::LintOnLoad::kOff);
    report = io::lint_model_file(file, args.overrides);
  } catch (const io::ModelFileError& e) {
    // The file did not even parse; surface that as an R000 diagnostic
    // so text and JSON consumers see one uniform shape.
    lint::Diagnostic d;
    d.code = lint::codes::kParseError;
    d.severity = lint::Severity::kError;
    d.message = e.message();
    d.location.file = args.model_path;
    d.location.line = e.line();
    d.location.column = e.column();
    report.add(std::move(d));
  }
  std::cout << (args.json ? report::render_diagnostics_json(report)
                          : report::render_diagnostics_text(report));
  if (report.has_errors()) return kExitModelError;
  if (args.werror && report.count(lint::Severity::kWarning) > 0) {
    return kExitModelError;
  }
  return kExitOk;
}

int run_states(const Arguments& args) {
  const io::ModelFile file = io::load_model(args.model_path);
  ctmc::SolveCache cache;
  const serve::Evaluation evaluation = serve::evaluate(
      file, args.overrides, args.spec, cache, args.supervision, &g_cancel);
  const ctmc::Ctmc& chain = evaluation.chain;
  const ctmc::SteadyState& steady = evaluation.solved.steady;
  report::TextTable table({"State", "Reward", "Probability",
                           "Minutes/year"});
  for (ctmc::StateId s = 0; s < chain.num_states(); ++s) {
    table.add_row({chain.state_name(s),
                   report::format_general(chain.reward(s), 3),
                   report::format_general(steady.probability(s), 6),
                   report::format_fixed(
                       steady.probability(s) * 8760.0 * 60.0, 3)});
  }
  std::cout << table.to_string();
  return report_solve_quality(evaluation, args);
}

int run_sweep(const Arguments& args) {
  if (args.sweep_param.empty() || args.points < 2) {
    return usage();
  }
  const io::ModelFile file = io::load_model(args.model_path);
  // The swept name is an override like any --set: one the model does
  // not declare is refused before any point solves.
  expr::ParameterSet overrides = args.overrides;
  overrides.set(args.sweep_param, args.from);
  const expr::ParameterSet base = file.parameters_with(overrides);
  std::atomic<std::size_t> fallbacks{0};
  const analysis::ContextModelFunction metric_fn =
      [&](const expr::ParameterSet& params, ctmc::SolveCache& cache) {
        const serve::Evaluation evaluation = serve::evaluate(
            file, params, args.spec, cache, args.supervision, &g_cancel);
        if (!evaluation.solved.fallback.empty()) {
          fallbacks.fetch_add(1, std::memory_order_relaxed);
        }
        return serve::metric_value(args.metric, evaluation.metrics);
      };
  const auto values = analysis::linspace(args.from, args.to, args.points);
  const auto sweep = analysis::parametric_sweep(metric_fn, base,
                                                args.sweep_param, values,
                                                args.threads);
  if (fallbacks.load() > 0) {
    std::cerr << "warning: " << fallbacks.load() << " of " << args.points
              << " points answered on a fallback rung (method '"
              << ctmc::to_string(args.spec.method) << "' failed there)\n";
  }

  std::vector<double> ys;
  const std::string metric = serve::to_string(args.metric);
  report::TextTable table({args.sweep_param, metric});
  for (const auto& point : sweep) {
    ys.push_back(point.metric);
    table.add_row({report::format_general(point.parameter_value, 6),
                   report::format_general(point.metric, 9)});
  }
  std::cout << table.to_string() << "\n";
  report::PlotOptions plot;
  plot.title = metric + " vs " + args.sweep_param;
  plot.x_label = args.sweep_param;
  std::cout << report::line_plot(values, ys, plot);
  return 0;
}

int run_mttf(const Arguments& args) {
  const io::ModelFile file = io::load_model(args.model_path);
  const ctmc::Ctmc chain = file.bind(args.overrides);
  const auto down_states = chain.states_with_reward_below(0.5);
  if (down_states.empty()) {
    std::cerr << "error: the model has no down states\n";
    return kExitModelError;
  }
  const ctmc::StateId start =
      args.start_state.empty() ? 0 : chain.state(args.start_state);
  const auto times = ctmc::mean_time_to_absorption(chain, down_states);
  std::printf("MTTF from '%s' to the first down state: %.4f hours "
              "(%.2f days)\n",
              chain.state_name(start).c_str(), times[start],
              times[start] / 24.0);
  const auto hit = ctmc::absorption_probabilities(chain, down_states);
  for (std::size_t j = 0; j < down_states.size(); ++j) {
    std::printf("  P(first failure is '%s') = %.4f\n",
                chain.state_name(down_states[j]).c_str(), hit(start, j));
  }
  return 0;
}

int run_lump(const Arguments& args) {
  const io::ModelFile file = io::load_model(args.model_path);
  const ctmc::Ctmc chain = file.bind(args.overrides);
  const ctmc::Partition partition = ctmc::coarsest_ordinary_lumping(chain);
  std::printf("%zu states lump into %zu blocks:\n", chain.num_states(),
              partition.size());
  for (std::size_t b = 0; b < partition.size(); ++b) {
    std::printf("  block %zu:", b);
    for (ctmc::StateId s : partition[b]) {
      std::printf(" %s", chain.state_name(s).c_str());
    }
    std::printf("\n");
  }
  return 0;
}

int run_sens(const Arguments& args) {
  const io::ModelFile file = io::load_model(args.model_path);
  const expr::ParameterSet params = file.parameters_with(args.overrides);
  report::TextTable table({"Parameter", "Value", "dA/dtheta",
                           "dDowntime/dtheta (min/yr per unit)"});
  for (const std::string& name : file.model.parameters()) {
    analysis::ExactSensitivity s;
    try {
      s = analysis::steady_state_sensitivity(file.model, params, name);
    } catch (const std::domain_error&) {
      continue;  // non-differentiable use (abs/min/max); skip
    }
    table.add_row({name, report::format_general(params.get(name), 6),
                   report::format_general(s.d_availability, 4),
                   report::format_general(s.d_downtime_minutes, 4)});
  }
  std::cout << table.to_string();
  return 0;
}

int run_golden(const Arguments& args) {
  // args.model_path is the golden directory (e.g. tests/golden).
  bool all_ok = true;
  for (const std::string& group : check::paper_golden_groups()) {
    const std::string path = args.model_path + "/" + group + ".json";
    const check::GoldenRecord fresh = check::compute_paper_golden(group);
    if (args.update_golden) {
      check::write_golden(path, fresh);
      std::printf("wrote %s (%zu metrics)\n", path.c_str(), fresh.size());
      continue;
    }
    const check::GoldenRecord locked = check::load_golden(path);
    const auto problems = check::compare_golden(locked, fresh);
    if (problems.empty()) {
      std::printf("%-12s OK (%zu metrics)\n", group.c_str(), locked.size());
    } else {
      all_ok = false;
      std::printf("%-12s FAILED\n", group.c_str());
      for (const std::string& p : problems) {
        std::printf("  %s\n", p.c_str());
      }
    }
  }
  if (!all_ok) {
    std::cerr << "golden mismatch; if the drift is intentional, rerun with "
                 "--update-golden\n";
    return kExitModelError;
  }
  return kExitOk;
}

// Shared --checkpoint/--resume handling: builds the Checkpointer
// in place (it holds a mutex, so it cannot be moved or returned by
// value), verifying kind/digest/total, refusing to clobber an existing
// checkpoint without --resume, and reporting progress on stderr so
// stdout stays byte-comparable across interrupted/resumed runs.
// Returns the exit code to bail out with, or kExitOk to proceed.
int open_checkpoint(const Arguments& args, const char* kind,
                    std::uint64_t digest, std::uint64_t total,
                    std::optional<resil::Checkpointer>& checkpoint) {
  if (args.checkpoint_path.empty()) {
    if (args.resume) {
      std::cerr << "error: --resume requires --checkpoint FILE\n";
      return kExitUsage;
    }
    return kExitOk;
  }
  if (resil::checkpoint_file_exists(args.checkpoint_path) && !args.resume) {
    std::cerr << "error: checkpoint '" << args.checkpoint_path
              << "' already exists; pass --resume to continue it or "
                 "delete it to start over\n";
    return kExitModelError;
  }
  checkpoint.emplace(args.checkpoint_path, kind, digest, total);
  if (resil::checkpoint_file_exists(args.checkpoint_path)) {
    const std::size_t restored = checkpoint->resume_from_disk();
    std::cerr << "resuming from checkpoint '" << args.checkpoint_path
              << "': " << restored << "/" << total
              << " indices already done\n";
  } else if (args.resume) {
    std::cerr << "note: --resume given but checkpoint '"
              << args.checkpoint_path
              << "' does not exist; starting fresh\n";
  }
  return kExitOk;
}

// The library digest (seed, sample count, --lhs, ranges) plus every
// other input that changes a sample's value: the model file's bytes,
// the base parameters after --set, --metric and the solve flags.  The
// thread count and --deadline change no value and stay out.
std::uint64_t uncertainty_digest(const Arguments& args,
                                 const analysis::UncertaintyOptions& options,
                                 const expr::ParameterSet& base) {
  std::ifstream in(args.model_path, std::ios::binary);
  const std::string model_bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  resil::DigestBuilder digest;
  digest.add_u64(analysis::uncertainty_checkpoint_digest(options, args.ranges))
      .add_str(model_bytes)
      .add_u64(base.size());
  for (const auto& [name, value] : base) digest.add_str(name).add_f64(value);
  digest.add_str(serve::to_string(args.metric))
      .add_str(ctmc::to_string(args.spec.method))
      .add_str(linalg::precond_name(args.spec.precond))
      .add_u64(args.spec.sparse_threshold)
      .add_u64(args.spec.max_iterations);
  return digest.value();
}

void print_partial_marker(const char* what, const std::string& reason,
                          std::size_t done, std::size_t total) {
  std::printf("*** PARTIAL RESULTS: interrupted (%s) after %zu/%zu %s ***\n",
              reason.c_str(), done, total, what);
}

int run_uncertainty(const Arguments& args) {
  if (args.ranges.empty()) {
    std::cerr << "uncertainty: at least one --range NAME=LO:HI required\n";
    return usage();
  }
  const io::ModelFile file = io::load_model(args.model_path);
  const expr::ParameterSet base = file.parameters_with(args.overrides);
  // A range over a parameter the model does not declare draws values
  // nothing reads; refuse it (R020) instead of reporting the spread of
  // an unperturbed model.
  const lint::LintReport range_report = lint::lint_ranges(args.ranges, base);
  if (range_report.has_code(lint::codes::kUndefinedParameter)) {
    std::cerr << report::render_diagnostics_text(range_report);
    return kExitUsage;
  }
  const ctmc::SolveControl solve_control = batch_solve_control(args);
  const analysis::ContextModelFunction metric_fn =
      [&](const expr::ParameterSet& params, ctmc::SolveCache& cache) {
        const ctmc::Ctmc chain = file.model.bind(params);
        return serve::metric_value(
            args.metric,
            core::availability_metrics(
                chain, cache.steady_state(chain, args.spec.method,
                                          ctmc::Validation::kOn,
                                          solve_control)));
      };
  analysis::UncertaintyOptions options;
  options.samples = args.samples;
  options.seed = args.seed;
  options.latin_hypercube = args.latin_hypercube;
  options.threads = args.threads;
  options.control.cancel = &g_cancel;
  options.control.skip_failures = true;

  std::optional<resil::Checkpointer> checkpoint;
  const int checkpoint_error = open_checkpoint(
      args, "uncertainty", uncertainty_digest(args, options, base),
      options.samples, checkpoint);
  if (checkpoint_error != kExitOk) return checkpoint_error;
  if (checkpoint) options.control.checkpoint = &*checkpoint;

  const auto result = analysis::uncertainty_analysis(metric_fn, base,
                                                     args.ranges, options);

  if (result.interrupted) {
    print_partial_marker("samples", result.interrupt_reason,
                         result.completed + result.failures.size(),
                         result.requested);
  }
  if (!file.name.empty()) std::printf("model: %s\n", file.name.c_str());
  std::printf("metric: %s over %zu %s samples\n\n",
              serve::to_string(args.metric),
              args.samples, args.latin_hypercube ? "Latin-hypercube"
                                                 : "Monte Carlo");
  report::TextTable ranges_table({"Parameter", "Low", "High"});
  for (const stats::ParameterRange& range : args.ranges) {
    ranges_table.add_row({range.name, report::format_general(range.lo, 6),
                          report::format_general(range.hi, 6)});
  }
  std::cout << ranges_table.to_string() << "\n";
  std::printf("mean        : %.9g\n", result.mean);
  std::printf("stddev      : %.9g\n", result.summary.stddev());
  std::printf("min .. max  : %.9g .. %.9g\n", result.summary.min(),
              result.summary.max());
  std::printf("80%% interval: [%.9g, %.9g]\n", result.interval80.lower,
              result.interval80.upper);
  std::printf("90%% interval: [%.9g, %.9g]\n", result.interval90.lower,
              result.interval90.upper);
  if (args.metric == serve::OutputKind::kDowntime) {
    // Five-9s = 5.25 downtime minutes per year (paper Section 7).
    std::printf("P(five-9s)  : %.4f\n", result.fraction_below(5.26));
  }
  if (!result.failures.empty()) {
    std::printf("\ndropped samples (%zu of %zu; solves failed, parameter "
                "draws recorded):\n",
                result.failures.size(), result.requested);
    for (const analysis::SampleFailure& failure : result.failures) {
      std::printf("  sample %zu:", failure.index);
      for (std::size_t d = 0; d < args.ranges.size(); ++d) {
        std::printf(" %s=%.9g", args.ranges[d].name.c_str(),
                    failure.parameters[d]);
      }
      std::printf("\n    error: %s\n", failure.error.c_str());
    }
  }
  if (checkpoint) {
    std::cerr << "checkpoint written to '" << checkpoint->path() << "' ("
              << checkpoint->size() << "/" << checkpoint->total()
              << " indices)\n";
  }
  if (result.interrupted) return interrupted_exit_code();
  return kExitOk;
}

int run_campaign_cmd(const Arguments& args) {
  faultinj::CampaignOptions options;
  options.trials = args.trials;
  if (args.seed_set) options.seed = args.seed;
  options.threads = args.threads;
  options.recovery.true_imperfect_recovery = args.true_fir;
  options.control.cancel = &g_cancel;
  options.control.skip_failures = true;

  std::optional<resil::Checkpointer> checkpoint;
  const int checkpoint_error =
      open_checkpoint(args, "campaign",
                      faultinj::campaign_checkpoint_digest(options),
                      options.trials, checkpoint);
  if (checkpoint_error != kExitOk) return checkpoint_error;
  if (checkpoint) options.control.checkpoint = &*checkpoint;

  const faultinj::CampaignResult result = faultinj::run_campaign(options);

  if (result.interrupted) {
    print_partial_marker("trials", result.interrupt_reason,
                         result.trials + result.failures.size(),
                         result.requested);
  }
  std::printf("trials              : %llu\n",
              static_cast<unsigned long long>(result.trials));
  std::printf("successes           : %llu\n",
              static_cast<unsigned long long>(result.successes));
  std::printf("FIR upper bound 95%% : %.6g\n", result.fir_upper_bound(0.95));
  std::printf("FIR upper bound 99%% : %.6g\n", result.fir_upper_bound(0.99));
  report::TextTable table({"Recovery class", "Count", "Mean (s)", "Max (s)"});
  const auto add_summary = [&](const char* label,
                               const stats::Summary& summary) {
    if (summary.count() == 0) return;
    table.add_row({label, std::to_string(summary.count()),
                   report::format_fixed(summary.mean() * 3600.0, 1),
                   report::format_fixed(summary.max() * 3600.0, 1)});
  };
  add_summary("HADB restart", result.hadb_restart_times);
  add_summary("HADB rebuild", result.hadb_rebuild_times);
  add_summary("AS restart", result.as_restart_times);
  add_summary("idle workload", result.recovery_by_workload[0]);
  add_summary("moderate workload", result.recovery_by_workload[1]);
  add_summary("full workload", result.recovery_by_workload[2]);
  std::cout << table.to_string();
  if (!result.failures.empty()) {
    std::printf("\ndropped trials (%zu of %zu; recorded and skipped):\n",
                result.failures.size(), result.requested);
    for (const faultinj::TrialFailure& failure : result.failures) {
      std::printf("  trial %zu: %s\n", failure.trial, failure.error.c_str());
    }
  }
  if (checkpoint) {
    std::cerr << "checkpoint written to '" << checkpoint->path() << "' ("
              << checkpoint->size() << "/" << checkpoint->total()
              << " indices)\n";
  }
  if (result.interrupted) return interrupted_exit_code();
  return kExitOk;
}

// `batch FILE` and `serve` (stdin) share one runner.  The result
// stream (stdout or --out FILE) carries nothing but the JSONL
// records: the summary, cache statistics, and partial-result marker
// all go to stderr, so the sink is byte-comparable across thread
// counts, cache temperature, and kill/resume.
int run_serve_cmd(const Arguments& args) {
  std::vector<std::string> lines;
  if (args.command == "serve") {
    lines = serve::read_request_lines(std::cin);
  } else {
    std::ifstream in(args.model_path);
    if (!in) {
      std::cerr << "error: cannot open request file '" << args.model_path
                << "'\n";
      return kExitModelError;
    }
    lines = serve::read_request_lines(in);
  }

  serve::BatchOptions options;
  options.threads = args.threads;
  options.cache_capacity = args.cache_entries;
  options.control.cancel = &g_cancel;
  options.supervision = args.supervision;

  std::optional<resil::Checkpointer> checkpoint;
  const int checkpoint_error = open_checkpoint(
      args, "serve",
      serve::batch_checkpoint_digest(lines, options.supervision),
      lines.size(), checkpoint);
  if (checkpoint_error != kExitOk) return checkpoint_error;
  if (checkpoint) {
    // A full checkpoint volume must not kill a serving run: failures
    // are counted and warned about below, and the next flush retries.
    checkpoint->set_write_failure_policy(
        resil::Checkpointer::WriteFailurePolicy::kTolerate);
    options.control.checkpoint = &*checkpoint;
  }

  std::ofstream out_file;
  std::ostream* out = &std::cout;
  if (!args.out_path.empty()) {
    out_file.open(args.out_path, std::ios::trunc);
    if (!out_file) {
      std::cerr << "error: cannot write '" << args.out_path << "'\n";
      return kExitModelError;
    }
    out = &out_file;
  }

  const serve::BatchResult result = serve::run_batch(lines, *out, options);

  if (result.interrupted) {
    std::cerr << "*** PARTIAL RESULTS: interrupted ("
              << result.interrupt_reason << ") after "
              << result.succeeded + result.failed + result.shed << "/"
              << result.requests << " requests ***\n";
  }
  std::cerr << "serve: " << result.succeeded << " ok, " << result.failed
            << " failed, " << result.shed << " shed of " << result.requests
            << " requests";
  if (result.restored > 0) {
    std::cerr << " (" << result.restored << " restored from checkpoint)";
  }
  std::cerr << "\n";
  if (result.gaps > 0) {
    std::cerr << "error: " << result.gaps
              << " gap record(s) filled at sink close — worker(s) died "
                 "without reporting\n";
  }
  if (result.lost > 0) {
    std::cerr << "error: " << result.lost
              << " request(s) never completed (worker abandoned)\n";
  }
  if (result.sink_write_failures > 0) {
    std::cerr << "error: " << result.sink_write_failures
              << " record(s) could not be written to the output stream\n";
  }
  const ctmc::SharedSolveCache::Stats& cache = result.cache;
  std::cerr << "solve cache: " << cache.hits << " hits, " << cache.misses
            << " misses, " << cache.evictions << " evictions, "
            << cache.occupancy << "/" << cache.capacity << " slots, "
            << "hit rate " << static_cast<int>(result.hit_rate() * 100.0)
            << "%\n";
  if (checkpoint) {
    if (checkpoint->write_failures() > 0) {
      std::cerr << "warning: " << checkpoint->write_failures()
                << " checkpoint flush(es) failed (tolerated; entries are "
                   "retried on the next flush)\n";
    }
    std::cerr << "checkpoint written to '" << checkpoint->path() << "' ("
              << checkpoint->size() << "/" << checkpoint->total()
              << " indices)\n";
  }
  if (result.interrupted) return interrupted_exit_code();
  if (result.lossy()) return kExitModelError;
  if (result.failed > 0 || result.shed > 0) return kExitModelError;
  return kExitOk;
}

int run_dot(const Arguments& args) {
  const io::ModelFile file = io::load_model(args.model_path);
  io::DotOptions options;
  if (!file.name.empty()) options.graph_name = file.name;
  io::write_dot(std::cout, file.bind(args.overrides), options);
  return 0;
}

int dispatch(const Arguments& args) {
  if (args.command == "solve") return run_solve(args);
  if (args.command == "lint") return run_lint(args);
  if (args.command == "states") return run_states(args);
  if (args.command == "sweep") return run_sweep(args);
  if (args.command == "mttf") return run_mttf(args);
  if (args.command == "lump") return run_lump(args);
  if (args.command == "dot") return run_dot(args);
  if (args.command == "sens") return run_sens(args);
  if (args.command == "golden") return run_golden(args);
  if (args.command == "uncertainty") return run_uncertainty(args);
  if (args.command == "campaign") return run_campaign_cmd(args);
  if (args.command == "batch" || args.command == "serve") {
    return run_serve_cmd(args);
  }
  return usage();
}

// Writes the trace file and/or the stderr summary once the command is
// done.  Runs even when the command threw, so a failed solve still
// leaves its telemetry behind for diagnosis.
void finalize_telemetry(const Arguments& args, obs::TraceSession& session) {
  const obs::Snapshot snapshot = session.stop();
  if (!args.trace_path.empty()) {
    try {
      obs::write_chrome_trace(args.trace_path, snapshot);
      std::cerr << "trace written to " << args.trace_path << "\n";
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
    }
  }
  if (args.stats) std::cerr << obs::render_summary(snapshot);
}

}  // namespace

int main(int argc, char** argv) {
  Arguments args;
  if (!parse_arguments(argc, argv, args)) return usage();
  // Long-running commands drain cooperatively on SIGINT/SIGTERM: the
  // handler latches g_cancel, workers finish their current index, the
  // final checkpoint is flushed, and partial results are printed.  For
  // the quick interactive commands default signal disposition (kill) is
  // the right behaviour, so handlers are not installed there.
  if (args.command == "uncertainty" || args.command == "campaign" ||
      args.command == "batch" || args.command == "serve") {
    resil::install_signal_handlers(g_cancel);
  }
  if (args.deadline_seconds > 0.0) {
    g_cancel.set_deadline_after(args.deadline_seconds);
  }
  // Telemetry is opt-in: without these flags collection stays disabled
  // and the instrumentation in the libraries reduces to one relaxed
  // atomic load per site.  Event recording (per-span trace entries) is
  // only needed when a trace file was requested.
  std::optional<obs::TraceSession> session;
  if (!args.trace_path.empty() || args.stats) {
    obs::TraceSessionOptions options;
    options.collect_events = !args.trace_path.empty();
    session.emplace(options);
  }
  int code = kExitOk;
  try {
    code = dispatch(args);
  } catch (const resil::CancelledError& e) {
    // A solve or simulation aborted mid-flight (deadline or signal on a
    // command without index-granular draining).
    std::cerr << "cancelled: " << e.what() << "\n";
    code = interrupted_exit_code();
  } catch (const ctmc::NonConvergenceError& e) {
    std::cerr << "error: " << e.what() << "\n";
    code = kExitNonConvergence;
  } catch (const resil::CheckpointError& e) {
    std::cerr << "error: " << e.what() << "\n";
    code = kExitModelError;
  } catch (const io::ModelFileError& e) {
    std::cerr << "error: " << e.what() << "\n";
    code = kExitModelError;
  } catch (const io::UndeclaredParameterError& e) {
    std::cerr << "error: " << e.what() << "\n";
    code = kExitUsage;
  } catch (const lint::LintError& e) {  // derives from std::domain_error
    std::cerr << "error: " << e.what() << "\n";
    code = kExitModelError;
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    code = kExitModelError;
  } catch (const std::domain_error& e) {
    std::cerr << "error: " << e.what() << "\n";
    code = kExitModelError;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    code = kExitInternal;
  }
  if (session) finalize_telemetry(args, *session);
  return code;
}
