#include "serve/batch.h"

#include <istream>
#include <map>
#include <optional>
#include <utility>

#include "core/parallel.h"
#include "io/model_file.h"
#include "obs/obs.h"
#include "obs/progress.h"
#include "resil/chaos.h"
#include "serve/request.h"
#include "serve/sink.h"

namespace rascal::serve {

namespace {

// Request completion states tracked by the runner.  Every request
// must leave kPending exactly once (or stay pending only when the run
// was interrupted / a worker died — both surfaced, never silent).
enum : unsigned char {
  kPending = 0,
  kOk = 1,
  kFailed = 2,
  kShed = 3,
};

}  // namespace

double BatchResult::hit_rate() const noexcept {
  const double hits = static_cast<double>(cache.hits);
  const double total = hits + static_cast<double>(cache.misses);
  return total > 0.0 ? hits / total : 0.0;
}

std::vector<std::string> read_request_lines(std::istream& in) {
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    lines.push_back(line);
  }
  return lines;
}

std::uint64_t batch_checkpoint_digest(const std::vector<std::string>& lines,
                                      const SupervisionOptions& supervision) {
  resil::DigestBuilder digest;
  digest.add_str("serve").add_u64(lines.size());
  for (const std::string& line : lines) digest.add_str(line);
  // Supervision knobs that change which records a run emits: a resume
  // under different retry/shedding rules would splice incompatible
  // streams together.  The constant 1 stands where a fallback-ladder
  // switch used to be, so checkpoints written before it was removed
  // still resume.
  digest.add_str("supervision")
      .add_u64(supervision.retry.max_attempts)
      .add_u64(1)
      .add_u64(supervision.admission_states)
      .add_u64(supervision.admission_nnz)
      .add_u64(supervision.queue_cap);
  return digest.value();
}

BatchResult run_batch(const std::vector<std::string>& lines,
                      std::ostream& out, const BatchOptions& options) {
  const obs::Span span("serve.batch");
  const std::size_t n = lines.size();
  const resil::CancellationToken* cancel = options.control.cancel;
  resil::Checkpointer* checkpoint = options.control.checkpoint;
  const SupervisionOptions& supervision = options.supervision;

  BatchResult result;
  result.requests = n;

  // Everything that can fail without touching a solver is resolved
  // serially up front: parse every line, load every distinct model
  // once, then run admission in request-index order.  The parallel
  // region below only ever sees requests that are structurally able
  // and admitted to run, so its behaviour (and the output bytes) are
  // independent of RASCAL_THREADS.
  std::vector<std::optional<Request>> requests(n);
  std::vector<unsigned char> status(n, kPending);
  std::vector<std::string> errors(n);
  std::vector<std::string> classes(n);  // taxonomy slug per error
  for (std::size_t i = 0; i < n; ++i) {
    try {
      requests[i] = parse_request(lines[i]);
    } catch (const RequestError& failure) {
      status[i] = kFailed;
      errors[i] = failure.what();
      classes[i] = resil::to_string(failure.error_class());
    }
  }

  std::map<std::string, io::ModelFile> models;
  std::map<std::string, std::string> model_errors;
  for (std::size_t i = 0; i < n; ++i) {
    if (!requests[i]) continue;
    const std::string& path = requests[i]->model_path;
    if (models.count(path) != 0 || model_errors.count(path) != 0) continue;
    try {
      models.emplace(path, io::load_model(path));
    } catch (const std::exception& failure) {
      model_errors.emplace(path, failure.what());
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!requests[i] || status[i] != kPending) continue;
    const auto bad = model_errors.find(requests[i]->model_path);
    if (bad != model_errors.end()) {
      status[i] = kFailed;
      errors[i] = "model '" + requests[i]->model_path + "': " + bad->second;
      classes[i] = resil::to_string(resil::ErrorClass::kModel);
    }
  }

  // Admission control, decided before checkpoint replay so a resumed
  // run sheds exactly the requests the first run shed: the verdict is
  // a pure function of the stream and the supervision options, both
  // covered by the checkpoint digest.
  std::size_t admitted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (status[i] != kPending || !requests[i]) continue;
    std::string reason =
        admission_verdict(models.at(requests[i]->model_path), supervision);
    const bool by_size = !reason.empty();
    if (reason.empty() && supervision.queue_cap != 0 &&
        admitted >= supervision.queue_cap) {
      reason = "queue full: " + std::to_string(supervision.queue_cap) +
               " requests already admitted";
    }
    if (reason.empty()) {
      ++admitted;
      continue;
    }
    status[i] = kShed;
    errors[i] = reason;
    if (obs::enabled()) {
      obs::counter(by_size ? "serve.shed.admission" : "serve.shed.queue")
          .add(1);
    }
  }
  if (obs::enabled()) {
    obs::gauge("serve.admission.admitted").set(static_cast<double>(admitted));
  }

  // Checkpoint replay: completed indices come back as their exact
  // result bits (kOk; the note carries the fallback annotation) or
  // their recorded failure (kFailed; words[0] carries the error
  // class), so the re-rendered records are byte-identical to the
  // first run's.
  std::vector<std::vector<double>> values(n);
  std::vector<std::string> fallbacks(n);
  if (checkpoint != nullptr) {
    if (checkpoint->total() != n) {
      throw resil::CheckpointError(
          "run_batch: checkpoint total does not match the request count");
    }
    for (const resil::CheckpointEntry& entry : checkpoint->entries()) {
      const std::size_t i = static_cast<std::size_t>(entry.index);
      if (i >= n || status[i] != kPending || !requests[i]) continue;
      if (entry.status == resil::EntryStatus::kOk) {
        if (entry.words.size() != requests[i]->outputs.size()) {
          throw resil::CheckpointError(
              "run_batch: checkpoint entry has wrong payload size");
        }
        values[i].reserve(entry.words.size());
        for (const std::uint64_t word : entry.words) {
          values[i].push_back(resil::bits_f64(word));
        }
        fallbacks[i] = entry.note;
        status[i] = kOk;
      } else {
        status[i] = kFailed;
        errors[i] = entry.note;
        if (!entry.words.empty()) {
          classes[i] = resil::to_string(
              static_cast<resil::ErrorClass>(entry.words.front()));
        }
      }
      ++result.restored;
    }
  }

  ctmc::SharedSolveCache::Config cache_config;
  cache_config.capacity = options.cache_capacity;
  ctmc::SharedSolveCache shared(cache_config);

  ResultsSink sink(out);
  // A gap at close means a worker died between claiming an index and
  // pushing its record; the filler keeps the stream complete and the
  // loss loud (counted, classed, exit 3).
  sink.set_gap_filler([](std::size_t index) {
    return render_error_line(index, "",
                             "request record lost: worker abandoned or run "
                             "interrupted before completion",
                             "lost");
  });
  // Pre-resolved records (parse/model errors, shed requests,
  // checkpoint replays) go to the sink before the workers start:
  // their indices would otherwise gap the contiguous prefix forever.
  for (std::size_t i = 0; i < n; ++i) {
    if (status[i] == kOk) {
      sink.push(i, render_result_line(i, *requests[i], values[i],
                                      fallbacks[i]));
    } else if (status[i] == kFailed) {
      sink.push(i, render_error_line(i, requests[i] ? requests[i]->id : "",
                                     errors[i], classes[i]));
    } else if (status[i] == kShed) {
      sink.push(i, render_shed_line(i, requests[i]->id, errors[i]));
    }
  }

  obs::Progress progress("serve.batch", n);
  core::parallel_for(
      n, core::resolve_threads(options.threads),
      [&](std::size_t begin, std::size_t end) {
        ctmc::SolveCache local;
        local.set_shared(shared.enabled() ? &shared : nullptr);
        for (std::size_t i = begin; i < end; ++i) {
          if (status[i] != kPending) continue;  // pre-resolved or restored
          if (cancel != nullptr && cancel->cancelled()) break;  // drain
          if (resil::chaos::enabled() &&
              resil::chaos::fires_at("worker-abandon", i)) {
            // Simulated worker death: the chunk vanishes without
            // recording anything.  The sink's gap accounting is what
            // turns this into a loud failure instead of a short file.
            return;
          }
          const Request& request = *requests[i];
          try {
            resil::chaos::worker_hook(i);
            const obs::Span request_span("serve.batch.request");
            const Evaluation evaluation = evaluate(
                models.at(request.model_path), request.overrides,
                {.method = request.method,
                 .precond = request.precond,
                 .sparse_threshold = request.sparse_threshold,
                 .max_iterations = request.max_iterations,
                 .gmres_restart = request.gmres_restart},
                local, supervision, cancel);
            values[i].reserve(request.outputs.size());
            for (const OutputKind kind : request.outputs) {
              values[i].push_back(metric_value(kind, evaluation.metrics));
            }
            const std::string& fallback = evaluation.solved.fallback;
            status[i] = kOk;
            if (checkpoint != nullptr) {
              resil::CheckpointEntry entry{i, resil::EntryStatus::kOk, {},
                                           fallback};
              entry.words.reserve(values[i].size());
              for (const double v : values[i]) {
                entry.words.push_back(resil::f64_bits(v));
              }
              checkpoint->record(std::move(entry));
            }
            sink.push(i, render_result_line(i, request, values[i],
                                            fallback));
          } catch (const resil::CancelledError&) {
            break;  // interrupted mid-solve: leave the index pending
          } catch (const std::exception& failure) {
            const resil::ErrorClass cls = resil::classify(failure);
            status[i] = kFailed;
            errors[i] = failure.what();
            classes[i] = resil::to_string(cls);
            if (checkpoint != nullptr) {
              checkpoint->record({i,
                                  resil::EntryStatus::kFailed,
                                  {static_cast<std::uint64_t>(cls)},
                                  failure.what()});
            }
            sink.push(i, render_error_line(i, request.id, errors[i],
                                           classes[i]));
            if (obs::enabled()) {
              obs::counter("serve.batch.requests_failed").add(1);
            }
          }
          progress.tick();
        }
      });
  progress.finish();
  if (checkpoint != nullptr) checkpoint->flush();
  result.written = sink.close();
  result.gaps = sink.gaps();
  result.sink_write_failures = sink.write_failures();

  std::size_t pending = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (status[i] == kOk) ++result.succeeded;
    else if (status[i] == kFailed) ++result.failed;
    else if (status[i] == kShed) ++result.shed;
    else ++pending;
  }
  result.interrupted = cancel != nullptr && cancel->cancelled() && pending > 0;
  if (result.interrupted) {
    result.interrupt_reason = cancel->describe();
  } else {
    // Not interrupted, yet some requests never completed: a worker
    // abandoned its chunk.  The sink already emitted gap records for
    // the interior ones; `lost` makes the trailing ones loud too.
    result.lost = pending;
  }
  result.cache = shared.stats();
  if (obs::enabled()) {
    obs::counter("serve.batch.requests").add(n);
    if (result.lost > 0) obs::counter("serve.batch.requests_lost").add(result.lost);
  }
  return result;
}

}  // namespace rascal::serve
