#include "core/resumable.h"

#include <algorithm>
#include <exception>

#include "core/parallel.h"
#include "obs/obs.h"
#include "obs/progress.h"
#include "resil/chaos.h"

namespace rascal::core {

ResumableRun resumable_for(std::size_t count, std::size_t threads,
                           const resil::ExecutionControl& control,
                           const ResumableTask& task) {
  const resil::CancellationToken* cancel = control.cancel;
  resil::Checkpointer* checkpoint = control.checkpoint;

  ResumableRun run;
  run.status.assign(count, IndexStatus::kPending);
  run.errors.resize(count);
  // Replay the checkpoint into the slots up front.  Workers skip every
  // index that is not pending, so a resumed run computes exactly the
  // indices the interrupted one left, each from its own substream.
  if (checkpoint != nullptr) {
    if (checkpoint->total() != count) {
      throw resil::CheckpointError(
          std::string(task.engine) + ": checkpoint total " +
          std::to_string(checkpoint->total()) + " does not match the " +
          std::to_string(count) + " indices of this run");
    }
    for (const resil::CheckpointEntry& entry : checkpoint->entries()) {
      const std::size_t i = static_cast<std::size_t>(entry.index);
      if (entry.status == resil::EntryStatus::kOk) {
        task.restore(i, entry.words);
        run.status[i] = IndexStatus::kOk;
      } else {
        run.status[i] = IndexStatus::kFailed;
        run.errors[i] = entry.note;
      }
    }
  }

  // Spans, progress ticks and counters read clocks and atomics only,
  // never an engine's RNG, so instrumented runs compute the same bits.
  obs::Progress progress(task.progress, count);
  parallel_for(
      count, resolve_threads(threads),
      [&](std::size_t begin, std::size_t end) {
        IndexBody body = task.make_worker();
        for (std::size_t i = begin; i < end; ++i) {
          if (run.status[i] != IndexStatus::kPending) continue;  // replayed
          if (cancel != nullptr && cancel->cancelled()) return;  // drain
          try {
            resil::chaos::worker_hook(i);
            const obs::Span span(task.index_span);
            body(i);
            run.status[i] = IndexStatus::kOk;
            if (checkpoint != nullptr) {
              checkpoint->record(
                  {i, resil::EntryStatus::kOk, task.encode(i), {}});
            }
          } catch (const resil::CancelledError&) {
            return;  // interrupted mid-index: leave it pending
          } catch (const std::exception& failure) {
            if (!control.skip_failures) throw;
            run.status[i] = IndexStatus::kFailed;
            run.errors[i] = failure.what();
            if (checkpoint != nullptr) {
              checkpoint->record(
                  {i, resil::EntryStatus::kFailed, {}, failure.what()});
            }
            if (obs::enabled()) obs::counter(task.failed_counter).add(1);
            // The failed index may have left the worker's state dirty.
            body = task.make_worker();
          }
          progress.tick();
        }
      });
  progress.finish();
  if (checkpoint != nullptr) checkpoint->flush();

  run.interrupted = cancel != nullptr && cancel->cancelled() &&
                    std::ranges::find(run.status, IndexStatus::kPending) !=
                        run.status.end();
  if (run.interrupted) run.interrupt_reason = cancel->describe();
  return run;
}

}  // namespace rascal::core
