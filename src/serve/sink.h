// Structured results sink for batch/serve campaigns.
//
// Workers finish requests in whatever order the pool schedules them,
// but the sink must emit records in request order so the output file
// is byte-identical at any RASCAL_THREADS and diffable across runs.
// A dedicated writer thread (the gacspp COutput idiom: producers
// enqueue under a mutex, one consumer owns the stream) buffers
// out-of-order completions and appends each line the moment its index
// becomes the next contiguous one.
//
// The writer never reads clocks or randomness, so sink activity can
// never perturb solver determinism.
//
// Accounting contract: the sink never loses a record silently.  A
// record gapped at close (a dead worker never pushed the index that
// would unblock the prefix) is filled with a structured error record
// from the gap filler and counted in gaps(); a record the stream
// refused to take is counted in write_failures().  Callers surface
// both in the run summary and the exit code.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>

namespace rascal::serve {

class ResultsSink {
 public:
  /// The sink appends to `out` (not owned; must outlive the sink)
  /// from its writer thread until close() — no other writer may touch
  /// the stream in between.
  explicit ResultsSink(std::ostream& out);

  /// Joins the writer (close()) if the owner forgot to.
  ~ResultsSink();

  ResultsSink(const ResultsSink&) = delete;
  ResultsSink& operator=(const ResultsSink&) = delete;

  /// Renders the substitute record for an index whose real record
  /// never arrived.  Called from the writer thread at close, in index
  /// order, once per gap.
  using GapFiller = std::function<std::string(std::size_t index)>;

  /// Installs the gap filler.  Without one, gapped records are still
  /// counted in gaps() but nothing is emitted for them (the historic
  /// drop behaviour).  Call before any gap can occur — i.e. before
  /// close().
  void set_gap_filler(GapFiller filler);

  /// Hands record `index` to the writer.  Thread-safe; each index
  /// must be pushed at most once.  `line` must not contain newlines
  /// (one record per line is the JSONL contract).
  void push(std::size_t index, std::string line);

  /// Drains the contiguous prefix, fills any interior gaps via the
  /// gap filler (an index below a buffered record that no worker ever
  /// pushed — a dead or abandoned worker), flushes the stream, and
  /// stops the writer thread.  Trailing never-pushed indices are not
  /// gaps: an interrupted run legitimately stops early and the
  /// checkpoint covers the rest.  Returns the number of records
  /// written (gap records included).
  std::size_t close();

  /// Interior gaps discovered at close (0 before close()).
  [[nodiscard]] std::size_t gaps() const;

  /// Records the output stream refused (stream entered a failed state
  /// or a `sink-write-fail` chaos site fired).  The stream position
  /// still advances so later records keep their indices.
  [[nodiscard]] std::size_t write_failures() const;

 private:
  void writer_loop();
  // Writes one line, dropping the lock around the stream operation.
  // Returns with the lock re-held.
  void write_line(std::unique_lock<std::mutex>& lock,
                  const std::string& line);

  std::ostream& out_;
  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;
  std::map<std::size_t, std::string> pending_;  // index-ordered buffer
  std::size_t next_index_ = 0;  // the only index allowed to write next
  std::size_t written_ = 0;
  std::size_t gaps_ = 0;
  std::size_t write_failures_ = 0;
  GapFiller gap_filler_;
  bool closing_ = false;
  std::thread writer_;
};

}  // namespace rascal::serve
