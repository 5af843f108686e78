// Append-only, checksummed JSON Lines checkpoints for long sampling
// campaigns.
//
// A checkpoint records which sample/trial/replication indices have
// finished and the exact bits they produced, so a run that is killed
// (SIGINT/SIGTERM, OOM, deadline) can resume and still emit output
// byte-identical to an uninterrupted run at any RASCAL_THREADS: the
// deterministic engine re-derives every pending index's substream
// from the root seed, and completed indices are replayed from disk.
//
// File format `rascal-checkpoint-v2`: one JSON object per line;
// doubles are stored as IEEE-754 bit patterns so replay is exact.
// Line 1 is the header, and every flush appends one segment line that
// holds only the entries recorded since the previous flush:
//
//   {"format":"rascal-checkpoint-v2","kind":"campaign",
//    "digest":"<16 hex>","total":64,"checksum":"<16 hex>"}
//   {"entries":[{"i":0,"s":1,"w":[123,...]},
//               {"i":3,"s":2,"w":[],"note":"solver diverged"}],
//    "checksum":"<16 hex>"}
//   {"entries":[{"i":1,"s":1,"w":[456,...]}],"checksum":"<16 hex>"}
//
// (each record is one physical line; they are wrapped here).
// `digest` fingerprints the run configuration (seed, counts, ranges,
// substream derivation) — resuming under a different configuration is
// rejected.  The header's `checksum` is FNV-1a over the header with
// the checksum field removed; a segment's is FNV-1a over the segment
// the same way, seeded with the previous line's checksum, so the lines
// form a chain and a dropped, reordered or repeated segment fails
// verification.  The reader is strict: every line must verify in
// order and the file must end in '\n', or nothing is loaded and the
// error names the byte offset where the verified prefix ends.  A
// failed or short append is truncated away before the flush returns,
// so no torn record stays on disk; only a kill or power loss in the
// middle of an append can leave one.  Appends are not fsync'd: a
// checkpoint outlives its process, and surviving a power loss is left
// to the file system.
#pragma once

#include <bit>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace rascal::resil {

class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Completion status of one checkpointed index.
enum class EntryStatus : std::uint32_t {
  kOk = 1,      // words hold the result bits
  kFailed = 2,  // structurally recorded failure; note holds the error
};

struct CheckpointEntry {
  std::uint64_t index = 0;
  EntryStatus status = EntryStatus::kOk;
  std::vector<std::uint64_t> words;  // domain-encoded result payload
  std::string note;                  // failure message (kFailed only)
};

/// Exact double <-> u64 round-tripping for checkpoint words.
[[nodiscard]] inline std::uint64_t f64_bits(double value) noexcept {
  return std::bit_cast<std::uint64_t>(value);
}
[[nodiscard]] inline double bits_f64(std::uint64_t word) noexcept {
  return std::bit_cast<double>(word);
}

/// Incremental FNV-1a fingerprint used for run-configuration digests
/// (and for solve-cache keys, so its bits must never change).
class DigestBuilder {
 public:
  DigestBuilder& add_u64(std::uint64_t value);
  DigestBuilder& add_f64(double value);  // exact bit pattern
  DigestBuilder& add_str(std::string_view text);
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

/// Thread-safe checkpoint sink.  Workers `record()` each finished
/// index; every RASCAL_CHECKPOINT_EVERY new entries (read when the
/// Checkpointer is constructed; default 32) — and on the final
/// explicit `flush()` — the
/// entries recorded since the previous flush are appended to `path`
/// as one segment.  Total work and bytes written are linear in the
/// number of entries.
class Checkpointer {
 public:
  /// What a failed append (ENOSPC, EFBIG, unwritable file) does to the
  /// run.  kAbort preserves the historic contract: the flush throws
  /// CheckpointError and the run dies.  kTolerate makes the checkpoint
  /// best-effort: the failure is counted (write_failures(),
  /// `resil.checkpoint.write_failures`), and the failed entries are
  /// written first in the next append — batch/serve runs keep
  /// streaming results even when the checkpoint volume is full.
  /// Either way a failed append is truncated away, so the file keeps
  /// its verified prefix and no torn record.
  enum class WriteFailurePolicy { kAbort, kTolerate };

  /// Does not touch the filesystem; call resume_from_disk() to load.
  /// The first flush creates `path`, replacing any file that was not
  /// resumed from.
  Checkpointer(std::string path, std::string kind, std::uint64_t digest,
               std::uint64_t total);
  ~Checkpointer();
  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  /// Loads `path` if it exists; later flushes append after it.  Call
  /// before the first record().  Returns the number of entries
  /// restored (0 when the file does not exist).  Throws
  /// CheckpointError when the file is corrupt (bad checksum, torn or
  /// reordered line, malformed JSON, a v1 file) or belongs to a
  /// different run (kind/digest/total mismatch).
  std::size_t resume_from_disk();

  /// Records a finished index and appends when the cadence is due.
  /// The entry is serialized on the calling thread; no copy is kept.
  void record(const CheckpointEntry& entry);

  /// Appends every entry not yet on disk.  Writes nothing when there
  /// is nothing pending and the file already exists.
  void flush();

  /// The entries resume_from_disk() restored, in index order (the last
  /// record of an index wins).
  [[nodiscard]] std::vector<CheckpointEntry> entries() const;
  /// Distinct indices restored or recorded.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  void set_write_failure_policy(WriteFailurePolicy policy) noexcept;

  /// Appends that failed and were tolerated (kTolerate only; under
  /// kAbort the first failure throws instead).
  [[nodiscard]] std::uint64_t write_failures() const;

 private:
  void flush_pending(std::unique_lock<std::mutex>& lock);
  void append_locked(std::string batch, std::size_t count);

  std::string path_;
  std::string kind_;
  std::uint64_t digest_ = 0;
  std::uint64_t total_ = 0;
  std::size_t flush_every_ = 32;
  WriteFailurePolicy write_failure_policy_ = WriteFailurePolicy::kAbort;

  // Recording side.  pending_ holds the comma-separated serialized
  // entries since the last flush; done_ marks the indices restored or
  // recorded (one bit each, allocated on first use).
  mutable std::mutex mutex_;
  std::vector<CheckpointEntry> restored_;
  std::string pending_;
  std::size_t pending_count_ = 0;
  std::vector<bool> done_;
  std::size_t done_count_ = 0;

  // Writing side.  Taken while mutex_ is still held, so batches reach
  // the file in the order they left pending_; never held while taking
  // mutex_.
  mutable std::mutex write_mutex_;
  int fd_ = -1;
  bool created_ = false;         // the file holds a verified header
  std::uint64_t chain_ = 0;      // checksum of the last line on disk
  std::uint64_t file_bytes_ = 0; // size of the verified file
  std::uint64_t on_disk_ = 0;    // entries in the verified file
  std::string unwritten_;        // entries of failed appends
  std::size_t unwritten_count_ = 0;
  std::uint64_t write_failures_ = 0;
};

/// Parses and verifies a checkpoint file into its raw parts, entries
/// in file order.  Used by Checkpointer::resume_from_disk and
/// directly by tests.
struct CheckpointFile {
  std::string kind;
  std::uint64_t digest = 0;
  std::uint64_t total = 0;
  std::vector<CheckpointEntry> entries;
  std::uint64_t last_checksum = 0;  // continues the chain on append
  std::uint64_t size_bytes = 0;
};

[[nodiscard]] CheckpointFile load_checkpoint_file(const std::string& path);

/// True when a regular file exists at `path`.
[[nodiscard]] bool checkpoint_file_exists(const std::string& path);

}  // namespace rascal::resil
