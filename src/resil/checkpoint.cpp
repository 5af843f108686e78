#include "resil/checkpoint.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <limits>
#include <sstream>
#include <sys/stat.h>
#include <unistd.h>
#include <utility>

#include "obs/obs.h"
#include "resil/chaos.h"

namespace rascal::resil {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
constexpr char kFormatTag[] = "rascal-checkpoint-v2";
constexpr std::string_view kV1Prefix = "{\"format\":\"rascal-checkpoint-v1\"";
constexpr std::string_view kSegmentOpen = "{\"entries\":[";
// Every line ends in `,"checksum":"<16 hex>"}`.
constexpr std::string_view kChecksumField = ",\"checksum\":\"";
constexpr std::size_t kChecksumSuffix = kChecksumField.size() + 16 + 2;

std::uint64_t fnv1a(std::string_view text, std::uint64_t hash = kFnvOffset) {
  for (const char c : text) {
    hash ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    hash *= kFnvPrime;
  }
  return hash;
}

std::string hex16(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

void append_u64(std::string& out, std::uint64_t value) {
  char buffer[20];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, result.ptr);
}

// JSON string escaping for failure notes: arbitrary what() text must
// round-trip so a resumed run reports byte-identical failure records.
void append_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
}

void append_entry(std::string& out, const CheckpointEntry& entry) {
  out += "{\"i\":";
  append_u64(out, entry.index);
  out += ",\"s\":";
  append_u64(out, static_cast<std::uint64_t>(entry.status));
  out += ",\"w\":[";
  for (std::size_t k = 0; k < entry.words.size(); ++k) {
    if (k > 0) out += ',';
    append_u64(out, entry.words[k]);
  }
  out += ']';
  if (!entry.note.empty()) {
    out += ",\"note\":\"";
    append_escaped(out, entry.note);
    out += '"';
  }
  out += '}';
}

// Ends a line whose fields are already in `out` with its checksum.
void close_line(std::string& out, std::uint64_t checksum) {
  out += kChecksumField;
  out += hex16(checksum);
  out += "\"}\n";
}

// Strict sequential scanner over the exact format the writer emits.
// Anything unexpected raises CheckpointError: a checkpoint is either
// bit-exactly loadable or rejected, never half-parsed.  `base` is the
// text's offset in the file, so messages give file byte offsets.
class Scanner {
 public:
  Scanner(std::string_view text, std::size_t base)
      : text_(text), base_(base) {}

  void expect(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      throw CheckpointError("is malformed (expected '" +
                            std::string(literal) + "' at byte " +
                            std::to_string(base_ + pos_) + ")");
    }
    pos_ += literal.size();
  }

  [[nodiscard]] bool consume(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  std::uint64_t parse_u64() {
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      throw CheckpointError("is malformed (expected a digit at byte " +
                            std::to_string(base_ + pos_) + ")");
    }
    const std::size_t start = pos_;
    std::uint64_t value = 0;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      const auto digit = static_cast<std::uint64_t>(text_[pos_] - '0');
      if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
        throw CheckpointError("is malformed (number at byte " +
                              std::to_string(base_ + start) +
                              " overflows 64 bits)");
      }
      value = value * 10 + digit;
      ++pos_;
    }
    return value;
  }

  std::string parse_string() {
    expect("\"");
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              throw CheckpointError("has a truncated \\u escape");
            }
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
              const char h = text_[pos_++];
              code <<= 4U;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else {
                throw CheckpointError("has a bad \\u escape");
              }
            }
            out += static_cast<char>(code);
            break;
          }
          default:
            throw CheckpointError("has an unknown escape in a string");
        }
      } else {
        out += c;
      }
    }
    expect("\"");
    return out;
  }

  [[nodiscard]] bool at_end() const noexcept { return pos_ >= text_.size(); }

 private:
  std::string_view text_;
  std::size_t base_ = 0;
  std::size_t pos_ = 0;
};

std::uint64_t parse_hex16(std::string_view text, const char* what) {
  if (text.size() != 16) {
    throw CheckpointError(std::string("has a bad ") + what);
  }
  std::uint64_t value = 0;
  for (const char h : text) {
    value <<= 4U;
    if (h >= '0' && h <= '9') value |= static_cast<std::uint64_t>(h - '0');
    else if (h >= 'a' && h <= 'f') {
      value |= static_cast<std::uint64_t>(h - 'a' + 10);
    } else {
      throw CheckpointError(std::string("has a bad ") + what);
    }
  }
  return value;
}

// Verifies one line's checksum against the chain and returns its
// fields (the line without its checksum field and closing brace).
std::string_view verified_fields(std::string_view line, std::uint64_t seed,
                                 std::uint64_t& checksum) {
  if (line.size() < kChecksumSuffix ||
      line.substr(line.size() - kChecksumSuffix, kChecksumField.size()) !=
          kChecksumField ||
      !line.ends_with("\"}")) {
    throw CheckpointError("is truncated or not a rascal checkpoint");
  }
  const std::string_view fields =
      line.substr(0, line.size() - kChecksumSuffix);
  checksum = parse_hex16(line.substr(line.size() - 18, 16), "checksum");
  if (fnv1a("}", fnv1a(fields, seed)) != checksum) {
    throw CheckpointError(
        "failed its checksum — the file is corrupt (truncated, modified, "
        "or a line is missing, repeated or out of order)");
  }
  return fields;
}

void parse_header(Scanner& scan, CheckpointFile& file) {
  scan.expect("{\"format\":\"");
  scan.expect(kFormatTag);
  scan.expect("\",\"kind\":");
  file.kind = scan.parse_string();
  scan.expect(",\"digest\":");
  file.digest = parse_hex16(scan.parse_string(), "digest");
  scan.expect(",\"total\":");
  file.total = scan.parse_u64();
}

void parse_segment(Scanner& scan, CheckpointFile& file) {
  scan.expect(kSegmentOpen);
  if (scan.consume("]")) return;
  for (;;) {
    CheckpointEntry entry;
    scan.expect("{\"i\":");
    entry.index = scan.parse_u64();
    if (entry.index >= file.total) {
      throw CheckpointError("has an entry index out of range (" +
                            std::to_string(entry.index) + " of " +
                            std::to_string(file.total) + ")");
    }
    scan.expect(",\"s\":");
    const std::uint64_t status = scan.parse_u64();
    if (status != static_cast<std::uint64_t>(EntryStatus::kOk) &&
        status != static_cast<std::uint64_t>(EntryStatus::kFailed)) {
      throw CheckpointError("has an unknown entry status");
    }
    entry.status = static_cast<EntryStatus>(status);
    scan.expect(",\"w\":[");
    if (!scan.consume("]")) {
      for (;;) {
        entry.words.push_back(scan.parse_u64());
        if (scan.consume("]")) break;
        scan.expect(",");
      }
    }
    if (scan.consume(",\"note\":")) entry.note = scan.parse_string();
    scan.expect("}");
    file.entries.push_back(std::move(entry));
    if (scan.consume("]")) return;
    scan.expect(",");
  }
}

std::size_t flush_cadence_from_env() {
  const char* text = std::getenv("RASCAL_CHECKPOINT_EVERY");
  if (text == nullptr || *text == '\0') return 32;
  char* end = nullptr;
  const unsigned long value = std::strtoul(text, &end, 10);
  if (end == text || *end != '\0' || value == 0) return 32;
  return static_cast<std::size_t>(value);
}

// Writes all of `text`; false (errno set) on an error or a short write
// that cannot continue.
bool write_all(int fd, std::string_view text) {
  while (!text.empty()) {
    const ssize_t written = ::write(fd, text.data(), text.size());
    if (written < 0 && errno == EINTR) continue;
    if (written <= 0) {
      if (written == 0) errno = EIO;
      return false;
    }
    text.remove_prefix(static_cast<std::size_t>(written));
  }
  return true;
}

}  // namespace

DigestBuilder& DigestBuilder::add_u64(std::uint64_t value) {
  for (int k = 0; k < 8; ++k) {
    hash_ ^= (value >> (8 * k)) & 0xffULL;
    hash_ *= kFnvPrime;
  }
  return *this;
}

DigestBuilder& DigestBuilder::add_f64(double value) {
  return add_u64(f64_bits(value));
}

DigestBuilder& DigestBuilder::add_str(std::string_view text) {
  add_u64(text.size());
  hash_ = fnv1a(text, hash_);
  return *this;
}

Checkpointer::Checkpointer(std::string path, std::string kind,
                           std::uint64_t digest, std::uint64_t total)
    : path_(std::move(path)),
      kind_(std::move(kind)),
      digest_(digest),
      total_(total),
      flush_every_(flush_cadence_from_env()) {}

Checkpointer::~Checkpointer() {
  if (fd_ >= 0) ::close(fd_);
}

void Checkpointer::set_write_failure_policy(
    WriteFailurePolicy policy) noexcept {
  write_failure_policy_ = policy;
}

std::uint64_t Checkpointer::write_failures() const {
  const std::lock_guard<std::mutex> lock(write_mutex_);
  return write_failures_;
}

std::size_t Checkpointer::resume_from_disk() {
  if (!checkpoint_file_exists(path_)) return 0;
  CheckpointFile file = load_checkpoint_file(path_);
  if (file.kind != kind_) {
    throw CheckpointError("checkpoint: kind mismatch (file is '" + file.kind +
                          "', this run is '" + kind_ + "')");
  }
  if (file.digest != digest_) {
    throw CheckpointError(
        "checkpoint: run-configuration digest mismatch — the checkpoint was "
        "written by a run with different settings (seed, count or ranges; "
        "model, parameter values, metric or solver options)");
  }
  if (file.total != total_) {
    throw CheckpointError("checkpoint: total mismatch (file has " +
                          std::to_string(file.total) + ", this run expects " +
                          std::to_string(total_) + ")");
  }
  // Index order, and the last record of an index wins.
  std::vector<CheckpointEntry> restored;
  restored.reserve(file.entries.size());
  std::stable_sort(file.entries.begin(), file.entries.end(),
                   [](const CheckpointEntry& a, const CheckpointEntry& b) {
                     return a.index < b.index;
                   });
  for (std::size_t k = 0; k < file.entries.size(); ++k) {
    if (k + 1 < file.entries.size() &&
        file.entries[k + 1].index == file.entries[k].index) {
      continue;
    }
    restored.push_back(std::move(file.entries[k]));
  }

  const std::scoped_lock lock(mutex_, write_mutex_);
  done_.assign(total_, false);
  for (const CheckpointEntry& entry : restored) done_[entry.index] = true;
  done_count_ = restored.size();
  restored_ = std::move(restored);
  created_ = true;
  chain_ = file.last_checksum;
  file_bytes_ = file.size_bytes;
  on_disk_ = file.entries.size();
  if (obs::enabled()) {
    obs::counter("resil.checkpoint.restored").add(restored_.size());
  }
  return restored_.size();
}

void Checkpointer::record(const CheckpointEntry& entry) {
  if (entry.index >= total_) {
    // The reader would reject the whole file for it.
    throw CheckpointError("checkpoint: index " + std::to_string(entry.index) +
                          " is out of range (total " +
                          std::to_string(total_) + ")");
  }
  std::string text;
  text.reserve(32 + 21 * entry.words.size() + entry.note.size());
  append_entry(text, entry);
  std::unique_lock<std::mutex> lock(mutex_);
  if (pending_count_ > 0) pending_ += ',';
  pending_ += text;
  ++pending_count_;
  if (done_.empty()) done_.resize(total_);
  if (!done_[entry.index]) {
    done_[entry.index] = true;
    ++done_count_;
  }
  if (pending_count_ >= flush_every_) flush_pending(lock);
}

void Checkpointer::flush() {
  std::unique_lock<std::mutex> lock(mutex_);
  flush_pending(lock);
}

void Checkpointer::flush_pending(std::unique_lock<std::mutex>& lock) {
  std::string batch;
  batch.swap(pending_);
  const std::size_t count = std::exchange(pending_count_, 0);
  // The write lock is taken before mutex_ is released: the next batch
  // cannot overtake this one, yet recording goes on during the write.
  const std::lock_guard<std::mutex> write_lock(write_mutex_);
  lock.unlock();
  append_locked(std::move(batch), count);
}

void Checkpointer::append_locked(std::string batch, std::size_t count) {
  if (count > 0) {
    if (unwritten_count_ == 0) {
      unwritten_ = std::move(batch);
    } else {
      unwritten_ += ',';
      unwritten_ += batch;
    }
    unwritten_count_ += count;
  }
  if (unwritten_count_ == 0 && created_) return;  // nothing to append

  // Any failure below leaves the file at its verified size and keeps
  // the entries in unwritten_, so a later append retries them; under
  // kTolerate the failure is counted instead of thrown.
  const auto fail = [this](const std::string& message) {
    if (write_failure_policy_ == WriteFailurePolicy::kAbort) {
      throw CheckpointError(message);
    }
    ++write_failures_;
    if (obs::enabled()) {
      obs::counter("resil.checkpoint.write_failures").add(1);
    }
  };
  if (chaos::enabled() && chaos::tick("checkpoint-write-fail")) {
    // Simulated ENOSPC before any byte reaches the file.
    fail("checkpoint: append to '" + path_ + "' failed (chaos)");
    return;
  }

  // Checksums cover each line with its checksum field removed.
  std::string text;
  std::uint64_t chain = chain_;
  if (!created_) {
    text = "{\"format\":\"";
    text += kFormatTag;
    text += "\",\"kind\":\"";
    append_escaped(text, kind_);
    text += "\",\"digest\":\"" + hex16(digest_) + "\",\"total\":";
    append_u64(text, total_);
    chain = fnv1a("}", fnv1a(text));
    close_line(text, chain);
  }
  if (unwritten_count_ > 0) {
    chain = fnv1a("]}", fnv1a(unwritten_, fnv1a(kSegmentOpen, chain)));
    text.reserve(text.size() + kSegmentOpen.size() + unwritten_.size() +
                 kChecksumSuffix + 2);
    text += kSegmentOpen;
    text += unwritten_;
    text += ']';
    close_line(text, chain);
  }

  if (fd_ < 0) {
    // The first append creates the file; after resume_from_disk() it
    // continues the verified file.
    const int flags = created_ ? O_WRONLY | O_APPEND | O_CLOEXEC
                               : O_WRONLY | O_APPEND | O_CREAT | O_TRUNC |
                                     O_CLOEXEC;
    fd_ = ::open(path_.c_str(), flags, 0666);
    if (fd_ < 0) {
      fail("checkpoint: cannot open '" + path_ +
           "' for writing: " + std::strerror(errno));
      return;
    }
  }
  if (!write_all(fd_, text)) {
    std::string message = "checkpoint: append to '" + path_ +
                          "' failed: " + std::strerror(errno);
    if (::ftruncate(fd_, static_cast<off_t>(file_bytes_)) != 0) {
      message += "; cutting it back to its verified " +
                 std::to_string(file_bytes_) + " bytes also failed: " +
                 std::strerror(errno);
    }
    if (!created_) {
      // Nothing verified yet: leave no file behind, as before the
      // first flush.
      ::close(fd_);
      fd_ = -1;
      ::unlink(path_.c_str());
    }
    fail(message);
    return;
  }
  created_ = true;
  chain_ = chain;
  file_bytes_ += text.size();
  on_disk_ += unwritten_count_;
  unwritten_.clear();
  unwritten_count_ = 0;
  if (obs::enabled()) {
    obs::counter("resil.checkpoint.flushes").add(1);
    obs::gauge("resil.checkpoint.entries").set(static_cast<double>(on_disk_));
  }
}

std::vector<CheckpointEntry> Checkpointer::entries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return restored_;
}

std::size_t Checkpointer::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return done_count_;
}

bool checkpoint_file_exists(const std::string& path) {
  struct stat info {};
  return ::stat(path.c_str(), &info) == 0 && S_ISREG(info.st_mode);
}

CheckpointFile load_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw CheckpointError("checkpoint: cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  if (text.starts_with(kV1Prefix)) {
    throw CheckpointError(
        "checkpoint: '" + path +
        "' is a rascal-checkpoint-v1 file; this version reads and writes "
        "only rascal-checkpoint-v2 — delete it to start over");
  }

  // Lines verify in order; `verified` is where the verified prefix
  // ends, so a damaged tail can be cut off and the rest kept.
  CheckpointFile file;
  std::size_t verified = 0;
  std::size_t lines = 0;
  try {
    if (text.empty()) throw CheckpointError("is empty");
    std::uint64_t chain = kFnvOffset;
    while (verified < text.size()) {
      const std::size_t end = text.find('\n', verified);
      if (end == std::string::npos) {
        throw CheckpointError("ends in a torn line (no final newline)");
      }
      const std::string_view line =
          std::string_view(text).substr(verified, end - verified);
      std::uint64_t checksum = 0;
      Scanner scan(verified_fields(line, chain, checksum), verified);
      if (lines == 0) {
        parse_header(scan, file);
      } else {
        parse_segment(scan, file);
      }
      if (!scan.at_end()) {
        throw CheckpointError("has trailing bytes in line " +
                              std::to_string(lines + 1));
      }
      chain = checksum;
      ++lines;
      verified = end + 1;
    }
    file.last_checksum = chain;
  } catch (const CheckpointError& error) {
    std::string message = "checkpoint: '" + path + "' " + error.what();
    if (lines > 0) {
      const std::string bytes = std::to_string(verified);
      message += "; its first " + bytes + " bytes (" + std::to_string(lines) +
                 (lines == 1 ? " line" : " lines") + ") verify, and `truncate -s " +
                 bytes + " '" + path + "'` keeps them — or delete it to start "
                 "over";
    } else {
      message += "; delete it to start over";
    }
    throw CheckpointError(message);
  }
  file.size_bytes = text.size();
  return file;
}

}  // namespace rascal::resil
