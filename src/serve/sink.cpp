#include "serve/sink.h"

#include <utility>

#include "obs/obs.h"
#include "resil/chaos.h"

namespace rascal::serve {

ResultsSink::ResultsSink(std::ostream& out) : out_(out) {
  writer_ = std::thread([this] { writer_loop(); });
}

ResultsSink::~ResultsSink() { close(); }

void ResultsSink::set_gap_filler(GapFiller filler) {
  std::lock_guard<std::mutex> lock(mutex_);
  gap_filler_ = std::move(filler);
}

void ResultsSink::push(std::size_t index, std::string line) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closing_) return;  // late completion after close(): checkpoint has it
    pending_.emplace(index, std::move(line));
    if (obs::enabled()) {
      obs::gauge("serve.sink.buffered")
          .set(static_cast<double>(pending_.size()));
    }
  }
  ready_cv_.notify_one();
}

std::size_t ResultsSink::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closing_ && !writer_.joinable()) return written_;
    closing_ = true;
  }
  ready_cv_.notify_one();
  if (writer_.joinable()) writer_.join();
  return written_;
}

std::size_t ResultsSink::gaps() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return gaps_;
}

std::size_t ResultsSink::write_failures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return write_failures_;
}

void ResultsSink::write_line(std::unique_lock<std::mutex>& lock,
                             const std::string& line) {
  // The writer visits records in index order, so chaos occurrences
  // map to the same record at any RASCAL_THREADS.
  const bool chaos_drop =
      resil::chaos::enabled() && resil::chaos::tick("sink-write-fail");
  bool failed = chaos_drop;
  if (!chaos_drop) {
    lock.unlock();
    out_ << line << '\n';
    const bool ok = static_cast<bool>(out_);
    lock.lock();
    failed = !ok;
  }
  ++next_index_;
  ++written_;
  if (failed) {
    ++write_failures_;
    if (obs::enabled()) obs::counter("serve.sink.write_failures").add(1);
  }
  if (obs::enabled()) {
    obs::counter("serve.sink.records").add(1);
    obs::gauge("serve.sink.buffered")
        .set(static_cast<double>(pending_.size()));
  }
}

void ResultsSink::writer_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    ready_cv_.wait(lock, [this] {
      return closing_ ||
             (!pending_.empty() && pending_.begin()->first == next_index_);
    });
    // Drain the contiguous prefix; drop the stream lock per record so
    // workers are never blocked on disk.
    while (!pending_.empty() && pending_.begin()->first == next_index_) {
      const std::string line = std::move(pending_.begin()->second);
      pending_.erase(pending_.begin());
      write_line(lock, line);
    }
    if (closing_) {
      if (!pending_.empty()) {
        // Interior gap: a buffered record sits above indices nobody
        // ever pushed.  Fill the hole so every request up to the
        // highest completed one is accounted for, then loop to drain
        // the now-contiguous prefix.
        while (next_index_ < pending_.begin()->first) {
          ++gaps_;
          if (obs::enabled()) obs::counter("serve.sink.gap_records").add(1);
          if (gap_filler_) {
            write_line(lock, gap_filler_(next_index_));
          } else {
            ++next_index_;  // historic behaviour: count, emit nothing
          }
        }
        continue;
      }
      break;
    }
  }
  lock.unlock();
  out_.flush();
  lock.lock();
}

}  // namespace rascal::serve
