// Clocks, order statistics and measuring streams for the harness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

namespace e2ebench {

/// steady_clock in nanoseconds.
[[nodiscard]] std::int64_t now_ns() noexcept;

/// Process user+sys CPU seconds (every thread).
[[nodiscard]] double process_cpu_s() noexcept;

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb() noexcept;

/// Host-speed reference: wall milliseconds of a fixed single-threaded
/// job of the kind the engines do (ordered-map inserts, integer
/// formatting, string building, hashing), run on the calling thread.
/// On a shared host the speed of one core drifts by 10-40% within
/// minutes with other tenants' load; this job drifts with it.
[[nodiscard]] double reference_ms();

/// reference_ms() on a 4-vCPU Xeon (Emerald Rapids) VM: the nominal
/// host speed.
inline constexpr double kReferenceNominalMs = 5.0;

/// The host's speed now relative to nominal: kReferenceNominalMs /
/// reference_ms().  A step with speed s measured just before and after
/// it took wall seconds x s in reference seconds: the time it would
/// have taken at nominal speed.
[[nodiscard]] double host_speed();

/// q-quantile (0..1) by nearest rank; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// FNV-1a over bytes and 64-bit words: fingerprints engine outputs so
/// two runs can be compared bit for bit.
class Fnv {
 public:
  Fnv& bytes(const char* data, std::size_t size) noexcept;
  Fnv& word(std::uint64_t value) noexcept;
  Fnv& f64(double value) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

/// Output stream that forwards every byte to another stream buffer
/// and measures the wall time spent in the forwarded writes: the
/// batch sink's file, timed from outside the library.
class TimedStream : public std::ostream {
 public:
  explicit TimedStream(std::streambuf* target);
  TimedStream(const TimedStream&) = delete;
  TimedStream& operator=(const TimedStream&) = delete;

  [[nodiscard]] double write_ms() const noexcept {
    return static_cast<double>(buf_.write_ns) / 1e6;
  }

 private:
  struct Buf : std::streambuf {
    std::streamsize xsputn(const char* data, std::streamsize n) override;
    int_type overflow(int_type ch) override;
    int sync() override;
    std::streambuf* target = nullptr;
    std::int64_t write_ns = 0;
  };
  Buf buf_;
};

/// FNV-1a of a file's bytes, and its size.
struct FileDigest {
  std::uint64_t hash = 0;
  std::uint64_t bytes = 0;
};
[[nodiscard]] FileDigest digest_file(const std::string& path);

}  // namespace e2ebench
