#include "timing.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>

namespace e2ebench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() noexcept {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() noexcept {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double reference_ms() {
  const std::int64_t start = now_ns();
  std::uint64_t x = 88172645463325252ULL;  // xorshift64
  Fnv fnv;
  for (int round = 0; round < 6; ++round) {
    std::map<std::uint64_t, std::string> entries;
    for (int i = 0; i < 2000; ++i) {
      x ^= x << 13U;
      x ^= x >> 7U;
      x ^= x << 17U;
      entries[x % 100000] = std::to_string(x) + "," + std::to_string(x >> 20U);
    }
    std::string body;
    for (const auto& [key, text] : entries) {
      body += std::to_string(key);
      body += text;
    }
    fnv.bytes(body.data(), body.size());
  }
  volatile std::uint64_t sink = fnv.value();  // keep the work
  (void)sink;
  return static_cast<double>(now_ns() - start) / 1e6;
}

double host_speed() { return kReferenceNominalMs / reference_ms(); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (q >= 1.0) return values.back();
  // Linear interpolation between closest ranks (numpy's default), so
  // the median of an even count is the midpoint.
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Fnv& Fnv::bytes(const char* data, std::size_t size) noexcept {
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= static_cast<unsigned char>(data[i]);
    hash_ *= 1099511628211ULL;
  }
  return *this;
}

Fnv& Fnv::word(std::uint64_t value) noexcept {
  for (int shift = 0; shift < 64; shift += 8) {
    hash_ ^= (value >> shift) & 0xffU;
    hash_ *= 1099511628211ULL;
  }
  return *this;
}

Fnv& Fnv::f64(double value) noexcept {
  return word(std::bit_cast<std::uint64_t>(value));
}

TimedStream::TimedStream(std::streambuf* target) : std::ostream(nullptr) {
  buf_.target = target;
  rdbuf(&buf_);
}

std::streamsize TimedStream::Buf::xsputn(const char* data, std::streamsize n) {
  const std::int64_t start = now_ns();
  const std::streamsize put = target->sputn(data, n);
  write_ns += now_ns() - start;
  return put;
}

TimedStream::Buf::int_type TimedStream::Buf::overflow(int_type ch) {
  if (traits_type::eq_int_type(ch, traits_type::eof())) {
    return traits_type::not_eof(ch);
  }
  const char c = traits_type::to_char_type(ch);
  return xsputn(&c, 1) == 1 ? ch : traits_type::eof();
}

int TimedStream::Buf::sync() {
  const std::int64_t start = now_ns();
  const int result = target->pubsync();
  write_ns += now_ns() - start;
  return result;
}

FileDigest digest_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  FileDigest digest;
  Fnv fnv;
  std::vector<char> chunk(1 << 16);
  while (in) {
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    const auto got = static_cast<std::size_t>(in.gcount());
    fnv.bytes(chunk.data(), got);
    digest.bytes += got;
  }
  digest.hash = fnv.value();
  return digest;
}

}  // namespace e2ebench
