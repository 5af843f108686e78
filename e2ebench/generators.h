// Seeded input generators for the benchmark workloads.  Every
// generator is byte-deterministic: the same arguments give the same
// bytes on any host (own PRNG, doubles printed with %.17g).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

/// SplitMix64: tiny, portable, and independent of the standard
/// library's distribution implementations.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() noexcept;
  /// Uniform in [0, 1) with 53 random bits.
  double uniform() noexcept;
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

 private:
  std::uint64_t state_;
};

/// The k-of-n application-server tier of models::kofn_as_model written
/// out as an unlumped .rasc file: 3^nodes states named S<digits>
/// (digit i = node i: 0 Up, 1 Restarting, 2 Rebuilding), coverage
/// split La*C / La*(1-C), head-of-line shared repair crews (MuR, MuB),
/// and reward 1 iff at least `quorum` nodes are Up.  States and rates
/// are emitted in kofn_as_model's order, so the bound chain has the
/// same state indices and transition list.
struct KofnRasc {
  std::size_t nodes = 7;
  std::size_t quorum = 5;
  std::size_t repair_crews = 2;
  // models::KofnAsConfig defaults.
  double failure_rate = 0.02;
  double restart_coverage = 0.9;
  double restart_rate = 12.0;
  double rebuild_rate = 0.5;
};
[[nodiscard]] std::string kofn_rasc(const KofnRasc& spec);

/// Compares kofn_rasc(spec) against models::kofn_as_model at the same
/// configuration: equal state count, rewards and generator digest
/// (every transition's endpoints and rate bits), and availabilities
/// within 1e-12 of each other.  Returns "" on success, else the first
/// mismatch.
[[nodiscard]] std::string check_kofn_rasc(const KofnRasc& spec);

/// JSONL request stream for batch_zipf: `count` requests, a share
/// `hot_share` drawn Zipf(1) from `hot_keys` fixed (model, overrides)
/// keys and the rest unique, each asking for availability, downtime
/// and mtbf.  One line per request, no trailing newline inside lines.
[[nodiscard]] std::vector<std::string> batch_requests(std::uint64_t seed,
                                                      std::size_t count,
                                                      std::size_t hot_keys,
                                                      double hot_share);

}  // namespace e2ebench
