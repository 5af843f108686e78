// Steady-state solve caching for batch drivers.
//
// There is one cache tier, SharedSolveCache: a process-wide, sharded,
// fixed-memory concurrent table (transposition-table idiom: every key
// maps to exactly one slot, colliding inserts evict).  Its key,
// steady_state_key, is an exact digest of the generator (state count
// plus every transition's endpoints and rate bit pattern, via
// resil::DigestBuilder) and of the solve options.  Because the
// solvers are deterministic, a hit is bit-identical to a fresh solve,
// so results stay bit-identical across thread counts and cold/warm
// caches (oracle-gated, check_shared_cache_consensus).
//
// A SolveCache is one worker's handle on the solve path.  It owns the
// worker's SolveWorkspace and, once set_shared() attaches a shared
// tier, looks every solve up there first and publishes every fresh
// solve, so a parametric sweep dispatched across workers never
// recomputes an identical CTMC.  Without a shared tier it solves
// directly and computes no key.
//
// Checking a hit.  A key match counts only when the slot's chain has
// the looked-up chain's state and transition counts, so a collision
// between chains of different shape (one batch cache serves several
// models) can never hand back a distribution of the wrong length.
// Two different same-shape solves share a key only when their 64-bit
// FNV-1a digests collide.  A lookup compares its key with the one
// resident key of its slot, which already agrees with it on the bits
// that pick the slot.  If the digest behaves as a uniform hash, a
// lookup in a cache of C slots thus matches a different solve with
// probability at most C / 2^64, and a run of L lookups at most
// L * C / 2^64: about 6e-8 for a billion lookups at the default 1024
// slots.  FNV-1a is not collision-resistant, though: the bound holds
// for models and parameter values nobody chose to collide, not for a
// request stream crafted against the hash.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "ctmc/steady_state.h"

namespace rascal::ctmc {

/// Exact key of a steady-state solve: the generator digest plus every
/// SolveControl field that can change the computed bits (method,
/// validation, max_iterations, sparse_threshold, precond,
/// gmres_restart).  The cancellation token, the workspace pointer and
/// the unread `escalate` flag are excluded: they never change the
/// solution.  Two solves with equal
/// keys are bit-identical; the property suite asserts every field
/// (and every transition rate) discriminates.
[[nodiscard]] std::uint64_t steady_state_key(const Ctmc& chain,
                                             SteadyStateMethod method,
                                             Validation validation,
                                             const SolveControl& control);

/// Process-wide concurrent solve cache: a fixed number of slots split
/// across 16 mutex-guarded shards (fewer when the capacity is
/// smaller).  Each key owns exactly one slot (multiplicative hash), so
/// memory is bounded by `capacity` stored distributions and an insert
/// colliding with a live different-key slot evicts it (counted).  Lookups copy the stored SteadyState out
/// under the shard lock, so a returned value is never touched by a
/// concurrent eviction.
class SharedSolveCache {
 public:
  struct Config {
    /// Total slot count across all shards (0 disables the cache:
    /// lookups miss, inserts drop).  Bounds resident results.
    std::size_t capacity = 1024;
  };

  /// Point-in-time statistics.  Counters are cumulative over the
  /// cache lifetime; occupancy/evictions reflect slot state.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::size_t occupancy = 0;  // live slots
    std::size_t capacity = 0;   // total slots
  };

  SharedSolveCache() : SharedSolveCache(Config{}) {}
  explicit SharedSolveCache(const Config& config);

  /// True when the cache has at least one slot.
  [[nodiscard]] bool enabled() const noexcept { return !shards_.empty(); }

  /// On a key match whose stored chain has `chain`'s state and
  /// transition counts, copies the stored solution into `out` and
  /// returns true; otherwise (a key match of another shape included)
  /// counts a miss and leaves `out` untouched.
  [[nodiscard]] bool lookup(std::uint64_t key, const Ctmc& chain,
                            SteadyState& out) const;

  /// Stores `value`, the solution of `chain`, in the key's slot,
  /// evicting whatever different key lived there.  Re-inserting an
  /// existing key refreshes it.
  void insert(std::uint64_t key, const Ctmc& chain, const SteadyState& value);

  [[nodiscard]] Stats stats() const;

 private:
  struct Slot {
    bool used = false;
    std::uint64_t key = 0;
    std::size_t states = 0;       // shape of the chain `value` solves
    std::size_t transitions = 0;
    SteadyState value;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::vector<Slot> slots;
    std::size_t used = 0;
  };

  // 64-bit multiplicative spread of the FNV key: the low bits pick
  // the shard, the high bits the slot, so both stay well mixed even
  // for keys that differ in few bits.
  [[nodiscard]] std::size_t shard_index(std::uint64_t key) const noexcept;
  [[nodiscard]] std::size_t slot_index(std::uint64_t key) const noexcept;

  std::vector<Shard> shards_;
  std::size_t slots_per_shard_ = 0;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

/// One worker's solve path.  Not thread-safe; give each worker its
/// own.
class SolveCache {
 public:
  /// Attaches a cross-worker shared tier: consulted before every
  /// solve, published to after every fresh one.  Not owned; pass
  /// nullptr to detach.  The shared tier never changes results — its
  /// entries were produced by the identical deterministic solve.
  void set_shared(SharedSolveCache* shared) noexcept { shared_ = shared; }

  /// As solve_steady_state(), through this worker's reusable
  /// workspace.  With a shared tier attached, returns the stored
  /// result when one matches steady_state_key(); without one, no key
  /// is computed.  The reference stays valid until the next call.
  const SteadyState& steady_state(
      const Ctmc& chain, SteadyStateMethod method = SteadyStateMethod::kGth,
      Validation validation = Validation::kOn, SolveControl control = {});

  /// Solves the shared tier answered for this worker.
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }

  /// Exact structural digest of a chain's generator: state count plus
  /// (from, to, rate-bits) of every merged transition.
  [[nodiscard]] static std::uint64_t generator_digest(const Ctmc& chain);

 private:
  linalg::SolveWorkspace workspace_;
  SharedSolveCache* shared_ = nullptr;  // optional cross-worker tier
  SteadyState result_;                  // behind the returned reference
  std::uint64_t hits_ = 0;
};

}  // namespace rascal::ctmc
