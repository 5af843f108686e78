#include "ctmc/solve_cache.h"

#include "obs/obs.h"
#include "resil/chaos.h"
#include "resil/checkpoint.h"

namespace rascal::ctmc {

namespace {

// Fibonacci multiplier: spreads the FNV-1a key so that shard and
// slot indices stay uniform even when keys share low bits.
constexpr std::uint64_t kSpread = 0x9E3779B97F4A7C15ULL;

// Shard count of a SharedSolveCache (a power of two, halved while it
// exceeds the capacity).  One mutex per shard keeps workers out of
// each other's way.
constexpr std::size_t kShards = 16;

}  // namespace

std::uint64_t SolveCache::generator_digest(const Ctmc& chain) {
  resil::DigestBuilder digest;
  digest.add_u64(chain.num_states());
  for (const Transition& t : chain.transitions()) {
    digest.add_u64(t.from);
    digest.add_u64(t.to);
    digest.add_f64(t.rate);
  }
  return digest.value();
}

std::uint64_t steady_state_key(const Ctmc& chain, SteadyStateMethod method,
                               Validation validation,
                               const SolveControl& control) {
  resil::DigestBuilder key_builder;
  key_builder.add_u64(SolveCache::generator_digest(chain));
  key_builder.add_u64(static_cast<std::uint64_t>(method));
  key_builder.add_u64(validation == Validation::kOn ? 1 : 0);
  key_builder.add_u64(control.max_iterations);
  key_builder.add_u64(control.sparse_threshold);
  key_builder.add_u64(static_cast<std::uint64_t>(control.precond));
  key_builder.add_u64(control.gmres_restart);
  return key_builder.value();
}

// ---- SharedSolveCache -------------------------------------------------

SharedSolveCache::SharedSolveCache(const Config& config) {
  if (config.capacity == 0) return;
  std::size_t shard_count = kShards;
  while (shard_count > 1 && shard_count > config.capacity) shard_count >>= 1;
  slots_per_shard_ = (config.capacity + shard_count - 1) / shard_count;
  shards_ = std::vector<Shard>(shard_count);
  for (Shard& shard : shards_) {
    shard.slots.resize(slots_per_shard_);
  }
}

std::size_t SharedSolveCache::shard_index(std::uint64_t key) const noexcept {
  return static_cast<std::size_t>((key * kSpread) & (shards_.size() - 1));
}

std::size_t SharedSolveCache::slot_index(std::uint64_t key) const noexcept {
  // High bits: independent of the shard-selecting low bits.
  return static_cast<std::size_t>((key * kSpread) >> 32) % slots_per_shard_;
}

bool SharedSolveCache::lookup(std::uint64_t key, const Ctmc& chain,
                              SteadyState& out) const {
  if (!enabled()) return false;
  const Shard& shard = shards_[shard_index(key)];
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const Slot& slot = shard.slots[slot_index(key)];
    if (slot.used && slot.key == key && slot.states == chain.num_states() &&
        slot.transitions == chain.transitions().size()) {
      out = slot.value;
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (obs::enabled()) obs::counter("ctmc.shared_cache.hits").add(1);
      return true;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) obs::counter("ctmc.shared_cache.misses").add(1);
  return false;
}

void SharedSolveCache::insert(std::uint64_t key, const Ctmc& chain,
                              const SteadyState& value) {
  if (!enabled()) return;
  Shard& shard = shards_[shard_index(key)];
  bool evicted = false;
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    Slot& slot = shard.slots[slot_index(key)];
    if (slot.used && slot.key != key) evicted = true;
    if (!slot.used) ++shard.used;
    slot.used = true;
    slot.key = key;
    slot.states = chain.num_states();
    slot.transitions = chain.transitions().size();
    slot.value = value;
  }
  insertions_.fetch_add(1, std::memory_order_relaxed);
  if (evicted) evictions_.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) {
    obs::counter("ctmc.shared_cache.insertions").add(1);
    if (evicted) obs::counter("ctmc.shared_cache.evictions").add(1);
    obs::gauge("ctmc.shared_cache.occupancy")
        .set(static_cast<double>(stats().occupancy));
  }
}

SharedSolveCache::Stats SharedSolveCache::stats() const {
  Stats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.insertions = insertions_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.capacity = shards_.size() * slots_per_shard_;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    out.occupancy += shard.used;
  }
  return out;
}

// ---- SolveCache -------------------------------------------------------

const SteadyState& SolveCache::steady_state(const Ctmc& chain,
                                            SteadyStateMethod method,
                                            Validation validation,
                                            SolveControl control) {
  control.workspace = &workspace_;
  if (shared_ == nullptr) {
    result_ = solve_steady_state(chain, method, validation, control);
    return result_;
  }
  const std::uint64_t key =
      steady_state_key(chain, method, validation, control);
  if (shared_->lookup(key, chain, result_)) {
    ++hits_;
    return result_;
  }
  result_ = solve_steady_state(chain, method, validation, control);
  // The shared tier is an accelerator, never a dependency: a failed
  // publish (chaos `cache-publish-fail`, simulating a full or poisoned
  // shard) costs other workers a recompute but can never change any
  // result bit.
  if (resil::chaos::enabled() && resil::chaos::tick("cache-publish-fail")) {
    if (obs::enabled()) {
      obs::counter("ctmc.shared_cache.publish_failures").add(1);
    }
  } else {
    shared_->insert(key, chain, result_);
  }
  return result_;
}

}  // namespace rascal::ctmc
