// Test-only fault injection for the execution engine itself.
//
// The RASCAL_CHAOS environment variable (or chaos::configure() from
// tests) names deterministic fault sites as a comma-separated list of
// `site@key` tokens:
//
//   worker-throw@7        throw ChaosError when worker index 7 starts
//   sigterm@40            raise(SIGTERM) when worker index 40 starts
//   solver-nonconverge@0  force the 0th Krylov solve to not converge
//   solver-fault@0        0th supervised solve attempt throws a
//                         retryable resil::TransientError (serve)
//   sink-write-fail@2     2nd results-sink record write fails
//   checkpoint-write-fail@0  0th checkpoint append fails as if ENOSPC
//                            hit it, before any byte is written
//   cache-publish-fail@0  0th publish to the shared solve cache is
//                         dropped (results must stay bit-identical)
//   worker-abandon@5      the worker chunk containing index 5 returns
//                         without recording anything (simulated
//                         worker death; the sink must surface gaps)
//
// Index-keyed sites (`worker-throw`, `sigterm`, `worker-abandon`)
// fire when the named sample/trial/replication index is processed;
// occurrence-keyed sites (all others) fire on the K-th call to tick()
// for that site, whichever operation that happens to be.  All sites
// are deterministic so the chaos ctests can assert exact outcomes.
// Site names are free-form: hooks pass whatever string they arm, and
// tools/chaos_matrix.sh sweeps every site against every entry point.
//
// When no spec is configured, enabled() is a single relaxed atomic
// load and every hook is a no-op.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string_view>

namespace rascal::resil::chaos {

/// Exception injected at `worker-throw` sites.  Deliberately distinct
/// from domain errors so tests can assert the failure path precisely.
class ChaosError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Replaces the active chaos spec (tests).  An empty spec disables
/// chaos and clears all occurrence counters.
void configure(std::string_view spec);

/// True when any chaos site is armed (fast path: one atomic load).
[[nodiscard]] bool enabled() noexcept;

/// True when `site@index` is armed (index-keyed sites).
[[nodiscard]] bool fires_at(std::string_view site, std::uint64_t index);

/// Occurrence-keyed sites: increments the site's call counter and
/// returns true when `site@K` names this occurrence (0-based).
[[nodiscard]] bool tick(std::string_view site);

/// Standard hook for parallel worker loops: raises SIGTERM at a
/// `sigterm@index` site, throws ChaosError at a `worker-throw@index`
/// site, otherwise does nothing.
void worker_hook(std::uint64_t index);

}  // namespace rascal::resil::chaos
