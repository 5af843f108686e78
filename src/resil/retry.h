// Deterministic retry policy and structured error taxonomy for the
// fault-tolerant request supervision layer.
//
// Every failure a solve/parse/sink path can raise is classified into
// an ErrorClass that is either *retryable* (a bigger budget, a
// different rung of the fallback ladder, or simply trying again can
// succeed) or *permanent* (no amount of retrying changes the
// outcome: malformed input, missing model, shed by admission
// control).  Supervisors branch on the class, never on message text.
//
// RetryPolicy is deliberately wall-clock-free: there is no backoff
// delay and no jitter, because rascal retries are about *recovering a
// deterministic computation*, not about spacing out traffic to a
// remote service.  Budgets escalate by attempt index (base << k,
// saturating), so a resumed or re-threaded run walks the exact same
// attempt sequence — bit-identical results at any RASCAL_THREADS.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace rascal::resil {

/// Structured failure classes.  Keep to_string() and retryable() in
/// sync when extending.
enum class ErrorClass {
  kParse,            // malformed request line — permanent
  kModel,            // model load / bind / validation failure — permanent
  kAdmission,        // shed by admission control — permanent, distinct record
  kNonConvergence,   // iterative solve exhausted its budget — retryable
  kPrecond,          // preconditioner rejected the pattern — retryable
  kTransient,        // injected or environmental transient fault — retryable
  kCancelled,        // cooperative cancel — never retried, never recorded
  kSinkWrite,        // results sink could not write a record
  kCheckpointWrite,  // checkpoint append failed (ENOSPC, EFBIG) — tolerable
  kInternal,         // anything unclassified — permanent, fail loudly
};

[[nodiscard]] const char* to_string(ErrorClass cls) noexcept;

/// True when a retry (same work, possibly a bigger budget or a lower
/// ladder rung) can change the outcome.
[[nodiscard]] bool retryable(ErrorClass cls) noexcept;

/// Mix-in interface for exception types that know their own class.
/// Domain libraries (ctmc, linalg, serve) tag their exceptions so
/// classify() never has to name downstream types — resil stays at the
/// bottom of the dependency graph.
class ErrorClassTag {
 public:
  [[nodiscard]] virtual ErrorClass error_class() const noexcept = 0;

 protected:
  ~ErrorClassTag() = default;
};

/// A retryable fault injected by chaos testing or detected in the
/// environment (as opposed to computed by the solver).  Retrying the
/// identical attempt is expected to succeed bit-identically.
class TransientError : public std::runtime_error, public ErrorClassTag {
 public:
  using std::runtime_error::runtime_error;
  [[nodiscard]] ErrorClass error_class() const noexcept override {
    return ErrorClass::kTransient;
  }
};

/// Raised when a request is refused by admission control (state-count
/// or nnz cap, or the bounded in-flight queue).  Permanent by
/// definition: re-submitting the same request to the same limits
/// sheds it again.
class AdmissionError : public std::runtime_error, public ErrorClassTag {
 public:
  using std::runtime_error::runtime_error;
  [[nodiscard]] ErrorClass error_class() const noexcept override {
    return ErrorClass::kAdmission;
  }
};

/// Classifies an exception.  Types carrying an ErrorClassTag report
/// themselves; resil's own CancelledError/CheckpointError map to
/// their classes; everything else is kInternal (permanent).
[[nodiscard]] ErrorClass classify(const std::exception& failure) noexcept;

/// Bounded, deterministic retry schedule.  No wall clock, no RNG:
/// the k-th attempt of a given request is the same in every run.
struct RetryPolicy {
  /// Total attempts including the first (1 = no retries).
  std::size_t max_attempts = 1;

  /// Iteration budget of the first attempt (0 = library default, in
  /// which case escalation re-runs with the same default budget).
  std::size_t base_iterations = 0;

  /// Attempt-indexed budget escalation: attempt k runs with
  /// base_iterations << k, saturating instead of overflowing.  With
  /// base_iterations == 0 every attempt keeps the library default.
  [[nodiscard]] std::size_t iterations_for_attempt(
      std::size_t attempt) const noexcept;

  /// True when attempt `attempt` (0-based) may be followed by another.
  [[nodiscard]] bool allows_another(std::size_t attempt) const noexcept {
    return attempt + 1 < max_attempts;
  }
};

}  // namespace rascal::resil
