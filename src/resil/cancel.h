// Cooperative cancellation for long-running work.
//
// A CancellationToken carries a latched cancel flag plus an optional
// wall-clock deadline.  Producers (signal handlers, --deadline) cancel
// it; consumers (parallel sampling loops, iterative solvers, the
// event-driven simulator) poll `cancelled()` at safe points, drain,
// flush their checkpoint, and return partial results clearly marked
// as such.
//
// The token is designed so `request_cancel_signal()` is safe to call
// from a signal handler: it touches nothing but lock-free atomics.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace rascal::resil {

enum class CancelReason {
  kNone,       // not cancelled
  kDeadline,   // wall-clock deadline expired
  kSignal,     // SIGINT / SIGTERM (see signal_number())
};

/// Thrown by solvers and simulators to abandon in-flight work when
/// their token fires mid-computation.  Drained workers catch it and
/// leave the interrupted index unrecorded, so a resumed run recomputes
/// exactly the indices an uninterrupted run would have produced.
class CancelledError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Latches the cancel flag with reason kSignal.  Async-signal-safe:
  /// lock-free atomic stores only.
  void request_cancel_signal(int signal_number) noexcept;

  /// Arms a deadline `seconds` from now (steady clock).  Passing a
  /// non-positive value makes the very next cancelled() check fire.
  void set_deadline_after(double seconds) noexcept;

  /// True once a signal arrived or the deadline has passed.
  /// The reason is latched on first observation and never changes.
  [[nodiscard]] bool cancelled() const noexcept;

  [[nodiscard]] CancelReason reason() const noexcept {
    return static_cast<CancelReason>(reason_.load(std::memory_order_relaxed));
  }

  /// Signal that triggered cancellation (0 unless reason == kSignal).
  [[nodiscard]] int signal_number() const noexcept {
    return signal_.load(std::memory_order_relaxed);
  }

  /// Human-readable cause: "signal SIGTERM", "deadline exceeded", ...
  [[nodiscard]] std::string describe() const;

 private:
  // reason_ doubles as the cancel flag (kNone = not cancelled); it is
  // mutable so the const cancelled() poll can latch a deadline expiry.
  mutable std::atomic<int> reason_{0};
  std::atomic<int> signal_{0};
  std::atomic<std::uint64_t> deadline_ns_{0};  // steady clock; 0 = none
};

/// Routes SIGINT and SIGTERM to `token`.  The first signal latches the
/// token (cooperative drain); the handler then restores the default
/// disposition so a second signal terminates immediately.  The token
/// must outlive the handlers (pass a static or main()-scoped token).
void install_signal_handlers(CancellationToken& token);

/// Monotonic steady-clock nanoseconds (deadline arithmetic, tests).
[[nodiscard]] std::uint64_t steady_now_ns() noexcept;

}  // namespace rascal::resil
