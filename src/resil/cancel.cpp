#include "resil/cancel.h"

#include <chrono>
#include <csignal>

namespace rascal::resil {

namespace {

CancellationToken* g_signal_token = nullptr;

extern "C" void resil_signal_handler(int signal_number) {
  // Restore the default disposition first: a second SIGINT/SIGTERM
  // must kill a run whose drain is stuck, not be swallowed.
  std::signal(signal_number, SIG_DFL);
  if (g_signal_token != nullptr) {
    g_signal_token->request_cancel_signal(signal_number);
  }
}

}  // namespace

void CancellationToken::request_cancel_signal(int signal_number) noexcept {
  // Called from a signal handler: lock-free atomic stores only.
  signal_.store(signal_number, std::memory_order_relaxed);
  int expected = static_cast<int>(CancelReason::kNone);
  reason_.compare_exchange_strong(expected,
                                  static_cast<int>(CancelReason::kSignal),
                                  std::memory_order_relaxed);
}

void CancellationToken::set_deadline_after(double seconds) noexcept {
  const double clamped = seconds > 0.0 ? seconds : 0.0;
  const std::uint64_t delta_ns =
      static_cast<std::uint64_t>(clamped * 1e9);
  // 0 means "no deadline", so an already-expired deadline is stored as
  // the smallest armed value.
  std::uint64_t at = steady_now_ns() + delta_ns;
  if (at == 0) at = 1;
  deadline_ns_.store(at, std::memory_order_relaxed);
}

bool CancellationToken::cancelled() const noexcept {
  if (reason_.load(std::memory_order_relaxed) !=
      static_cast<int>(CancelReason::kNone)) {
    return true;
  }
  const std::uint64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
  if (deadline != 0 && steady_now_ns() >= deadline) {
    int expected = static_cast<int>(CancelReason::kNone);
    reason_.compare_exchange_strong(expected,
                                    static_cast<int>(CancelReason::kDeadline),
                                    std::memory_order_relaxed);
    return true;
  }
  return false;
}

std::string CancellationToken::describe() const {
  switch (reason()) {
    case CancelReason::kNone: return "not cancelled";
    case CancelReason::kDeadline: return "deadline exceeded";
    case CancelReason::kSignal: {
      const int sig = signal_number();
      if (sig == SIGINT) return "signal SIGINT";
      if (sig == SIGTERM) return "signal SIGTERM";
      return "signal " + std::to_string(sig);
    }
  }
  return "unknown";
}

void install_signal_handlers(CancellationToken& token) {
  g_signal_token = &token;
  std::signal(SIGINT, resil_signal_handler);
  std::signal(SIGTERM, resil_signal_handler);
}

std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace rascal::resil
