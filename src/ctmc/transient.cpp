#include "ctmc/transient.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "ctmc/validate.h"
#include "obs/obs.h"

namespace rascal::ctmc {

namespace {

constexpr double kLogUnderflow = -745.0;  // below exp() ~ 0 in double

// Once past the Poisson mode, terms with log-weight under this bound
// can never contribute at double precision; stopping on it guards
// against the summed CDF plateauing just below 1 - precision from
// accumulated rounding.
constexpr double kLogNegligible = -45.0;  // ~ 3e-20

void check_initial(const Ctmc& chain, const linalg::Vector& initial) {
  if (initial.size() != chain.num_states()) {
    throw std::invalid_argument("transient: initial vector size mismatch");
  }
  double sum = 0.0;
  for (double p : initial) {
    if (p < 0.0) {
      throw std::invalid_argument("transient: negative initial probability");
    }
    sum += p;
  }
  if (std::abs(sum - 1.0) > 1e-9) {
    throw std::invalid_argument("transient: initial vector must sum to 1");
  }
}

// Polled at every ~128th Poisson term: stiff horizons sum millions of
// terms, so a deadline must be able to interrupt the summation itself.
void check_cancel(const TransientOptions& options, std::size_t term,
                  const char* where) {
  if (options.cancel != nullptr && term % 128 == 0 &&
      options.cancel->cancelled()) {
    throw resil::CancelledError(std::string(where) +
                                ": cancelled during uniformization after " +
                                std::to_string(term) + " terms");
  }
}

// One DTMC step of the uniformized chain, v <- v (I + Q/Lambda), using
// caller-owned scratch so the Poisson summation never allocates.
void uniformized_step(const linalg::CsrMatrix& q, linalg::Vector& v,
                      double lambda, linalg::Vector& vq,
                      linalg::Vector& next) {
  q.left_multiply_into(v, vq);
  next.resize(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    next[i] = v[i] + vq[i] / lambda;
    if (next[i] < 0.0) next[i] = 0.0;  // round-off guard
  }
  std::swap(v, next);
}

}  // namespace

TransientResult transient_distribution(const Ctmc& chain,
                                       const linalg::Vector& initial,
                                       double t,
                                       const TransientOptions& options) {
  const obs::Span span("ctmc.transient");
  check_initial(chain, initial);
  if (t < 0.0) {
    throw std::invalid_argument("transient: negative time");
  }
  if (options.validate) {
    throw_if_errors(validate_for_transient(chain, t, options.max_terms));
  }
  TransientResult result;
  if (t == 0.0 || chain.max_exit_rate() == 0.0) {
    result.probabilities = initial;
    return result;
  }
  const double lambda = chain.max_exit_rate() * 1.02;
  const double lt = lambda * t;
  const linalg::CsrMatrix q = chain.sparse_generator();

  std::optional<linalg::SolveWorkspace> local_ws;
  linalg::SolveWorkspace* ws =
      options.workspace != nullptr ? options.workspace : &local_ws.emplace();
  linalg::Vector& v = ws->sparse_vec(0, chain.num_states());  // pi(0) P^k
  std::copy(initial.begin(), initial.end(), v.begin());
  linalg::Vector& vq = ws->sparse_vec(1, 0);
  linalg::Vector& next = ws->sparse_vec(2, 0);
  linalg::Vector acc(chain.num_states(), 0.0);  // weighted sum (the result)
  double log_w = -lt;                           // log Poisson pmf at k
  double accumulated_weight = 0.0;
  std::size_t k = 0;
  while (accumulated_weight < 1.0 - options.precision) {
    check_cancel(options, k, "transient_distribution");
    if (static_cast<double>(k) > lt && log_w < kLogNegligible) break;
    if (k > options.max_terms) {
      throw std::runtime_error(
          "transient_distribution: truncation point exceeds max_terms "
          "(chain too stiff for this horizon)");
    }
    if (log_w > kLogUnderflow) {
      const double w = std::exp(log_w);
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += w * v[i];
      accumulated_weight += w;
    }
    uniformized_step(q, v, lambda, vq, next);
    ++k;
    log_w += std::log(lt) - std::log(static_cast<double>(k));
  }
  linalg::normalize_to_sum_one(acc);
  result.probabilities = std::move(acc);
  result.terms = k;
  if (obs::enabled()) {
    obs::counter("ctmc.transient.solves").add(1);
    obs::counter("ctmc.transient.terms").add(result.terms);
  }
  return result;
}

IntervalRewardResult expected_interval_reward(
    const Ctmc& chain, const linalg::Vector& initial, double t,
    const TransientOptions& options) {
  const obs::Span span("ctmc.interval_reward");
  check_initial(chain, initial);
  if (!(t > 0.0)) {
    throw std::invalid_argument("expected_interval_reward: requires t > 0");
  }
  if (options.validate) {
    throw_if_errors(validate_for_transient(chain, t, options.max_terms));
  }
  const std::size_t n = chain.num_states();
  linalg::Vector rewards(n);
  for (StateId i = 0; i < n; ++i) rewards[i] = chain.reward(i);
  IntervalRewardResult result;
  if (chain.max_exit_rate() == 0.0) {
    double reward = 0.0;
    for (StateId i = 0; i < n; ++i) reward += initial[i] * rewards[i];
    result.accumulated_reward = reward * t;
    result.time_averaged = reward;
    return result;
  }
  const double lambda = chain.max_exit_rate() * 1.02;
  const double lt = lambda * t;
  const linalg::CsrMatrix q = chain.sparse_generator();

  // integral_0^t pi(u) du = (1/Lambda) sum_k (1 - W_k) v_k, where
  // W_k is the Poisson CDF at k.  We accumulate the reward-weighted
  // version directly.
  std::optional<linalg::SolveWorkspace> local_ws;
  linalg::SolveWorkspace* ws =
      options.workspace != nullptr ? options.workspace : &local_ws.emplace();
  linalg::Vector& v = ws->sparse_vec(0, n);
  std::copy(initial.begin(), initial.end(), v.begin());
  linalg::Vector& vq = ws->sparse_vec(1, 0);
  linalg::Vector& next = ws->sparse_vec(2, 0);
  double integral = 0.0;
  double log_w = -lt;
  double cdf = 0.0;
  std::size_t k = 0;
  while (1.0 - cdf > options.precision) {
    check_cancel(options, k, "expected_interval_reward");
    if (static_cast<double>(k) > lt && log_w < kLogNegligible) break;
    if (k > options.max_terms) {
      throw std::runtime_error(
          "expected_interval_reward: truncation point exceeds max_terms");
    }
    if (log_w > kLogUnderflow) cdf += std::exp(log_w);
    double v_reward = 0.0;
    for (StateId i = 0; i < n; ++i) v_reward += v[i] * rewards[i];
    integral += (1.0 - cdf) * v_reward;
    uniformized_step(q, v, lambda, vq, next);
    ++k;
    log_w += std::log(lt) - std::log(static_cast<double>(k));
  }
  result.accumulated_reward = integral / lambda;
  result.time_averaged = result.accumulated_reward / t;
  result.terms = k;
  if (obs::enabled()) {
    obs::counter("ctmc.transient.solves").add(1);
    obs::counter("ctmc.transient.terms").add(k);
  }
  return result;
}

}  // namespace rascal::ctmc
