#include "stats/special_functions.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace rascal::stats {

namespace {

constexpr int kMaxIterations = 500;
constexpr double kEpsilon = 1e-15;
constexpr double kTiny = 1e-300;

// Series expansion of P(a, x), effective for x < a + 1.
double gamma_p_series(double a, double x) {
  double term = 1.0 / a;
  double sum = term;
  double ap = a;
  for (int i = 0; i < kMaxIterations; ++i) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::abs(term) < std::abs(sum) * kEpsilon) break;
  }
  return sum * std::exp(-x + a * std::log(x) - log_gamma(a));
}

// Continued fraction for Q(a, x) (Lentz), effective for x >= a + 1.
double gamma_q_continued_fraction(double a, double x) {
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIterations; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < kEpsilon) break;
  }
  return h * std::exp(-x + a * std::log(x) - log_gamma(a));
}

// Continued fraction for the incomplete beta (Lentz / NR betacf).
double beta_continued_fraction(double a, double b, double x) {
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::abs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIterations; ++m) {
    const double dm = static_cast<double>(m);
    const double m2 = 2.0 * dm;
    double aa = dm * (b - dm) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + dm) * (qab + dm) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < kEpsilon) break;
  }
  return h;
}

}  // namespace

double log_gamma(double x) {
  if (!(x > 0.0)) {
    throw std::domain_error("log_gamma: requires x > 0");
  }
  return std::lgamma(x);
}

double regularized_gamma_p(double a, double x) {
  if (!(a > 0.0) || x < 0.0) {
    throw std::domain_error("regularized_gamma_p: requires a > 0, x >= 0");
  }
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return gamma_p_series(a, x);
  return 1.0 - gamma_q_continued_fraction(a, x);
}

double inverse_regularized_gamma_p(double a, double p) {
  if (!(a > 0.0) || p < 0.0 || p >= 1.0) {
    throw std::domain_error(
        "inverse_regularized_gamma_p: requires a > 0, p in [0, 1)");
  }
  if (p == 0.0) return 0.0;

  // Bracket the root, then bisect with Newton acceleration.
  double lo = 0.0;
  double hi = std::max(a, 1.0);
  while (regularized_gamma_p(a, hi) < p) {
    hi *= 2.0;
    if (hi > 1e308) {
      throw std::runtime_error("inverse_regularized_gamma_p: no bracket");
    }
  }
  double x = 0.5 * (lo + hi);
  for (int i = 0; i < 200; ++i) {
    const double fx = regularized_gamma_p(a, x) - p;
    if (fx > 0.0) {
      hi = x;
    } else {
      lo = x;
    }
    // Newton step using the gamma pdf as the derivative.
    const double log_pdf = (a - 1.0) * std::log(x) - x - log_gamma(a);
    const double pdf = std::exp(log_pdf);
    double next = x;
    if (pdf > 0.0 && std::isfinite(pdf)) next = x - fx / pdf;
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
    if (std::abs(next - x) < 1e-14 * std::max(1.0, x)) return next;
    x = next;
  }
  return x;
}

double regularized_beta(double a, double b, double x) {
  if (!(a > 0.0) || !(b > 0.0) || x < 0.0 || x > 1.0) {
    throw std::domain_error(
        "regularized_beta: requires a, b > 0 and x in [0, 1]");
  }
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;
  const double log_front = log_gamma(a + b) - log_gamma(a) - log_gamma(b) +
                           a * std::log(x) + b * std::log1p(-x);
  const double front = std::exp(log_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_continued_fraction(a, b, x) / a;
  }
  return 1.0 - front * beta_continued_fraction(b, a, 1.0 - x) / b;
}

double inverse_regularized_beta(double a, double b, double p) {
  if (p < 0.0 || p > 1.0) {
    throw std::domain_error("inverse_regularized_beta: p outside [0, 1]");
  }
  if (p == 0.0) return 0.0;
  if (p == 1.0) return 1.0;
  double lo = 0.0;
  double hi = 1.0;
  double x = 0.5;
  for (int i = 0; i < 300; ++i) {
    const double fx = regularized_beta(a, b, x) - p;
    if (fx > 0.0) {
      hi = x;
    } else {
      lo = x;
    }
    const double next = 0.5 * (lo + hi);
    if (std::abs(next - x) < 1e-15) return next;
    x = next;
  }
  return x;
}

double standard_normal_cdf(double x) {
  return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

double standard_normal_quantile(double p) {
  if (!(p > 0.0) || !(p < 1.0)) {
    throw std::domain_error("standard_normal_quantile: p outside (0, 1)");
  }
  // Acklam's rational approximation.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  double x;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log1p(-p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley refinement for ~1e-15 accuracy.
  const double e = standard_normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * M_PI) * std::exp(0.5 * x * x);
  x = x - u / (1.0 + 0.5 * x * u);
  return x;
}

double chi_square_quantile(double dof, double p) {
  if (!(dof > 0.0)) {
    throw std::invalid_argument(
        "chi_square_quantile: degrees of freedom must be > 0");
  }
  if (!(p > 0.0) || !(p < 1.0)) {
    throw std::domain_error("chi_square_quantile: p outside (0, 1)");
  }
  return 2.0 * inverse_regularized_gamma_p(dof / 2.0, p);
}

double fisher_f_quantile(double d1, double d2, double p) {
  if (!(d1 > 0.0 && d2 > 0.0)) {
    throw std::invalid_argument(
        "fisher_f_quantile: degrees of freedom must be > 0");
  }
  if (!(p > 0.0) || !(p < 1.0)) {
    throw std::domain_error("fisher_f_quantile: p outside (0, 1)");
  }
  // X ~ F(d1, d2) maps to Z = d1 X / (d1 X + d2) ~ Beta(d1/2, d2/2).
  const double z = inverse_regularized_beta(d1 / 2.0, d2 / 2.0, p);
  if (z >= 1.0) return std::numeric_limits<double>::infinity();
  return d2 * z / (d1 * (1.0 - z));
}

}  // namespace rascal::stats
