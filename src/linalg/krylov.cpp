#include "linalg/krylov.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include "resil/chaos.h"

namespace rascal::linalg {

namespace {

// Chaos hook `solver-nonconverge@K`: Krylov methods converge on small
// systems even under a harsh iteration cap, so the hook zeroes the
// budget of the K-th Krylov solve outright — the solve gives up
// immediately and the serve fallback ladder takes over.
std::size_t chaos_capped_budget(std::size_t max_iterations) {
  if (resil::chaos::enabled() && resil::chaos::tick("solver-nonconverge")) {
    return 0;
  }
  return max_iterations;
}

// Scalar-recurrence breakdown guard: denominators this close to zero
// (or non-finite) would poison the iterate with Inf/NaN.
constexpr double kBreakdownFloor = 1e-280;

bool broke(double denom) {
  return !std::isfinite(denom) || std::abs(denom) < kBreakdownFloor;
}

// The methods run on the plan's system: y = A x is multiply_into and
// z = M^{-1} r is apply, with the preconditioner last factored.
KrylovResult run_gmres(const KrylovPlan& a, const Vector& b, Vector x,
                       const KrylovOptions& options, SolveWorkspace& ws) {
  const std::size_t n = b.size();
  KrylovResult result;
  const double target = options.tolerance * norm2(b);
  const std::size_t max_it = chaos_capped_budget(options.max_iterations);
  const std::size_t m = std::max<std::size_t>(
      1, std::min<std::size_t>(options.restart, n));
  const std::size_t lead = m + 1;  // Hessenberg leading dim, column-major

  std::vector<Vector>& basis = ws.krylov_basis(m + 1);
  Vector& r = ws.sparse_vec(0, n);
  Vector& z = ws.sparse_vec(1, n);
  Vector& w = ws.sparse_vec(2, n);
  Vector& h = ws.sparse_vec(3, lead * m);
  Vector& cs = ws.sparse_vec(4, m);
  Vector& sn = ws.sparse_vec(5, m);
  Vector& g = ws.sparse_vec(6, m + 1);
  Vector& y = ws.sparse_vec(7, m);
  Vector& vy = ws.sparse_vec(8, n);

  a.multiply_into(x, w);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - w[i];
  double rnorm = norm2(r);
  result.residual = rnorm;
  if (rnorm <= target) {
    result.converged = true;
    result.x = std::move(x);
    return result;
  }

  while (result.iterations < max_it) {
    // --- restart cycle ---
    const double beta = rnorm;
    basis[0].resize(n);
    for (std::size_t i = 0; i < n; ++i) basis[0][i] = r[i] / beta;
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;
    std::size_t jused = 0;
    bool exact = false;  // happy breakdown: Krylov space exhausted

    for (std::size_t j = 0; j < m && result.iterations < max_it; ++j) {
      if (options.cancel != nullptr && options.cancel->cancelled()) {
        result.cancelled = true;
        break;
      }
      a.apply(basis[j], z);
      a.multiply_into(z, w);
      ++result.iterations;

      // Modified Gram-Schmidt against the current basis.  The sweep
      // that subtracts one projection from w also takes w's dot
      // product with the next basis vector, or its norm after the
      // last one, accumulating in the order dot() and norm2() would.
      double hij = dot(w, basis[0]);
      double hj1 = 0.0;
      double* wp = w.data();
      for (std::size_t i = 0; i <= j; ++i) {
        h[i + j * lead] = hij;
        const double* vi = basis[i].data();
        double acc = 0.0;
        if (i < j) {
          const double* next = basis[i + 1].data();
          for (std::size_t t = 0; t < n; ++t) {
            wp[t] -= hij * vi[t];
            acc += wp[t] * next[t];
          }
          hij = acc;
        } else {
          for (std::size_t t = 0; t < n; ++t) {
            wp[t] -= hij * vi[t];
            acc += wp[t] * wp[t];
          }
          hj1 = std::sqrt(acc);
        }
      }
      h[(j + 1) + j * lead] = hj1;
      if (hj1 != 0.0) {
        basis[j + 1].resize(n);
        for (std::size_t t = 0; t < n; ++t) basis[j + 1][t] = w[t] / hj1;
      }

      // Previously computed Givens rotations applied to column j.
      for (std::size_t i = 0; i < j; ++i) {
        const double h0 = h[i + j * lead];
        const double h1 = h[(i + 1) + j * lead];
        h[i + j * lead] = cs[i] * h0 + sn[i] * h1;
        h[(i + 1) + j * lead] = -sn[i] * h0 + cs[i] * h1;
      }
      // New rotation zeroing the subdiagonal of column j.
      const double h0 = h[j + j * lead];
      const double h1 = h[(j + 1) + j * lead];
      double c = 1.0;
      double s = 0.0;
      if (h1 != 0.0) {
        if (std::abs(h1) > std::abs(h0)) {
          const double t = h0 / h1;
          s = 1.0 / std::sqrt(1.0 + t * t);
          c = t * s;
        } else {
          const double t = h1 / h0;
          c = 1.0 / std::sqrt(1.0 + t * t);
          s = t * c;
        }
      }
      cs[j] = c;
      sn[j] = s;
      h[j + j * lead] = c * h0 + s * h1;
      h[(j + 1) + j * lead] = 0.0;
      const double g0 = g[j];
      g[j] = c * g0;
      g[j + 1] = -s * g0;
      jused = j + 1;

      if (hj1 == 0.0) {
        exact = true;
        break;
      }
      if (std::abs(g[j + 1]) <= target) break;
    }

    if (result.cancelled || jused == 0) break;

    // Back substitution on the rotated (upper-triangular) Hessenberg.
    for (std::size_t ii = jused; ii-- > 0;) {
      double acc = g[ii];
      for (std::size_t jj = ii + 1; jj < jused; ++jj) {
        acc -= h[ii + jj * lead] * y[jj];
      }
      const double hd = h[ii + ii * lead];
      // A zero diagonal only arises on singular systems; skipping the
      // direction keeps the update finite and the residual honest.
      y[ii] = hd != 0.0 ? acc / hd : 0.0;
    }

    // x += M^{-1} (V y): accumulate V y first so the preconditioner
    // is applied once per restart, not once per basis vector.
    std::fill(vy.begin(), vy.end(), 0.0);
    for (std::size_t i = 0; i < jused; ++i) {
      const double yi = y[i];
      const Vector& vi = basis[i];
      for (std::size_t t = 0; t < n; ++t) vy[t] += yi * vi[t];
    }
    a.apply(vy, z);
    for (std::size_t t = 0; t < n; ++t) x[t] += z[t];

    // Restart decisions use the true residual, not the Givens
    // estimate, so preconditioned round-off cannot fake convergence.
    a.multiply_into(x, w);
    for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - w[i];
    rnorm = norm2(r);
    result.residual = rnorm;
    if (rnorm <= target) {
      result.converged = true;
      break;
    }
    if (exact) break;  // singular system: restarting rebuilds the same space
  }

  result.x = std::move(x);
  return result;
}

KrylovResult run_bicgstab(const KrylovPlan& a, const Vector& b, Vector x,
                          const KrylovOptions& options, SolveWorkspace& ws) {
  const std::size_t n = b.size();
  KrylovResult result;
  const double target = options.tolerance * norm2(b);
  const std::size_t max_it = chaos_capped_budget(options.max_iterations);

  Vector& r = ws.sparse_vec(0, n);
  Vector& rhat = ws.sparse_vec(1, n);
  Vector& p = ws.sparse_vec(2, n);
  Vector& v = ws.sparse_vec(3, n);
  Vector& s = ws.sparse_vec(4, n);
  Vector& tv = ws.sparse_vec(5, n);
  Vector& phat = ws.sparse_vec(6, n);
  Vector& shat = ws.sparse_vec(7, n);
  Vector& w = ws.sparse_vec(8, n);

  a.multiply_into(x, w);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - w[i];
  rhat = r;
  double rnorm = norm2(r);
  result.residual = rnorm;
  if (rnorm <= target) {
    result.converged = true;
    result.x = std::move(x);
    return result;
  }

  double rho = 1.0;
  double alpha = 1.0;
  double omega = 1.0;
  bool fresh = true;  // p/v recurrence not yet primed (start or restart)

  while (result.iterations < max_it) {
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      result.cancelled = true;
      break;
    }
    const double rho_new = dot(rhat, r);
    if (broke(rho_new)) {
      result.breakdown = true;
      break;
    }
    if (fresh) {
      p = r;
      fresh = false;
    } else {
      const double beta = (rho_new / rho) * (alpha / omega);
      for (std::size_t i = 0; i < n; ++i) {
        p[i] = r[i] + beta * (p[i] - omega * v[i]);
      }
    }
    a.apply(p, phat);
    a.multiply_into(phat, v);
    ++result.iterations;
    const double den = dot(rhat, v);
    if (broke(den)) {
      result.breakdown = true;
      break;
    }
    alpha = rho_new / den;
    for (std::size_t i = 0; i < n; ++i) s[i] = r[i] - alpha * v[i];

    // Early half-step exit: s already small enough that the omega
    // step (and its possible division by a tiny t'Ht) is unnecessary.
    if (norm2(s) <= target) {
      for (std::size_t i = 0; i < n; ++i) x[i] += alpha * phat[i];
      a.multiply_into(x, w);
      ++result.iterations;
      for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - w[i];
      rnorm = norm2(r);
      result.residual = rnorm;
      if (rnorm <= target) {
        result.converged = true;
        break;
      }
      // Recurrence drifted from the true residual: full restart.
      rhat = r;
      rho = 1.0;
      alpha = 1.0;
      omega = 1.0;
      fresh = true;
      continue;
    }

    a.apply(s, shat);
    a.multiply_into(shat, tv);
    ++result.iterations;
    const double tt = dot(tv, tv);
    if (broke(tt)) {
      result.breakdown = true;
      break;
    }
    omega = dot(tv, s) / tt;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * phat[i] + omega * shat[i];
    }
    for (std::size_t i = 0; i < n; ++i) r[i] = s[i] - omega * tv[i];
    rho = rho_new;
    rnorm = norm2(r);
    result.residual = rnorm;

    if (rnorm <= target) {
      // Accept only on the true residual; the recurrence can drift.
      a.multiply_into(x, w);
      ++result.iterations;
      for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - w[i];
      rnorm = norm2(r);
      result.residual = rnorm;
      if (rnorm <= target) {
        result.converged = true;
        break;
      }
      rhat = r;
      rho = 1.0;
      alpha = 1.0;
      omega = 1.0;
      fresh = true;
      continue;
    }
    if (broke(omega)) {
      // The next beta would divide by omega.
      result.breakdown = true;
      break;
    }
  }

  result.x = std::move(x);
  return result;
}

// The stationary solution's finish: clamp tiny negative round-off,
// then renormalize (guarded so a diverged iterate is returned as-is).
void clamp_and_normalize(Vector& x) {
  double sum = 0.0;
  for (double& pr : x) {
    if (pr < 0.0 && pr > -1e-12) pr = 0.0;
    sum += pr;
  }
  if (sum > 0.0 && std::isfinite(sum)) normalize_to_sum_one(x);
}

// The workspace slot of a plan solve's right-hand side b = e_{n-1};
// the methods use slots 0-8.
constexpr std::size_t kRhsSlot = 9;

// GMRES or BiCGStab on the plan's system, with b = e_{n-1}, from the
// uniform distribution, preconditioned as options.precond asks.
KrylovResult solve_stationary(KrylovPlan& plan, const KrylovOptions& options,
                              bool use_gmres) {
  const std::size_t n = plan.rows();
  if (n == 0) {
    throw std::invalid_argument("Krylov plan solve: the plan has no layout");
  }
  std::optional<SolveWorkspace> local_ws;
  SolveWorkspace& ws =
      options.workspace != nullptr ? *options.workspace : local_ws.emplace();
  plan.factor(options.precond);
  Vector& b = ws.sparse_vec(kRhsSlot, n);
  b[n - 1] = 1.0;
  Vector x0(n, 1.0 / static_cast<double>(n));
  KrylovResult result =
      use_gmres ? run_gmres(plan, b, std::move(x0), options, ws)
                : run_bicgstab(plan, b, std::move(x0), options, ws);
  clamp_and_normalize(result.x);
  return result;
}

}  // namespace

KrylovResult gmres_stationary(KrylovPlan& plan, const KrylovOptions& options) {
  return solve_stationary(plan, options, /*use_gmres=*/true);
}

KrylovResult bicgstab_stationary(KrylovPlan& plan,
                                 const KrylovOptions& options) {
  return solve_stationary(plan, options, /*use_gmres=*/false);
}

}  // namespace rascal::linalg
