// Sparse Krylov engine microbenchmarks: GMRES(m) and BiCGStab
// stationary solves on the k-of-n replicated-AS family, the ILU(0)
// factorization, and the dense GTH comparison point at the largest
// size where a dense Matrix is still reasonable.  google-benchmark
// binary.
//
// Each benchmark lays its Krylov plan out once, before the timed loop,
// as an uncertainty worker does for the draws of one model: an
// iteration of a stationary benchmark is what a draw runs after its
// rates are scattered, the numeric factorization and the method.
#include <benchmark/benchmark.h>

#include <cstddef>

#include "linalg/gth.h"
#include "linalg/krylov.h"
#include "linalg/krylov_plan.h"
#include "linalg/precond.h"
#include "linalg/workspace.h"
#include "models/kofn_as.h"

namespace {

using namespace rascal;

models::KofnAsConfig config_for(std::size_t nodes) {
  models::KofnAsConfig config;
  config.nodes = nodes;
  config.quorum = (2 * nodes + 2) / 3;  // two-thirds quorum
  config.repair_crews = 2;
  return config;
}

models::KofnAsSparseModel model_for(const benchmark::State& state) {
  return models::kofn_as_sparse_model(
      config_for(static_cast<std::size_t>(state.range(0))));
}

using StationarySolver = linalg::KrylovResult (*)(
    linalg::KrylovPlan&, const linalg::KrylovOptions&);

// One stationary solve per iteration on a plan laid out and factored
// once (so the symbolic ILU(0) pass stays outside the loop).
void run_stationary(benchmark::State& state, StationarySolver solve,
                    linalg::PrecondKind precond) {
  const auto model = model_for(state);
  linalg::SolveWorkspace workspace;
  linalg::KrylovPlan& plan = workspace.krylov_plan();
  plan.layout(0, model.generator);
  plan.factor(precond);
  linalg::KrylovOptions options;
  options.precond = precond;
  options.workspace = &workspace;
  for (auto _ : state) {
    auto result = solve(plan, options);
    benchmark::DoNotOptimize(result.x.data());
    if (!result.converged) state.SkipWithError("solve did not converge");
  }
  state.counters["states"] = static_cast<double>(model.generator.rows());
  state.counters["nnz"] = static_cast<double>(model.generator.non_zeros());
}

// 3^6 = 729, 3^8 = 6561, 3^10 = 59049 states.
void BM_GmresIlu0Stationary(benchmark::State& state) {
  run_stationary(state, linalg::gmres_stationary, linalg::PrecondKind::kIlu0);
}
BENCHMARK(BM_GmresIlu0Stationary)->Arg(6)->Arg(8)->Arg(10)
    ->Unit(benchmark::kMicrosecond);

void BM_GmresJacobiStationary(benchmark::State& state) {
  run_stationary(state, linalg::gmres_stationary,
                 linalg::PrecondKind::kJacobi);
}
BENCHMARK(BM_GmresJacobiStationary)->Arg(6)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

void BM_BiCgStabIlu0Stationary(benchmark::State& state) {
  run_stationary(state, linalg::bicgstab_stationary,
                 linalg::PrecondKind::kIlu0);
}
BENCHMARK(BM_BiCgStabIlu0Stationary)->Arg(6)->Arg(8)->Arg(10)
    ->Unit(benchmark::kMicrosecond);

// The numeric ILU(0) pass a draw runs: the recorded updates replayed
// on the plan's values.
void BM_Ilu0Factorization(benchmark::State& state) {
  const auto model = model_for(state);
  linalg::KrylovPlan plan;
  plan.layout(0, model.generator);
  plan.factor(linalg::PrecondKind::kIlu0);  // the symbolic pass
  for (auto _ : state) {
    plan.factor(linalg::PrecondKind::kIlu0);
    benchmark::ClobberMemory();
  }
  state.counters["nnz"] = static_cast<double>(plan.values().size());
}
BENCHMARK(BM_Ilu0Factorization)->Arg(6)->Arg(8)->Arg(10)
    ->Unit(benchmark::kMicrosecond);

// The symbolic ILU(0) pass a plan runs once per pattern.
void BM_Ilu0Analyze(benchmark::State& state) {
  const auto model = model_for(state);
  linalg::KrylovPlan plan;
  plan.layout(0, model.generator);
  linalg::Ilu0Factors ilu;
  for (auto _ : state) {
    ilu.analyze(plan.pattern());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Ilu0Analyze)->Arg(6)->Arg(8)->Arg(10)
    ->Unit(benchmark::kMicrosecond);

// The dense comparison point the sparse engine replaces: GTH on the
// 729-state tier (already ~4.3 MB of Matrix; 3^10 would be 28 GB).
void BM_DenseGthStationary(benchmark::State& state) {
  const auto config = config_for(static_cast<std::size_t>(state.range(0)));
  const linalg::Matrix q = models::kofn_as_model(config).generator();
  for (auto _ : state) {
    auto pi = linalg::gth_stationary(q);
    benchmark::DoNotOptimize(pi.data());
  }
}
BENCHMARK(BM_DenseGthStationary)->Arg(6)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
