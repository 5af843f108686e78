// CSR sparse matrix-vector microbenchmarks (ISSUE 6): the iterative
// solvers and uniformization spend their time in left_multiply_into,
// so its inner loop and the CSR construction paths are tracked in the
// BENCH_spmv.json trajectory.  google-benchmark binary.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "ctmc/ctmc.h"
#include "linalg/sparse.h"
#include "models/app_server.h"
#include "models/params.h"

namespace {

using namespace rascal;

ctmc::Ctmc as_chain(std::size_t n) {
  return models::app_server_n_instance_model(n).bind(
      models::default_parameters());
}

// Synthetic banded generator-like matrix: n states, bandwidth 5, the
// sparsity regime of lumped availability chains at fleet scale.
linalg::CsrMatrix banded(std::size_t n) {
  std::vector<linalg::Triplet> triplets;
  for (std::size_t i = 0; i < n; ++i) {
    double off_sum = 0.0;
    for (std::size_t j = i > 2 ? i - 2 : 0; j < std::min(n, i + 3); ++j) {
      if (j == i) continue;
      const double rate =
          1.0 + static_cast<double>((i * 7 + j * 3) % 5);
      triplets.push_back({i, j, rate});
      off_sum += rate;
    }
    triplets.push_back({i, i, -off_sum});
  }
  return {n, n, triplets};
}

void BM_CsrLeftMultiply(benchmark::State& state) {
  const auto q = banded(static_cast<std::size_t>(state.range(0)));
  const linalg::Vector x(q.rows(), 1.0 / static_cast<double>(q.rows()));
  linalg::Vector y;
  for (auto _ : state) {
    q.left_multiply_into(x, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.counters["nnz"] = static_cast<double>(q.non_zeros());
}
BENCHMARK(BM_CsrLeftMultiply)->Arg(64)->Arg(512)->Arg(4096);

void BM_CsrMultiply(benchmark::State& state) {
  const auto q = banded(static_cast<std::size_t>(state.range(0)));
  const linalg::Vector x(q.cols(), 1.0);
  linalg::Vector y;
  for (auto _ : state) {
    q.multiply_into(x, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.counters["nnz"] = static_cast<double>(q.non_zeros());
}
BENCHMARK(BM_CsrMultiply)->Arg(64)->Arg(512)->Arg(4096);

// The AS chain matvec that power iteration and uniformization run.
void BM_CsrLeftMultiplyAsChain(benchmark::State& state) {
  const auto chain = as_chain(static_cast<std::size_t>(state.range(0)));
  const auto q = chain.sparse_generator();
  const linalg::Vector x(q.rows(), 1.0 / static_cast<double>(q.rows()));
  linalg::Vector y;
  for (auto _ : state) {
    q.left_multiply_into(x, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.counters["states"] = static_cast<double>(q.rows());
}
BENCHMARK(BM_CsrLeftMultiplyAsChain)->Arg(4)->Arg(8)->Arg(10);

// CSR-native construction from Ctmc transitions (no triplet
// materialization) vs the generic counting-sort triplet path.
void BM_SparseGeneratorBuild(benchmark::State& state) {
  const auto chain = as_chain(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.sparse_generator());
  }
  state.counters["states"] = static_cast<double>(chain.num_states());
}
BENCHMARK(BM_SparseGeneratorBuild)->Arg(4)->Arg(8)->Arg(10);

void BM_CsrFromTriplets(benchmark::State& state) {
  const auto q = banded(static_cast<std::size_t>(state.range(0)));
  std::vector<linalg::Triplet> triplets;
  for (std::size_t r = 0; r < q.rows(); ++r) {
    for (const auto& [col, value] : q.row(r)) {
      triplets.push_back({r, col, value});
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        linalg::CsrMatrix(q.rows(), q.cols(), triplets));
  }
  state.counters["nnz"] = static_cast<double>(q.non_zeros());
}
BENCHMARK(BM_CsrFromTriplets)->Arg(64)->Arg(512)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
