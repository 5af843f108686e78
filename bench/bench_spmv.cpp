// CSR sparse matrix-vector microbenchmarks: uniformization and the
// reference iterative solvers spend their time in left_multiply_into,
// so its inner loop and the Ctmc's CSR assembly are timed here.
// google-benchmark binary.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <utility>
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
  std::vector<std::size_t> row_ptr{0};
  std::vector<std::size_t> col_idx;
  std::vector<double> values;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t first = col_idx.size();
    std::size_t diagonal = first;
    double off_sum = 0.0;
    for (std::size_t j = i > 2 ? i - 2 : 0; j < std::min(n, i + 3); ++j) {
      col_idx.push_back(j);
      if (j == i) {
        diagonal = values.size();
        values.push_back(0.0);
        continue;
      }
      const double rate =
          1.0 + static_cast<double>((i * 7 + j * 3) % 5);
      values.push_back(rate);
      off_sum += rate;
    }
    values[diagonal] = -off_sum;
    row_ptr.push_back(col_idx.size());
  }
  return linalg::CsrMatrix::from_parts(n, n, std::move(row_ptr),
                                       std::move(col_idx), std::move(values));
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

// The AS chain matvec that uniformization runs.
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

// CSR assembly straight from a Ctmc's sorted transitions.
void BM_SparseGeneratorBuild(benchmark::State& state) {
  const auto chain = as_chain(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.sparse_generator());
  }
  state.counters["states"] = static_cast<double>(chain.num_states());
}
BENCHMARK(BM_SparseGeneratorBuild)->Arg(4)->Arg(8)->Arg(10);

}  // namespace

BENCHMARK_MAIN();
