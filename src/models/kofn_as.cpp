#include "models/kofn_as.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace rascal::models {

namespace {

// Per-node local states (base-3 digit of the global state encoding).
constexpr unsigned char kUp = 0;
constexpr unsigned char kRestarting = 1;
constexpr unsigned char kRebuilding = 2;

void validate(const KofnAsConfig& c) {
  if (c.nodes == 0) {
    throw std::invalid_argument("kofn_as: nodes must be >= 1");
  }
  if (c.quorum == 0 || c.quorum > c.nodes) {
    throw std::invalid_argument("kofn_as: quorum must be in [1, nodes]");
  }
  if (c.repair_crews == 0) {
    throw std::invalid_argument("kofn_as: repair_crews must be >= 1");
  }
  if (!(c.failure_rate > 0.0) || !(c.restart_rate > 0.0) ||
      !(c.rebuild_rate > 0.0)) {
    throw std::invalid_argument("kofn_as: rates must be positive");
  }
  if (!(c.restart_coverage >= 0.0) || !(c.restart_coverage <= 1.0)) {
    throw std::invalid_argument(
        "kofn_as: restart_coverage must be in [0, 1]");
  }
  // Keep 3^nodes inside std::size_t with headroom; nodes = 13 is
  // already 1.6M states, far past any practical solve.
  if (c.nodes > 20) {
    throw std::invalid_argument("kofn_as: nodes > 20 is not supported");
  }
}

std::size_t pow3(std::size_t n) {
  std::size_t p = 1;
  for (std::size_t i = 0; i < n; ++i) p *= 3;
  return p;
}

void decode(std::size_t s, std::size_t nodes,
            std::vector<unsigned char>& digits) {
  for (std::size_t i = 0; i < nodes; ++i) {
    digits[i] = static_cast<unsigned char>(s % 3);
    s /= 3;
  }
}

// Enumerates the outgoing transitions of state `s` (digits already
// decoded) in deterministic order: failures by node index, then
// repairs by node index.  Repair crews serve down nodes head-of-line
// by node index, which couples the nodes through the shared pool.
template <typename Emit>
void for_each_transition(const KofnAsConfig& c, std::size_t s,
                         const std::vector<unsigned char>& digits,
                         Emit&& emit) {
  std::size_t stride = 1;
  std::size_t crews_left = c.repair_crews;
  for (std::size_t i = 0; i < c.nodes; ++i, stride *= 3) {
    const unsigned char d = digits[i];
    if (d == kUp) {
      const double to_restart = c.failure_rate * c.restart_coverage;
      const double to_rebuild = c.failure_rate * (1.0 - c.restart_coverage);
      if (to_restart > 0.0) {
        emit(s, s + stride * std::size_t{kRestarting}, to_restart);
      }
      if (to_rebuild > 0.0) {
        emit(s, s + stride * std::size_t{kRebuilding}, to_rebuild);
      }
    } else if (crews_left > 0) {
      --crews_left;
      const double rate = d == kRestarting ? c.restart_rate : c.rebuild_rate;
      emit(s, s - stride * std::size_t{d}, rate);
    }
  }
}

double reward_of(const KofnAsConfig& c,
                 const std::vector<unsigned char>& digits) {
  std::size_t up = 0;
  for (unsigned char d : digits) up += d == kUp ? 1 : 0;
  return up >= c.quorum ? 1.0 : 0.0;
}

}  // namespace

ctmc::Ctmc kofn_as_model(const KofnAsConfig& config) {
  validate(config);
  const std::size_t n = pow3(config.nodes);

  std::vector<ctmc::State> states;
  states.reserve(n);
  std::vector<ctmc::Transition> transitions;
  std::vector<unsigned char> digits(config.nodes, 0);
  std::string name(config.nodes, '0');
  for (std::size_t s = 0; s < n; ++s) {
    decode(s, config.nodes, digits);
    for (std::size_t i = 0; i < config.nodes; ++i) {
      name[i] = static_cast<char>('0' + digits[i]);
    }
    states.push_back({"as:" + name, reward_of(config, digits)});
    for_each_transition(config, s, digits,
                        [&transitions](std::size_t from, std::size_t to,
                                       double rate) {
                          transitions.push_back({from, to, rate});
                        });
  }
  return ctmc::Ctmc(states, transitions);
}

KofnAsSparseModel kofn_as_sparse_model(const KofnAsConfig& config) {
  validate(config);
  const std::size_t n = pow3(config.nodes);

  KofnAsSparseModel out;
  out.rewards.reserve(n);
  // Per state: at most 2 failure edges per Up node plus one repair
  // edge per busy crew, plus the diagonal.
  const std::size_t per_row = 2 * config.nodes / 3 + config.repair_crews + 2;
  std::vector<std::size_t> row_ptr;
  row_ptr.reserve(n + 1);
  row_ptr.push_back(0);
  std::vector<std::size_t> col_idx;
  col_idx.reserve(n * per_row);
  std::vector<double> values;
  values.reserve(n * per_row);
  // Rows come in state order; each row's targets are distinct, so
  // sorting a row by column orders it without merging anything.
  std::vector<std::pair<std::size_t, double>> row;
  std::vector<unsigned char> digits(config.nodes, 0);
  for (std::size_t s = 0; s < n; ++s) {
    decode(s, config.nodes, digits);
    out.rewards.push_back(reward_of(config, digits));
    row.clear();
    double exit = 0.0;
    for_each_transition(config, s, digits,
                        [&row, &exit](std::size_t, std::size_t to,
                                      double rate) {
                          row.emplace_back(to, rate);
                          exit += rate;
                        });
    if (exit != 0.0) row.emplace_back(s, -exit);
    std::sort(row.begin(), row.end());
    for (const auto& [col, value] : row) {
      col_idx.push_back(col);
      values.push_back(value);
    }
    row_ptr.push_back(col_idx.size());
  }
  out.generator = linalg::CsrMatrix::from_parts(
      n, n, std::move(row_ptr), std::move(col_idx), std::move(values));
  return out;
}

}  // namespace rascal::models
