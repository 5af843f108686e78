#include "ctmc/lumping.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace rascal::ctmc {

namespace {

// block_of[state] = block index; validates coverage.
std::vector<std::size_t> block_index(const Ctmc& chain,
                                     const Partition& partition) {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> block_of(chain.num_states(), kNone);
  for (std::size_t b = 0; b < partition.size(); ++b) {
    for (StateId s : partition[b]) {
      if (s >= chain.num_states()) {
        throw std::invalid_argument("lumping: state id out of range");
      }
      if (block_of[s] != kNone) {
        throw std::invalid_argument("lumping: state '" +
                                    chain.state_name(s) +
                                    "' appears in two blocks");
      }
      block_of[s] = b;
    }
  }
  for (StateId s = 0; s < chain.num_states(); ++s) {
    if (block_of[s] == kNone) {
      throw std::invalid_argument("lumping: state '" + chain.state_name(s) +
                                  "' not covered by the partition");
    }
  }
  return block_of;
}

// Aggregate rate vector of `s` toward each block (excluding s's own
// block, whose internal flow is irrelevant to lumpability).
std::vector<double> aggregate_rates(const Ctmc& chain, StateId s,
                                    const std::vector<std::size_t>& block_of,
                                    std::size_t num_blocks) {
  std::vector<double> rates(num_blocks, 0.0);
  for (const Transition& t : chain.transitions()) {
    if (t.from != s) continue;
    if (block_of[t.to] == block_of[s]) continue;
    rates[block_of[t.to]] += t.rate;
  }
  return rates;
}

}  // namespace

bool is_lumpable(const Ctmc& chain, const Partition& partition,
                 double tolerance, std::string* violation) {
  const auto block_of = block_index(chain, partition);
  for (std::size_t b = 0; b < partition.size(); ++b) {
    if (partition[b].empty()) continue;
    const auto reference =
        aggregate_rates(chain, partition[b][0], block_of, partition.size());
    for (std::size_t i = 1; i < partition[b].size(); ++i) {
      const auto rates =
          aggregate_rates(chain, partition[b][i], block_of, partition.size());
      for (std::size_t j = 0; j < partition.size(); ++j) {
        const double scale =
            std::max({std::abs(reference[j]), std::abs(rates[j]), 1e-300});
        if (std::abs(reference[j] - rates[j]) > tolerance * scale) {
          if (violation != nullptr) {
            *violation = "states '" + chain.state_name(partition[b][0]) +
                         "' and '" + chain.state_name(partition[b][i]) +
                         "' disagree on the aggregate rate into block " +
                         std::to_string(j);
          }
          return false;
        }
      }
    }
  }
  return true;
}

Partition coarsest_ordinary_lumping(const Ctmc& chain, double tolerance) {
  // Start from reward classes, then refine: states stay together only
  // while their aggregate rates toward every current block agree.
  std::vector<std::size_t> block_of(chain.num_states());
  {
    std::map<double, std::size_t> reward_class;
    for (StateId s = 0; s < chain.num_states(); ++s) {
      block_of[s] = reward_class.try_emplace(chain.reward(s),
                                             reward_class.size())
                        .first->second;
    }
  }

  for (bool changed = true; changed;) {
    changed = false;
    const std::size_t num_blocks =
        *std::max_element(block_of.begin(), block_of.end()) + 1;

    // Aggregate rates of every state toward every block.
    std::vector<std::vector<double>> rates(chain.num_states());
    for (StateId s = 0; s < chain.num_states(); ++s) {
      rates[s] = aggregate_rates(chain, s, block_of, num_blocks);
    }

    // For each target block, cluster the observed rates within the
    // relative tolerance; a state's signature is its current block
    // plus the cluster id of its rate toward every block.
    std::vector<std::vector<std::size_t>> signature(
        chain.num_states(), std::vector<std::size_t>(num_blocks + 1));
    for (StateId s = 0; s < chain.num_states(); ++s) {
      signature[s][0] = block_of[s];
    }
    for (std::size_t j = 0; j < num_blocks; ++j) {
      std::vector<StateId> order(chain.num_states());
      for (StateId s = 0; s < chain.num_states(); ++s) order[s] = s;
      std::sort(order.begin(), order.end(), [&](StateId a, StateId b) {
        return rates[a][j] < rates[b][j];
      });
      std::size_t cluster = 0;
      for (std::size_t i = 0; i < order.size(); ++i) {
        if (i > 0) {
          const double prev = rates[order[i - 1]][j];
          const double curr = rates[order[i]][j];
          const double scale =
              std::max({std::abs(prev), std::abs(curr), 1e-300});
          if (curr - prev > tolerance * scale) ++cluster;
        }
        signature[order[i]][j + 1] = cluster;
      }
    }

    std::map<std::vector<std::size_t>, std::size_t> signature_class;
    std::vector<std::size_t> next(chain.num_states());
    for (StateId s = 0; s < chain.num_states(); ++s) {
      next[s] = signature_class
                    .try_emplace(signature[s], signature_class.size())
                    .first->second;
    }
    if (next != block_of) {
      block_of = std::move(next);
      changed = true;
    }
  }

  const std::size_t num_blocks =
      *std::max_element(block_of.begin(), block_of.end()) + 1;
  Partition partition(num_blocks);
  for (StateId s = 0; s < chain.num_states(); ++s) {
    partition[block_of[s]].push_back(s);
  }
  // The refinement uses quantized signatures; re-verify exactly and
  // fall back to splitting any offending block into singletons.
  std::string violation;
  if (!is_lumpable(chain, partition, tolerance, &violation)) {
    Partition singletons(chain.num_states());
    for (StateId s = 0; s < chain.num_states(); ++s) {
      singletons[s].push_back(s);
    }
    return singletons;
  }
  return partition;
}

}  // namespace rascal::ctmc
