#include "models/app_server.h"

#include <functional>
#include <stdexcept>
#include <string>

namespace rascal::models {

namespace {

const std::string kLa = "(as_La_as+as_La_os+as_La_hw)";
// Branching probabilities after session recovery: fraction of short
// (process-level) restarts vs long (HW/OS) restarts.
const std::string kFss = "(as_La_as/" + kLa + ")";
const std::string kFls = "((as_La_os+as_La_hw)/" + kLa + ")";

std::string occupancy_name(std::size_t r, std::size_t s, std::size_t l) {
  if (r == 0 && s == 0 && l == 0) return "All_Work";
  return "d" + std::to_string(r + s + l) + "r" + std::to_string(r) + "s" +
         std::to_string(s) + "l" + std::to_string(l);
}

}  // namespace

ctmc::SymbolicCtmc app_server_two_instance_model() {
  ctmc::SymbolicCtmc m;
  m.state("All_Work", 1.0);
  m.state("Recovery", 1.0);
  m.state("1DownShort", 1.0);
  m.state("1DownLong", 1.0);
  m.state("2_Down", 0.0);

  // First failure on either instance; sessions fail over.
  m.rate("All_Work", "Recovery", "2*" + kLa);
  // Session recovery completes; the failed instance restarts via the
  // short path (AS failure) or long path (HW/OS failure).
  m.rate("Recovery", "1DownShort", kFss + "/as_Trecovery");
  m.rate("Recovery", "1DownLong", kFls + "/as_Trecovery");
  m.rate("1DownShort", "All_Work", "1/as_Tstart_short");
  m.rate("1DownLong", "All_Work", "1/as_Tstart_long");
  // Second failure on the surviving, workload-accelerated instance.
  m.rate("Recovery", "2_Down", "Acc*" + kLa);
  m.rate("1DownShort", "2_Down", "Acc*" + kLa);
  m.rate("1DownLong", "2_Down", "Acc*" + kLa);
  // Manual restart of the whole cluster.
  m.rate("2_Down", "All_Work", "1/as_Tstart_all");
  return m;
}

namespace {

// Occupancy-state reward as a function of (recovering, short, long)
// counts; the total instance count is baked into the callback.
using OccupancyReward =
    std::function<double(std::size_t r, std::size_t s, std::size_t l)>;

ctmc::SymbolicCtmc build_n_instance_model(std::size_t n,
                                          const OccupancyReward& reward) {
  ctmc::SymbolicCtmc m;
  // Declare all occupancy states (r, s, l) with r + s + l <= n - 1.
  for (std::size_t d = 0; d <= n - 1; ++d) {
    for (std::size_t r = 0; r <= d; ++r) {
      for (std::size_t s = 0; s + r <= d; ++s) {
        const std::size_t l = d - r - s;
        m.state(occupancy_name(r, s, l), reward(r, s, l));
      }
    }
  }
  m.state("All_Down", 0.0);

  for (std::size_t d = 0; d <= n - 1; ++d) {
    for (std::size_t r = 0; r <= d; ++r) {
      for (std::size_t s = 0; s + r <= d; ++s) {
        const std::size_t l = d - r - s;
        const std::string here = occupancy_name(r, s, l);
        const std::size_t up = n - d;

        // Next failure: each of the `up` instances fails at the
        // workload-accelerated rate La * Acc^d.
        const std::string fail_rate =
            std::to_string(up) + "*" + kLa + "*Acc^" + std::to_string(d);
        const std::string fail_target =
            (d + 1 <= n - 1) ? occupancy_name(r + 1, s, l) : "All_Down";
        m.rate(here, fail_target, fail_rate);

        // Session recovery completes for one of the r recovering
        // instances, which then enters short or long restart.
        if (r > 0) {
          const std::string base =
              std::to_string(r) + "/as_Trecovery*";
          m.rate(here, occupancy_name(r - 1, s + 1, l), base + kFss);
          m.rate(here, occupancy_name(r - 1, s, l + 1), base + kFls);
        }
        // Restart completions.
        if (s > 0) {
          m.rate(here, occupancy_name(r, s - 1, l),
                 std::to_string(s) + "/as_Tstart_short");
        }
        if (l > 0) {
          m.rate(here, occupancy_name(r, s, l - 1),
                 std::to_string(l) + "/as_Tstart_long");
        }
      }
    }
  }
  m.rate("All_Down", "All_Work", "1/as_Tstart_all");
  return m;
}

}  // namespace

ctmc::SymbolicCtmc app_server_n_instance_model(std::size_t n,
                                               double recovery_reward) {
  if (n < 2) {
    throw std::invalid_argument(
        "app_server_n_instance_model: requires n >= 2 (use "
        "single_instance_model for n == 1)");
  }
  return build_n_instance_model(
      n, [recovery_reward](std::size_t r, std::size_t, std::size_t) {
        return r > 0 ? recovery_reward : 1.0;
      });
}

ctmc::SymbolicCtmc app_server_capacity_model(std::size_t n) {
  if (n < 2) {
    throw std::invalid_argument(
        "app_server_capacity_model: requires n >= 2");
  }
  return build_n_instance_model(
      n, [n](std::size_t r, std::size_t s, std::size_t l) {
        return static_cast<double>(n - r - s - l) / static_cast<double>(n);
      });
}

}  // namespace rascal::models
