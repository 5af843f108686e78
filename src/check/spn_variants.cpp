#include "check/spn_variants.h"

#include <cmath>

namespace rascal::check {

namespace {

// Fixed place layout for the HADB pair net.
enum HadbPlace : std::size_t {
  kNodesOk = 0,
  kNodeRestartShort,
  kNodeRestartLong,
  kNodeRepair,
  kNodeMnt,
  kPairDown,
};

// Fixed place layout for the AS cluster net.
enum AsPlace : std::size_t {
  kInstUp = 0,
  kInstRecovering,
  kInstShort,
  kInstLong,
  kClusterDown,
};

}  // namespace

spn::PetriNet hadb_pair_spn(const expr::ParameterSet& params) {
  const double la_hadb = params.get("hadb_La_hadb");
  const double la_os = params.get("hadb_La_os");
  const double la_hw = params.get("hadb_La_hw");
  const double la = la_hadb + la_os + la_hw;
  const double la_mnt = params.get("hadb_La_mnt");
  const double fir = params.get("hadb_FIR");
  const double acc = params.get("Acc");

  spn::PetriNet net;
  const spn::PlaceId ok = net.add_place("NodesOk", 2);
  const spn::PlaceId rs = net.add_place("NodeRestartShort");
  const spn::PlaceId rl = net.add_place("NodeRestartLong");
  const spn::PlaceId rep = net.add_place("NodeRepair");
  const spn::PlaceId mnt = net.add_place("NodeMnt");
  const spn::PlaceId down = net.add_place("PairDown");

  const auto both_ok = [ok](const spn::Marking& m) { return m[ok] == 2; };

  // First failure of either node, branched by failure class; only
  // fires from the fully mirrored marking.
  struct FirstFailure {
    const char* name;
    double class_rate;
    spn::PlaceId recovery_place;
  };
  for (const FirstFailure& f :
       {FirstFailure{"fail_hadb", la_hadb, rs},
        FirstFailure{"fail_os", la_os, rl},
        FirstFailure{"fail_hw", la_hw, rep}}) {
    const spn::TransitionId t =
        net.add_timed_transition(f.name, 2.0 * f.class_rate * (1.0 - fir));
    net.input_arc(t, ok).output_arc(t, f.recovery_place).set_guard(t,
                                                                   both_ok);
  }

  // Imperfect recovery takes both nodes down at once.
  if (fir > 0.0) {
    const spn::TransitionId t =
        net.add_timed_transition("imperfect_recovery", 2.0 * la * fir);
    net.input_arc(t, ok, 2).output_arc(t, down);
  }

  // Scheduled maintenance switchover (pair-level).
  {
    const spn::TransitionId t =
        net.add_timed_transition("maintenance_start", la_mnt);
    net.input_arc(t, ok).output_arc(t, mnt).set_guard(t, both_ok);
  }

  // Second failure of the surviving (accelerated) node while the
  // companion is in any recovery state.
  for (const auto& [name, place] :
       {std::pair{"second_fail_rs", rs}, std::pair{"second_fail_rl", rl},
        std::pair{"second_fail_rep", rep},
        std::pair{"second_fail_mnt", mnt}}) {
    const spn::TransitionId t = net.add_timed_transition(name, acc * la);
    net.input_arc(t, ok).input_arc(t, place).output_arc(t, down);
  }

  // Recovery completions.
  const auto completion = [&](const char* name, spn::PlaceId place,
                              double mean_time) {
    const spn::TransitionId t =
        net.add_timed_transition(name, 1.0 / mean_time);
    net.input_arc(t, place).output_arc(t, ok);
  };
  completion("restart_short_done", rs, params.get("hadb_Tstart_short"));
  completion("restart_long_done", rl, params.get("hadb_Tstart_long"));
  completion("repair_done", rep, params.get("hadb_Trepair"));
  completion("maintenance_done", mnt, params.get("hadb_Tmnt"));

  // Manual restore rebuilds the whole pair.
  {
    const spn::TransitionId t = net.add_timed_transition(
        "restore", 1.0 / params.get("hadb_Trestore"));
    net.input_arc(t, down).output_arc(t, ok, 2);
  }
  return net;
}

spn::RewardFunction hadb_pair_spn_reward() {
  return [](const spn::Marking& m) {
    return m[kPairDown] == 0 ? 1.0 : 0.0;
  };
}

spn::PetriNet app_server_spn(std::size_t instances,
                             const expr::ParameterSet& params) {
  if (instances < 2) {
    throw std::invalid_argument("app_server_spn: requires >= 2 instances");
  }
  const double la = params.get("as_La_as") + params.get("as_La_os") +
                    params.get("as_La_hw");
  const double fss = params.get("as_La_as") / la;
  const double acc = params.get("Acc");
  const double trecovery = params.get("as_Trecovery");
  const auto n = static_cast<std::uint32_t>(instances);

  spn::PetriNet net;
  const spn::PlaceId up = net.add_place("InstUp", n);
  const spn::PlaceId rec = net.add_place("InstRecovering");
  const spn::PlaceId sht = net.add_place("InstShort");
  const spn::PlaceId lng = net.add_place("InstLong");
  const spn::PlaceId down = net.add_place("ClusterDown");

  const double dn = static_cast<double>(n);

  // Workload-accelerated failure of one of the up instances (at least
  // one other instance remains serving).
  {
    const spn::TransitionId t = net.add_timed_transition(
        "fail", [up, la, acc, dn](const spn::Marking& m) {
          const double up_count = m[up];
          if (up_count < 2.0) return 0.0;
          return up_count * la * std::pow(acc, dn - up_count);
        });
    net.input_arc(t, up).output_arc(t, rec);
  }
  // Failure of the last serving instance: the cluster is down; any
  // in-flight restarts are abandoned (flushed by the immediates).
  {
    const spn::TransitionId t = net.add_timed_transition(
        "last_fail", [up, la, acc, dn](const spn::Marking& m) {
          return m[up] == 1 ? la * std::pow(acc, dn - 1.0) : 0.0;
        });
    net.input_arc(t, up).output_arc(t, down);
  }
  // Vanishing flush of abandoned recoveries once the cluster is down.
  for (const auto& [name, place] :
       {std::pair{"drain_recovering", rec}, std::pair{"drain_short", sht},
        std::pair{"drain_long", lng}}) {
    const spn::TransitionId t = net.add_immediate_transition(name);
    net.input_arc(t, place);
    net.set_guard(t, [down](const spn::Marking& m) { return m[down] > 0; });
  }

  // Session recovery completes; the instance restarts short or long.
  {
    const spn::TransitionId t = net.add_timed_transition(
        "recovery_done_short", [rec, fss, trecovery](const spn::Marking& m) {
          return static_cast<double>(m[rec]) * fss / trecovery;
        });
    net.input_arc(t, rec).output_arc(t, sht);
  }
  {
    const spn::TransitionId t = net.add_timed_transition(
        "recovery_done_long", [rec, fss, trecovery](const spn::Marking& m) {
          return static_cast<double>(m[rec]) * (1.0 - fss) / trecovery;
        });
    net.input_arc(t, rec).output_arc(t, lng);
  }
  {
    const double tstart_short = params.get("as_Tstart_short");
    const spn::TransitionId t = net.add_timed_transition(
        "short_done", [sht, tstart_short](const spn::Marking& m) {
          return static_cast<double>(m[sht]) / tstart_short;
        });
    net.input_arc(t, sht).output_arc(t, up);
  }
  {
    const double tstart_long = params.get("as_Tstart_long");
    const spn::TransitionId t = net.add_timed_transition(
        "long_done", [lng, tstart_long](const spn::Marking& m) {
          return static_cast<double>(m[lng]) / tstart_long;
        });
    net.input_arc(t, lng).output_arc(t, up);
  }
  // Manual whole-cluster restart.
  {
    const spn::TransitionId t = net.add_timed_transition(
        "restore_all", 1.0 / params.get("as_Tstart_all"));
    net.input_arc(t, down).output_arc(t, up, n);
  }
  return net;
}

spn::RewardFunction app_server_spn_reward() {
  return [](const spn::Marking& m) {
    return m[kClusterDown] == 0 ? 1.0 : 0.0;
  };
}

}  // namespace rascal::check
