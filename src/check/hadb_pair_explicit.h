// Node-identity-explicit variant of the HADB pair model: instead of
// Figure 3's "one node is restarting" states, this chain tracks WHICH
// node (A or B) is in which condition.  It exists to validate the
// paper's aggregation formally: lumping the (A down)/(B down) twins
// must reproduce Figure 3 exactly (see tests/test_lumping.cpp).
//
// States: Ok | {A,B} x {RestartShort, RestartLong, Repair, Maintenance}
// | 2_Down — ten states that lump to Figure 3's six.
#pragma once

#include "ctmc/ctmc.h"
#include "expr/parameter_set.h"

namespace rascal::check {

[[nodiscard]] ctmc::Ctmc hadb_pair_explicit_model(
    const expr::ParameterSet& params);

}  // namespace rascal::check
