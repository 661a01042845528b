// Text dashboard for the SKIL_PROF scheduler report.
//
// Renders the `scheduler` object of a metrics JSON file (plus the
// `settlement` object when present) as the skil-prof CLI's dashboard:
// per-carrier utilization, steal success rate, settlement coverage and
// pool hit rate.  The output is fully deterministic for a given input
// -- tests pin it byte-exactly against a fixture.
#pragma once

#include <ostream>

#include "support/json.h"

namespace skil::parix {

/// Renders the dashboard; throws ContractError when `metrics` carries
/// no scheduler object (the run was SKIL_PROF=off).
void render_prof_report(const support::json::Value& metrics,
                        std::ostream& out);

}  // namespace skil::parix
