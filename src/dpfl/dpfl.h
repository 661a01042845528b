// Umbrella header for the DPFL functional-language baseline.
#pragma once

#include "dpfl/farray.h"
#include "dpfl/fn.h"

namespace skil::dpfl {

/// Human-readable identification of the baseline.
const char* baseline_name();

}  // namespace skil::dpfl
