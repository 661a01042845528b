#include "parix/proc.h"

namespace skil::parix {

void Proc::settle_pending() {
  const std::uint64_t pending = ledger_.pending_adds();
  ledger_.settle_algebraic(vtime_, stats_, settle_counters_);
  // Zero-virtual-width span marking the settlement and how many chain
  // adds it retired (full trace mode only, so the spans-mode skeleton
  // summaries stay untouched).  The clock is already settled, so this
  // records at the settled vtime and cannot trigger a recursive settle.
  if (trace_ != nullptr && trace_->full()) [[unlikely]] {
    trace_->span_begin(vtime_, "settle closed",
                       static_cast<std::int64_t>(pending));
    trace_->span_end(vtime_);
  }
}

}  // namespace skil::parix
