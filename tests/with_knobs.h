// Scoped process-wide knob defaults for the tests: each with_* helper
// runs `fn` with one default set, restoring the previous default
// afterwards.
#pragma once

#include "parix/charge_tape.h"
#include "parix/coll.h"
#include "parix/executor.h"
#include "parix/runtime.h"

namespace skil::testing {

template <class Fn>
auto with_engine(parix::ExecutionEngine engine, Fn&& fn) {
  const parix::ExecutionEngine saved = parix::default_execution_engine();
  parix::set_default_execution_engine(engine);
  auto result = fn();
  parix::set_default_execution_engine(saved);
  return result;
}

template <class Fn>
auto with_fuse_mode(parix::FuseMode mode, Fn&& fn) {
  const parix::FuseMode saved = parix::default_fuse_mode();
  parix::set_default_fuse_mode(mode);
  auto result = fn();
  parix::set_default_fuse_mode(saved);
  return result;
}

template <class Fn>
auto with_coll_mode(parix::CollMode mode, Fn&& fn) {
  const parix::CollMode saved = parix::default_coll_mode();
  parix::set_default_coll_mode(mode);
  auto result = fn();
  parix::set_default_coll_mode(saved);
  return result;
}

/// Runs `fn` with the pooled engine pinned to `n` carriers, restoring
/// the env-resolved default afterwards, also when `fn` throws.
template <class Fn>
auto with_carriers(int n, Fn&& fn) {
  struct Restore {
    ~Restore() { parix::executor_set_carriers(0); }
  };
  parix::executor_set_carriers(n);
  const Restore restore;
  return fn();
}

}  // namespace skil::testing
