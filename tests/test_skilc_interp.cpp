// The reference interpreter as the oracle for translation by
// instantiation (paper section 2.4).  The paper's own .skil programs
// are compiled, their first-order monomorphic output runs in
// skilc::run_function, and the results must match, bit for bit, what
// the runtime library's skeletons compute for the same program under
// spmd_run (p = 4) on both execution engines.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "parix/runtime.h"
#include "skil/skil.h"
#include "skilc/compiler.h"
#include "skilc/interp.h"
#include "with_knobs.h"

namespace {

using namespace skil;
using parix::CostModel;
using parix::ExecutionEngine;
using parix::Proc;
using parix::RunConfig;
using skilc::Value;
using skil::testing::with_engine;

constexpr int kProcs = 4;

skilc::CompileResult compile_example(const std::string& name) {
  std::ifstream in(std::string(SKIL_EXAMPLE_DIR) + "/" + name);
  EXPECT_TRUE(static_cast<bool>(in)) << "cannot read " << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return skilc::compile(buffer.str());
}

template <class T>
Value array_of(const std::vector<T>& values) {
  std::vector<Value> elems;
  elems.reserve(values.size());
  for (T v : values)
    elems.push_back(std::is_floating_point_v<T>
                        ? Value::of_float(static_cast<double>(v))
                        : Value::of_int(static_cast<long>(v)));
  return Value::of_array(std::move(elems));
}

// The C++ counterparts of the customizing functions in the .skil
// sources; Skil's float is the interpreter's double.
int above_thresh(double thresh, double elem, Index) {
  return elem >= thresh ? 1 : 0;
}
double scale_by(double factor, double elem, Index) { return factor * elem; }

class SkilcInterp : public ::testing::TestWithParam<ExecutionEngine> {};

// examples/skil/paper_map.skil:
//   void threshold_all (float t, array <float> A, array <int> B) {
//     array_map(above_thresh(t), A, B);
//   }
TEST_P(SkilcInterp, ThresholdAllMatchesArrayMap) {
  const skilc::CompileResult compiled = compile_example("paper_map.skil");

  const int n = 22;
  const double t = 1.5;
  std::vector<double> xs(n);
  for (int i = 0; i < n; ++i) xs[i] = 0.5 * (i - 6);
  // xs[9] == t exactly: a `>=` that became `>` would flip that bit.
  ASSERT_EQ(xs[9], t);

  // Arrays pass by reference (C semantics): the call fills b_interp.
  Value b_interp = array_of(std::vector<int>(n, 0));
  skilc::run_function(compiled.instantiated, "threshold_all",
                      {Value::of_float(t), array_of(xs), b_interp});

  std::vector<int> b_engine;
  with_engine(GetParam(), [&] {
    return parix::spmd_run(RunConfig{kProcs, CostModel::t800()},
                           [&](Proc& proc) {
      auto a = array_create<double>(
          proc, 1, Size{n},
          [&](Index ix) { return xs[static_cast<std::size_t>(ix[0])]; });
      auto b = array_create<int>(proc, 1, Size{n}, [](Index) { return 0; });
      array_map(partial(above_thresh, t), a, b);
      const std::vector<int> gathered = array_gather_all(b);
      if (proc.id() == 0) b_engine = gathered;
    });
  });

  ASSERT_EQ(b_engine.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(b_engine[9], 1);
  EXPECT_EQ(b_engine[8], 0);
  EXPECT_TRUE(skilc::value_bits_equal(b_interp, array_of(b_engine)));
}

// examples/skil/fold_sum.skil:
//   float weighted_sum (float w, array <float> xs, array <float> tmp) {
//     array_map(scale_by(w), xs, tmp);
//     return fold((+), tmp);
//   }
// The library folds as a tree and the Skil source left to right, so
// the inputs are exact in binary (integers times 0.5) and every
// partial sum is exact: any order gives the same bits.
TEST_P(SkilcInterp, WeightedSumMatchesArrayMapThenArrayFold) {
  const skilc::CompileResult compiled = compile_example("fold_sum.skil");

  const int n = 26;
  const double w = 1.5;
  std::vector<double> xs(n);
  for (int i = 0; i < n; ++i) xs[i] = 0.5 * (3 * i - 17);

  Value tmp_interp = array_of(std::vector<double>(n, 0.0));
  const Value sum_interp =
      skilc::run_function(compiled.instantiated, "weighted_sum",
                          {Value::of_float(w), array_of(xs), tmp_interp});

  std::vector<double> tmp_engine;
  double sum_engine = 0.0;
  with_engine(GetParam(), [&] {
    return parix::spmd_run(RunConfig{kProcs, CostModel::t800()},
                           [&](Proc& proc) {
      auto a = array_create<double>(
          proc, 1, Size{n},
          [&](Index ix) { return xs[static_cast<std::size_t>(ix[0])]; });
      auto tmp =
          array_create<double>(proc, 1, Size{n}, [](Index) { return 0.0; });
      array_map(partial(scale_by, w), a, tmp);
      const double sum =
          array_fold([](double v, Index) { return v; }, fn::plus, tmp);
      const std::vector<double> gathered = array_gather_all(tmp);
      if (proc.id() != 0) return;
      sum_engine = sum;
      tmp_engine = gathered;
    });
  });

  EXPECT_TRUE(skilc::value_bits_equal(tmp_interp, array_of(tmp_engine)));
  EXPECT_TRUE(
      skilc::value_bits_equal(sum_interp, Value::of_float(sum_engine)));
  EXPECT_NE(sum_engine, 0.0);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, SkilcInterp,
                         ::testing::Values(ExecutionEngine::kThreads,
                                           ExecutionEngine::kPooled),
                         [](const auto& info) {
                           return info.param == ExecutionEngine::kThreads
                                      ? "threads"
                                      : "pooled";
                         });

}  // namespace
