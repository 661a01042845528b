// The paper's introductory example: the divide&conquer skeleton and
// quicksort as its instance, using Skil's functional features --
// higher-order functions, currying, partial application and operator
// sections (sections 1 and 2.1).
//
//   d&c is_trivial solve split join problem =
//     if (is_trivial problem) then (solve problem)
//     else (join (map (d&c is_trivial solve split join)
//                     (split problem)))
//
//   quicksort lst = d&c is_simple ident divide concat lst
//
// The skeleton here is the *functional specification* from the paper's
// introduction (the data-parallel array skeletons are the library's
// parallel core); this example shows that the host-language features
// carry over: the same d&c, reused for quicksort and for a maximum
// computation, via curry and partial application.
//
//     ./quicksort_dc [--elems=24] [--seed=5]
#include <cstdio>
#include <functional>
#include <vector>

#include "skil/functional.h"
#include "support/cli.h"
#include "support/error.h"
#include "support/rng.h"

namespace {

using List = std::vector<int>;

/// The d&c skeleton: a higher-order function with four functional
/// arguments, exactly as typed in the paper:
///   (a->Bool) -> (a->b) -> (a->[a]) -> ([b]->b) -> a -> b
template <class IsTrivial, class Solve, class Split, class Join>
auto d_and_c(IsTrivial is_trivial, Solve solve, Split split, Join join,
             const List& problem) -> decltype(solve(problem)) {
  if (is_trivial(problem)) return solve(problem);
  std::vector<decltype(solve(problem))> solutions;
  for (const List& sub : split(problem))
    // The recursive call is the paper's partial application of d&c to
    // its four customizing functions.
    solutions.push_back(d_and_c(is_trivial, solve, split, join, sub));
  return join(solutions);
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace skil;
  const support::Cli cli(argc, argv, {"elems", "seed"});
  const int elems = cli.count("elems", 24);
  support::Rng rng(cli.get_int("seed", 5));

  List input;
  for (int i = 0; i < elems; ++i) input.push_back(rng.next_int(0, 99));

  // quicksort = d&c is_simple ident divide concat
  auto is_simple = [](const List& l) { return l.size() <= 1; };
  auto ident = [](const List& l) { return l; };
  auto divide = [](const List& l) {
    // The paper's divide: "the elements that are smaller than a given
    // pivot element, the pivot element itself, and the elements
    // greater or equal" -- only one pivot occurrence goes into the
    // middle list, so every sublist is strictly smaller than l.
    const int pivot = l.front();
    List below, mid{pivot}, above;
    for (std::size_t i = 1; i < l.size(); ++i)
      (l[i] < pivot ? below : above).push_back(l[i]);
    return std::vector<List>{below, mid, above};
  };
  auto concat = [](const std::vector<List>& parts) {
    List all;
    for (const List& part : parts) all.insert(all.end(), part.begin(),
                                              part.end());
    return all;
  };

  // Partial application: bind the four customizing functions now, the
  // problem later -- `quicksort` is a first-class value.
  auto quicksort = [&](const List& l) {
    return d_and_c(is_simple, ident, divide, concat, l);
  };

  std::printf("input : ");
  for (int v : input) std::printf("%d ", v);
  const List sorted = quicksort(input);
  std::printf("\nsorted: ");
  for (int v : sorted) std::printf("%d ", v);
  std::printf("\n\n");

  // Operator sections and currying, as in section 2.1:
  // fold((+), lst) and map((*)(2), lst).
  auto fold = [](auto op, const List& l) {
    int acc = l.front();
    for (std::size_t i = 1; i < l.size(); ++i) acc = op(acc, l[i]);
    return acc;
  };
  auto map = [](auto f, List l) {
    for (int& v : l) v = f(v);
    return l;
  };
  const int sum = fold(fn::plus, sorted);              // fold((+), lst1)
  const List doubled = map(fn::section(fn::times, 2),  // map((*)(2), lst2)
                           sorted);
  std::printf("fold((+), sorted) = %d\n", sum);
  std::printf("map((*)(2), sorted) front/back = %d / %d\n", doubled.front(),
              doubled.back());

  // Currying: a curried ternary clamp applied one argument at a time.
  auto clamp = curry([](int lo, int hi, int v) {
    return fn::max(lo, fn::min(hi, v));
  });
  auto clamp_0_50 = clamp(0)(50);
  std::printf("curried clamp(0)(50) over the maximum %d -> %d\n",
              sorted.back(), clamp_0_50(sorted.back()));
  return 0;
} catch (const skil::support::ContractError& err) {
  return skil::support::report_cli_error(argv[0], err);
}
