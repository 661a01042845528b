// One field list per counter group.
//
// Each counter group (SettleCounters, FusionCounters, CarrierReport,
// SchedulerTotals) declares its uint64 fields once and lists them once,
// as (name, member) pairs in report order: `kFields`.  Summing, diffing,
// shipping over a pipe and printing a group all walk that list, so a
// new counter is one member plus one list entry plus its increment site.
#pragma once

#include <cstdint>
#include <string_view>

namespace skil::parix {

template <class Group>
struct CounterField {
  std::string_view name;
  std::uint64_t Group::*member;
};

template <class Group>
concept CounterGroup = requires { Group::kFields; };

template <CounterGroup Group>
constexpr Group& operator+=(Group& into, const Group& from) {
  for (const auto& field : Group::kFields)
    into.*field.member += from.*field.member;
  return into;
}

template <CounterGroup Group>
constexpr Group& operator-=(Group& into, const Group& from) {
  for (const auto& field : Group::kFields)
    into.*field.member -= from.*field.member;
  return into;
}

}  // namespace skil::parix
