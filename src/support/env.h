// Strict parsing for the SKIL_* environment knobs.
//
// Every runtime knob (SKIL_ENGINE, SKIL_TRACE, SKIL_FUSE, SKIL_PROF,
// SKIL_COLL) follows the same contract: a closed set of accepted
// spellings, and a ContractError on anything else that names the
// variable, echoes the offending value, and lists every accepted
// value.  A typo'd knob must never silently fall back to a default --
// the caller asked for a specific configuration and would otherwise
// benchmark the wrong one.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <optional>
#include <string_view>

namespace skil::support {

/// Returns the index of `name` in `accepted[0..count)`, or throws
/// ContractError with the canonical message
/// `"<var>: unknown <what> '<name>' (accepted values: a, b, c)"`.
std::size_t parse_knob_choice(std::string_view var, std::string_view what,
                              std::string_view name,
                              const std::string_view* accepted,
                              std::size_t count);

/// Enum-typed wrapper: the enum's values must be 0..count-1 in the
/// same order as `accepted` (each knob's header pins this with a
/// static_assert next to its name table).
template <class Enum, std::size_t N>
Enum parse_knob(std::string_view var, std::string_view what,
                std::string_view name,
                const std::string_view (&accepted)[N]) {
  return static_cast<Enum>(parse_knob_choice(var, what, name, accepted, N));
}

/// Reads `var` from the environment; empty optional when unset,
/// otherwise the strictly parsed value (throws on junk, same as
/// parse_knob).
template <class Enum, std::size_t N>
std::optional<Enum> env_knob(const char* var, std::string_view what,
                             const std::string_view (&accepted)[N]) {
  if (const char* value = std::getenv(var))
    return parse_knob<Enum>(var, what, value, accepted);
  return std::nullopt;
}

}  // namespace skil::support
