// The one reader of the process environment.
//
// Every HAMLET_* knob is read through these helpers, so every knob
// follows one rule: unset or empty means the default, and an invalid
// value also means the default and prints one stderr line,
//
//   hamlet: invalid NAME="value" (want ...); using the default
//
// once per distinct (NAME, value) pair, so readers on hot paths (the SMO
// cache budget is re-read on every fit) never flood bench output. An
// integer knob is ASCII digits only — no sign, whitespace or suffix — and
// must fit in 64 bits and lie in the knob's closed range; a choice knob
// must match one of its choices exactly. The tools/hamlet_lint.py rules
// env-read (no getenv outside env.cc) and env-docs (every
// ...FromEnv("HAMLET_...") call has a README row) keep it that way.

#ifndef HAMLET_COMMON_ENV_H_
#define HAMLET_COMMON_ENV_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>

namespace hamlet {

/// The value of `name` as an integer in [lo, hi], or nullopt when it is
/// unset, empty or invalid (invalid also warns). The unset path does not
/// allocate.
std::optional<uint64_t> UnsignedFromEnv(const char* name, uint64_t lo,
                                        uint64_t hi);

/// The index in `choices` of `name`'s value, or nullopt when it is
/// unset, empty or matches no choice (no match also warns).
std::optional<size_t> ChoiceFromEnv(const char* name,
                                    std::initializer_list<const char*> choices);

/// The raw value of `name` ("" when unset), for knobs with a grammar of
/// their own: the caller validates it and calls WarnInvalidEnv.
std::string StringFromEnv(const char* name);

/// Prints the invalid-knob line for (`name`, `value`) unless it was
/// printed before; `want` describes the accepted values. Thread-safe.
void WarnInvalidEnv(const char* name, const std::string& value,
                    const std::string& want);

}  // namespace hamlet

#endif  // HAMLET_COMMON_ENV_H_
