#include "hamlet/common/env.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_set>

#include "hamlet/common/mutex.h"
#include "hamlet/common/stringx.h"
#include "hamlet/common/thread_annotations.h"

namespace hamlet {

namespace {

Mutex g_warned_mu;

/// The "NAME=value" pairs already warned about (unambiguous: an env name
/// holds no '='). Function-local static (leaked: usable at exit) behind a
/// REQUIRES helper so every access provably happens under g_warned_mu.
std::unordered_set<std::string>& WarnedLocked() HAMLET_REQUIRES(g_warned_mu) {
  static std::unordered_set<std::string>* warned =
      new std::unordered_set<std::string>();
  return *warned;
}

/// The value of `name`, or nullptr when it is unset or empty.
const char* ValueOf(const char* name) {
  const char* value = std::getenv(name);
  return value == nullptr || *value == '\0' ? nullptr : value;
}

}  // namespace

std::optional<uint64_t> UnsignedFromEnv(const char* name, uint64_t lo,
                                        uint64_t hi) {
  const char* value = ValueOf(name);
  if (value == nullptr) return std::nullopt;
  const Result<uint64_t> parsed = ParseUnsigned(value);
  if (parsed.ok() && parsed.value() >= lo && parsed.value() <= hi) {
    return parsed.value();
  }
  WarnInvalidEnv(name, value,
                 "an integer in [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "]");
  return std::nullopt;
}

std::optional<size_t> ChoiceFromEnv(
    const char* name, std::initializer_list<const char*> choices) {
  const char* value = ValueOf(name);
  if (value == nullptr) return std::nullopt;
  for (size_t i = 0; i < choices.size(); ++i) {
    if (std::strcmp(value, choices.begin()[i]) == 0) return i;
  }
  std::string want;
  for (const char* choice : choices) {
    want += want.empty() ? "one of \"" : ", \"";
    want += choice;
    want += '"';
  }
  WarnInvalidEnv(name, value, want);
  return std::nullopt;
}

std::string StringFromEnv(const char* name) {
  const char* value = ValueOf(name);
  return value == nullptr ? "" : value;
}

void WarnInvalidEnv(const char* name, const std::string& value,
                    const std::string& want) {
  {
    MutexLock lock(g_warned_mu);
    if (!WarnedLocked().insert(std::string(name) + '=' + value).second) {
      return;
    }
  }
  std::fprintf(stderr,
               "hamlet: invalid %s=\"%s\" (want %s); using the default\n",
               name, value.c_str(), want.c_str());
}

}  // namespace hamlet
