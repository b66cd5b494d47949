#include "hamlet/common/fault.h"

#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>

#include "hamlet/common/env.h"
#include "hamlet/common/mutex.h"
#include "hamlet/common/stringx.h"
#include "hamlet/common/thread_annotations.h"

namespace hamlet {
namespace fault {

namespace {

/// One parsed site clause plus its runtime counters. Exactly one of
/// {always, nth>0, p>0} is active per rule.
struct SiteRule {
  bool always = false;
  uint64_t nth = 0;
  double p = 0.0;
  uint64_t calls = 0;
  uint64_t fires = 0;
};

struct FaultState {
  Mutex mu;
  uint64_t seed HAMLET_GUARDED_BY(mu) = 1;
  std::map<std::string, SiteRule> rules HAMLET_GUARDED_BY(mu);
  /// Calls observed at sites with no rule installed, so CallCount still
  /// reports probe traffic during sweeps.
  std::map<std::string, uint64_t> passive_calls HAMLET_GUARDED_BY(mu);
};

FaultState& State() {
  static FaultState* state = new FaultState();  // leaked: process lifetime
  return *state;
}

/// Fast-path gate: flipped only under State().mu.
std::atomic<bool> g_enabled{false};

std::once_flag g_env_once;

/// SplitMix64: seeds the per-call fire decision for p= triggers.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Uniform double in [0, 1) from (seed, site, call index) — the whole
/// fire schedule is a pure function of the spec.
double FireDraw(uint64_t seed, const std::string& site, uint64_t call) {
  const uint64_t bits = SplitMix64(seed ^ Fnv1a(site) ^ (call * 0x9E37ull));
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// Parses one "site:trigger" or "seed=N" clause into `state`.
Status ParseClause(const std::string& clause, FaultState& state)
    HAMLET_REQUIRES(state.mu) {
  if (clause.rfind("seed=", 0) == 0) {
    const std::string value = clause.substr(5);
    const Result<uint64_t> seed = ParseUnsigned(value);
    if (!seed.ok()) {
      return Status::InvalidArgument("fault spec: bad seed \"" + value +
                                     "\"");
    }
    state.seed = seed.value();
    return Status::OK();
  }
  const size_t colon = clause.find(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument(
        "fault spec: clause \"" + clause +
        "\" is neither seed=N nor site:trigger");
  }
  const std::string site = clause.substr(0, colon);
  const std::string trigger = clause.substr(colon + 1);

  bool known = false;
  for (const std::string& s : KnownSites()) known = known || s == site;
  if (!known) {
    std::string roster;
    for (const std::string& s : KnownSites()) {
      if (!roster.empty()) roster += ", ";
      roster += s;
    }
    return Status::InvalidArgument("fault spec: unknown site \"" + site +
                                   "\" (known sites: " + roster + ")");
  }

  SiteRule rule;
  if (trigger == "always") {
    rule.always = true;
  } else if (trigger.rfind("nth=", 0) == 0) {
    const Result<uint64_t> n = ParseUnsigned(trigger.substr(4));
    if (!n.ok() || n.value() == 0) {
      return Status::InvalidArgument("fault spec: bad nth trigger \"" +
                                     trigger + "\" for site " + site);
    }
    rule.nth = n.value();
  } else if (trigger.rfind("p=", 0) == 0) {
    const std::string value = trigger.substr(2);
    char* end = nullptr;
    const double p = std::strtod(value.c_str(), &end);
    if (value.empty() || end == value.c_str() || *end != '\0' || p < 0.0 ||
        p > 1.0) {
      return Status::InvalidArgument("fault spec: bad probability \"" +
                                     trigger + "\" for site " + site +
                                     " (want p in [0,1])");
    }
    rule.p = p;
  } else {
    return Status::InvalidArgument("fault spec: unknown trigger \"" +
                                   trigger + "\" for site " + site +
                                   " (want always, nth=N or p=F)");
  }
  state.rules[site] = rule;
  return Status::OK();
}

/// Parses and installs under the caller-held lock.
Status InstallLocked(const std::string& spec, FaultState& state)
    HAMLET_REQUIRES(state.mu) {
  state.seed = 1;
  state.rules.clear();
  state.passive_calls.clear();
  g_enabled.store(false, std::memory_order_relaxed);
  if (spec.empty()) return Status::OK();
  for (const std::string& raw : SplitString(spec, ';')) {
    const std::string clause = TrimString(raw);
    if (clause.empty()) continue;
    const Status st = ParseClause(clause, state);
    if (!st.ok()) {
      state.rules.clear();
      return st;
    }
  }
  g_enabled.store(!state.rules.empty(), std::memory_order_relaxed);
  return Status::OK();
}

Status LoadEnvLocked(FaultState& state) HAMLET_REQUIRES(state.mu) {
  const std::string spec = StringFromEnv("HAMLET_FAULT_SPEC");
  const Status st = InstallLocked(spec, state);
  if (!st.ok()) {
    WarnInvalidEnv("HAMLET_FAULT_SPEC", spec,
                   "a spec in the fault.h grammar; " + st.message());
  }
  return st;
}

void EnsureEnvLoaded() {
  std::call_once(g_env_once, [] {
    FaultState& state = State();
    MutexLock lock(state.mu);
    (void)LoadEnvLocked(state);
  });
}

}  // namespace

bool Enabled() {
  EnsureEnvLoaded();
  return g_enabled.load(std::memory_order_relaxed);
}

bool ShouldFail(const char* site) {
  if (!Enabled()) return false;
  FaultState& state = State();
  MutexLock lock(state.mu);
  auto it = state.rules.find(site);
  if (it == state.rules.end()) {
    ++state.passive_calls[site];
    return false;
  }
  SiteRule& rule = it->second;
  const uint64_t call = ++rule.calls;
  bool fire = false;
  if (rule.always) {
    fire = true;
  } else if (rule.nth > 0) {
    fire = call == rule.nth;
  } else if (rule.p > 0.0) {
    fire = FireDraw(state.seed, it->first, call) < rule.p;
  }
  if (fire) ++rule.fires;
  return fire;
}

Status Inject(const char* site, const std::string& detail) {
  if (!ShouldFail(site)) return Status::OK();
  std::string msg = std::string("injected fault at ") + site;
  if (!detail.empty()) msg += ": " + detail;
  return Status::Unavailable(std::move(msg));
}

Status InstallSpec(const std::string& spec) {
  EnsureEnvLoaded();  // consume the env exactly once, before overriding
  FaultState& state = State();
  MutexLock lock(state.mu);
  return InstallLocked(spec, state);
}

Status LoadSpecFromEnv() {
  EnsureEnvLoaded();
  FaultState& state = State();
  MutexLock lock(state.mu);
  return LoadEnvLocked(state);
}

void Clear() {
  EnsureEnvLoaded();
  FaultState& state = State();
  MutexLock lock(state.mu);
  (void)InstallLocked("", state);
}

const std::vector<std::string>& KnownSites() {
  static const std::vector<std::string>* sites = new std::vector<std::string>{
      kSiteSaveOpen,  kSiteSaveWrite, kSiteSaveFsync,
      kSiteSaveRename, kSiteLoadOpen, kSiteLoadRead,
  };
  return *sites;
}

uint64_t CallCount(const std::string& site) {
  FaultState& state = State();
  MutexLock lock(state.mu);
  auto it = state.rules.find(site);
  if (it != state.rules.end()) return it->second.calls;
  auto passive = state.passive_calls.find(site);
  return passive == state.passive_calls.end() ? 0 : passive->second;
}

uint64_t FireCount(const std::string& site) {
  FaultState& state = State();
  MutexLock lock(state.mu);
  auto it = state.rules.find(site);
  return it == state.rules.end() ? 0 : it->second.fires;
}

std::streamsize FaultInjectingStreambuf::xsputn(const char* s,
                                               std::streamsize n) {
  if (write_site_ != nullptr && ShouldFail(write_site_)) return 0;
  return base_->sputn(s, n);
}

FaultInjectingStreambuf::int_type FaultInjectingStreambuf::overflow(
    int_type ch) {
  if (write_site_ != nullptr && ShouldFail(write_site_)) {
    return traits_type::eof();
  }
  if (traits_type::eq_int_type(ch, traits_type::eof())) {
    return base_->pubsync() == 0 ? traits_type::not_eof(ch)
                                 : traits_type::eof();
  }
  return base_->sputc(traits_type::to_char_type(ch));
}

int FaultInjectingStreambuf::sync() { return base_->pubsync(); }

std::streamsize FaultInjectingStreambuf::xsgetn(char* s, std::streamsize n) {
  if (read_site_ != nullptr && ShouldFail(read_site_)) return 0;
  return base_->sgetn(s, n);
}

FaultInjectingStreambuf::int_type FaultInjectingStreambuf::underflow() {
  if (read_site_ != nullptr && ShouldFail(read_site_)) {
    return traits_type::eof();
  }
  return base_->sgetc();
}

FaultInjectingStreambuf::int_type FaultInjectingStreambuf::uflow() {
  if (read_site_ != nullptr && ShouldFail(read_site_)) {
    return traits_type::eof();
  }
  return base_->sbumpc();
}

}  // namespace fault
}  // namespace hamlet
