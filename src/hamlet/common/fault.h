// Seeded, deterministic fault injection for exercising failure paths.
//
// hamlet reports every recoverable failure through Status, but most of
// those paths — a write error mid-save, an fsync that returns EIO, a
// transient open failure — are nearly impossible to hit from a test
// without help. This subsystem plants named injection sites at the
// system-call boundaries (the full roster is in KnownSites(); the table
// lives in docs/ARCHITECTURE.md) and fires them according to a spec:
//
//   HAMLET_FAULT_SPEC = clause (';' clause)*
//   clause            = "seed=" uint64              (default 1)
//                     | site ":" trigger
//   trigger           = "always"                    fire on every call
//                     | "nth=" N                    fire on the Nth call
//                                                   to the site (1-based,
//                                                   exactly once)
//                     | "p=" F                      fire each call with
//                                                   probability F in [0,1]
//
// e.g. HAMLET_FAULT_SPEC="seed=7;io.save.write:nth=3;io.load.open:p=0.5"
//
// The p= trigger hashes (seed, site, per-site call index), so a given
// spec produces the same fire pattern on every run and at any thread
// count — fault schedules are reproducible by construction, the same
// determinism contract the rest of hamlet keeps. Specs are validated
// against the known-site roster; a typo'd site or trigger is an error
// from InstallSpec and a warn-once + ignore from the env path.
//
// When no spec is installed, every check is a single relaxed atomic
// load — the production hot path does not pay for the test machinery.
//
// FaultInjectingStreambuf wraps an iostream buffer so stream-level
// read/write faults can be injected under ModelWriter/ModelReader
// without touching the byte layer itself; io::SaveModelToFile /
// io::LoadModelFromFile interpose it automatically while faults are
// enabled.

#ifndef HAMLET_COMMON_FAULT_H_
#define HAMLET_COMMON_FAULT_H_

#include <cstdint>
#include <streambuf>
#include <string>
#include <vector>

#include "hamlet/common/status.h"
#include "hamlet/common/attributes.h"

namespace hamlet {
namespace fault {

/// Injection-site names (use these constants, not raw strings, so a
/// typo'd site is a compile error at the call site).
inline constexpr char kSiteSaveOpen[] = "io.save.open";
inline constexpr char kSiteSaveWrite[] = "io.save.write";
inline constexpr char kSiteSaveFsync[] = "io.save.fsync";
inline constexpr char kSiteSaveRename[] = "io.save.rename";
inline constexpr char kSiteLoadOpen[] = "io.load.open";
inline constexpr char kSiteLoadRead[] = "io.load.read";

/// True when any spec is installed (programmatically or from
/// HAMLET_FAULT_SPEC). Call sites gate optional wrapping on this; the
/// disabled fast path is one relaxed atomic load.
bool Enabled();

/// True when `site` should fail on this call. Counts the call against
/// the site either way (when enabled), so nth= triggers and the
/// CallCount/FireCount observers see every probe.
bool ShouldFail(const char* site);

/// Status-producing convenience: OK when the site does not fire,
/// Unavailable("injected fault at <site>: <detail>") when it does —
/// Unavailable because injected faults model transient conditions (the
/// retry wrappers key on it).
HAMLET_NODISCARD Status Inject(const char* site,
                               const std::string& detail = "");

/// Installs `spec` (the HAMLET_FAULT_SPEC grammar above), replacing any
/// previous spec and resetting all counters. An empty spec disables
/// injection. Unknown sites and malformed clauses are InvalidArgument
/// and leave injection disabled.
HAMLET_NODISCARD Status InstallSpec(const std::string& spec);

/// Re-reads HAMLET_FAULT_SPEC and installs it; the default (unset or
/// empty) disables injection. The first ShouldFail/Enabled call does
/// this implicitly once; tests that set the variable later call this to
/// pick it up. A malformed spec is the default too, with the
/// invalid-value warning of common/env.h naming the parse error.
HAMLET_NODISCARD Status LoadSpecFromEnv();

/// Disables injection and resets all counters.
void Clear();

/// The full roster of injection sites, for sweeps and docs.
const std::vector<std::string>& KnownSites();

/// Observability for tests: calls seen / faults fired per site since the
/// last InstallSpec/Clear. Unknown sites report 0.
uint64_t CallCount(const std::string& site);
uint64_t FireCount(const std::string& site);

/// Streambuf decorator that consults a fault site before delegating to
/// the wrapped buffer. A firing write site makes puts fail (the owning
/// ostream goes bad); a firing read site makes gets return short (the
/// owning istream sees a truncated stream). Pass nullptr for a
/// direction that should pass through untouched.
class FaultInjectingStreambuf final : public std::streambuf {
 public:
  FaultInjectingStreambuf(std::streambuf* base, const char* write_site,
                          const char* read_site)
      : base_(base), write_site_(write_site), read_site_(read_site) {}

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override;
  int_type overflow(int_type ch) override;
  int sync() override;
  std::streamsize xsgetn(char* s, std::streamsize n) override;
  int_type underflow() override;
  int_type uflow() override;

 private:
  std::streambuf* base_;
  const char* write_site_;
  const char* read_site_;
};

}  // namespace fault
}  // namespace hamlet

#endif  // HAMLET_COMMON_FAULT_H_
