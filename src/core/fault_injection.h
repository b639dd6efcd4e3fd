// Copyright 2026 The SONG-Repro Authors.
//
// Deterministic, seeded fault injection for resilience testing. Call sites
// name themselves ("transfer.htod", "io.read", "serve.write") and ask
// ShouldFail(site); a registry of (pattern -> probability) rules decides.
// Decisions are a pure function of (seed, site name, per-site attempt
// counter), so a given spec + seed produces the same failure sequence on
// every run regardless of wall clock or thread scheduling — the property
// the fault-injection tests and the serving soak rely on.
//
// Spec syntax (CLI --fault-spec / SONG_FAULT_SPEC environment variable):
//
//   site=probability[@max][,site=probability[@max]...]
//
//   transfer.htod=1          every simulated host-to-device upload fails
//   serve.*=0.05             every serving site fails 5% of attempts
//   io.read=1@2              the first two io.read checks fail, then none
//   *=0.01                   every site fails 1% of attempts
//
// Patterns match a site exactly or via a single '*' wildcard (any run of
// characters). The first matching rule in spec order wins. `@max` caps the
// number of injected failures for sites matched by that rule (per site).
//
// Cost when disabled: one relaxed atomic load per check — the registry is
// off by default and stays off unless Configure() is called or the
// SONG_FAULT_SPEC environment variable is set.

#ifndef SONG_CORE_FAULT_INJECTION_H_
#define SONG_CORE_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/status.h"
#include "core/sync.h"

namespace song::fault {

struct FaultRule {
  std::string pattern;            ///< site name, may contain one '*'
  double probability = 0.0;       ///< in [0, 1]
  uint64_t max_failures = ~0ull;  ///< per-site cap for this rule
};

class FaultRegistry {
 public:
  FaultRegistry() = default;
  FaultRegistry(const FaultRegistry&) = delete;
  FaultRegistry& operator=(const FaultRegistry&) = delete;

  /// Installs the given spec (see header comment for syntax) and arms the
  /// registry. An empty spec disables it. Resets all counters.
  Status Configure(std::string_view spec, uint64_t seed) SONG_EXCLUDES(mu_);

  /// Disarms the registry and clears rules/counters.
  void Disable() SONG_EXCLUDES(mu_);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Copies of the armed spec/seed, taken under the registry mutex. By
  /// value on purpose: a reference would let callers read the strings while
  /// a concurrent Configure() rewrites them (a data race SONG_GUARDED_BY
  /// flagged on the previous by-reference accessors).
  std::string spec() const SONG_EXCLUDES(mu_);
  uint64_t seed() const SONG_EXCLUDES(mu_);

  /// True if the fault at `site` should fire this time. Deterministic in
  /// (seed, site, per-site attempt index). Thread-safe.
  bool ShouldFail(std::string_view site) SONG_EXCLUDES(mu_);

  /// Total injected failures since the last Configure().
  uint64_t injected_total() const {
    return injected_total_.load(std::memory_order_relaxed);
  }

  /// Per-site (site, injected count) pairs, sorted by site name.
  std::vector<std::pair<std::string, uint64_t>> InjectedCounts() const
      SONG_EXCLUDES(mu_);

  /// Installs a callback invoked each time a site fires (after the failure
  /// is counted). Serving layers use it to trigger a flight-recorder dump
  /// the moment a fault lands. Called under the registry mutex, so the
  /// listener must not re-enter this registry; pass nullptr to clear.
  /// Survives Configure()/Disable(). No cost when no fault fires.
  void SetInjectionListener(std::function<void(std::string_view)> listener)
      SONG_EXCLUDES(mu_);

  /// Process-wide registry. On first access, initializes itself from the
  /// SONG_FAULT_SPEC / SONG_FAULT_SEED environment variables (stays
  /// disabled when unset or malformed).
  static FaultRegistry& Global();

 private:
  struct SiteState {
    uint64_t attempts = 0;
    uint64_t failures = 0;
  };

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> injected_total_{0};
  mutable Mutex mu_;
  std::string spec_ SONG_GUARDED_BY(mu_);
  uint64_t seed_ SONG_GUARDED_BY(mu_) = 0;
  std::vector<FaultRule> rules_ SONG_GUARDED_BY(mu_);
  std::map<std::string, SiteState, std::less<>> sites_ SONG_GUARDED_BY(mu_);
  std::function<void(std::string_view)> listener_ SONG_GUARDED_BY(mu_);
};

/// Hot-path helper against the global registry: a relaxed load when no
/// faults are armed.
inline bool ShouldFail(std::string_view site) {
  FaultRegistry& reg = FaultRegistry::Global();
  if (!reg.enabled()) return false;
  return reg.ShouldFail(site);
}

/// Pattern match helper (exposed for tests): exact match, or a single '*'
/// in `pattern` matching any run of characters.
bool PatternMatches(std::string_view pattern, std::string_view site);

/// RAII spec installer for tests: configures the global registry on entry
/// and restores its previous spec/seed/armed state on exit.
class ScopedFaultSpec {
 public:
  ScopedFaultSpec(std::string_view spec, uint64_t seed);
  ~ScopedFaultSpec();
  ScopedFaultSpec(const ScopedFaultSpec&) = delete;
  ScopedFaultSpec& operator=(const ScopedFaultSpec&) = delete;

  /// OK unless the spec failed to parse (the registry is then disabled).
  const Status& status() const { return status_; }

 private:
  bool was_enabled_;
  std::string prev_spec_;
  uint64_t prev_seed_;
  Status status_;
};

}  // namespace song::fault

#endif  // SONG_CORE_FAULT_INJECTION_H_
