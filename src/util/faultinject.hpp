#pragma once
/// \file faultinject.hpp
/// Test-only fault-injection registry.
///
/// Solver code plants named *sites* at its failure-prone spots (singular
/// factorization exits, CG convergence, Newton stepping) by asking
/// `shouldFire("site.name")` whether this call is the one an armed policy
/// wants to fail. Tests arm a site programmatically (`arm`) or operators arm
/// one from the environment (`NH_FAULT=site:n[@scope]`, comma-separated for
/// several sites); the nth matching call then reports "fire", the site
/// disarms itself, and the solver takes its ordinary failure path -- which is
/// exactly what makes the injection useful: every isolation / retry /
/// fallback path downstream of a real failure can be exercised
/// deterministically.
///
/// Scopes pin a policy to one region of the run. The indexed-task runner
/// (core/tasks) tags each index with `Scope("<label>:<index>")` -- grid
/// points `point:<i>`, campaign trials `trial:<i>`, study builds `study:<u>`
/// -- so `arm("linsolve.dense_lu", 1, "point:2")` fails the first dense
/// factorization *inside point 2 only*, regardless of thread count or call
/// interleaving.
///
/// When nothing is armed (the production case), `shouldFire` is one relaxed
/// atomic load.

#include <cstddef>
#include <string>

namespace nh::util::faultinject {

/// True when at least one site is armed; the fast gate for the site hooks.
bool enabled();

/// Site hook. Returns true exactly once: on the nth call made from a
/// matching scope while \p site is armed. Unarmed (or mismatched-scope, or
/// already-fired) calls return false. Never throws.
bool shouldFire(const char* site);

/// Arm \p site to fire on its \p nthCall-th matching call (1-based). An
/// empty \p scope matches every call; otherwise only calls whose ambient
/// Scope label equals \p scope are counted. Re-arming a site resets its
/// counter.
void arm(const std::string& site, std::size_t nthCall,
         const std::string& scope = "");

/// Arm every well-formed entry of an NH_FAULT-style spec string
/// (`site:n[@scope]`, comma-separated). Malformed entries are skipped with a
/// one-line stderr warning naming the bad entry -- a typo'd injection spec
/// must not masquerade as a clean run. Returns the number of sites armed.
/// The NH_FAULT environment variable is fed through this parser before
/// main().
std::size_t armFromSpec(const std::string& spec);

/// Remove the policy for \p site (no-op when not armed).
void disarm(const std::string& site);

/// Remove every policy and reset every counter (test teardown).
void clearAll();

/// Matching calls observed by \p site since it was (re-)armed; 0 when the
/// site is unknown.
std::size_t callCount(const std::string& site);

/// True when \p site is armed and has already fired.
bool fired(const std::string& site);

/// RAII ambient scope label (thread-local, restores the previous label on
/// destruction). The indexed-task runner wraps each index in one.
class Scope {
 public:
  explicit Scope(std::string label);
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::string previous_;
};

/// This thread's ambient scope label ("" outside any Scope).
std::string currentScope();

}  // namespace nh::util::faultinject
