#include "spice/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/cancellation.hpp"
#include "util/faultinject.hpp"
#include "util/linsolve.hpp"

namespace nh::spice {

namespace {

using nh::util::Matrix;
using nh::util::Vector;

/// Newton controls (see NewtonOptions): the iteration cap, the absolute and
/// relative update tolerances, and the per-iteration voltage-update limiter.
constexpr std::size_t kMaxNewtonIterations = 100;
constexpr double kAbsTol = 1e-9;         // [V]
constexpr double kRelTol = 1e-6;
constexpr double kMaxStepVoltage = 0.5;  // [V]
/// Transient step floor: a run whose step shrinks below it fails [s].
constexpr double kDtMin = 1e-15;
/// Conductance from every node to ground [S]: keeps the Jacobian
/// non-singular when a node would otherwise float.
constexpr double kGmin = 1e-12;

/// Newton solver with persistent storage and LU reuse. One engine lives for
/// a whole analysis (every timestep of a transient), so the Jacobian, the
/// right-hand side, and the factorisation survive between solves. Linear
/// circuits re-factor only when dt (or the analysis kind) changes; with a
/// frozen Jacobian the matrix is not even re-stamped -- elements only
/// rebuild the rhs (time-dependent sources). Nonlinear circuits re-stamp
/// and re-factor on every Newton iteration.
class NewtonEngine {
 public:
  /// \p initialGuess holds circuit.unknownCount() entries.
  SolveResult solve(Circuit& circuit, double time, double dt, bool transient,
                    const Vector& xPrev, bool reuseFactorization,
                    const Vector& initialGuess) {
    const std::size_t n = circuit.unknownCount();
    const std::size_t nodeUnknowns = circuit.nodeCount() - 1;

    SolveResult result;
    result.x = initialGuess;

    if (n != sysN_) {
      sysN_ = n;
      rhs_.assign(n, 0.0);
      luValid_ = false;
      jacobian_.resize(n, n, 0.0);
    }
    if (!circuit.hasNonlinear()) {
      const bool frozenLuUsable = reuseFactorization && luValid_ &&
                                  dt == luDt_ && transient == luTransient_;
      return solveLinear(circuit, time, dt, transient, xPrev, frozenLuUsable,
                         std::move(result), nodeUnknowns);
    }
    return solveNewton(circuit, time, dt, transient, xPrev, std::move(result),
                       nodeUnknowns);
  }

 private:
  SolveResult solveLinear(Circuit& circuit, double time, double dt,
                          bool transient, const Vector& xPrev, bool reuseLu,
                          SolveResult result, std::size_t nodeUnknowns) {
    const std::size_t n = sysN_;
    std::fill(rhs_.begin(), rhs_.end(), 0.0);
    if (!reuseLu) jacobian_.fill(0.0);
    // With a frozen LU the conductance stamps are no-ops (stampMatrix
    // false): only the rhs is rebuilt, and the previous factorisation is
    // solved against it -- bit-identical to re-stamping and re-factoring
    // the identical matrix.
    StampContext ctx{jacobian_, rhs_,      result.x,  xPrev,
                     time,      dt,        transient, /*stampMatrix=*/!reuseLu};
    for (const auto& e : circuit.elements()) e->stamp(ctx);
    if (!reuseLu) {
      // gmin from every node to ground keeps otherwise-floating nodes defined.
      stampGmin(nodeUnknowns);
      if (!lu_.refactor(jacobian_)) {
        luValid_ = false;
        result.converged = false;
        return result;
      }
      luValid_ = true;
      luDt_ = dt;
      luTransient_ = transient;
    }
    // solveInPlace into the persistent scratch: the same substitution
    // sequence as solve(), without the per-step allocation.
    xNew_.assign(rhs_.begin(), rhs_.end());
    lu_.solveInPlace(xNew_);
    // x + (xNew - x) rounds differently from xNew; the update form keeps
    // the transient's recorded series unchanged.
    for (std::size_t i = 0; i < n; ++i) result.x[i] += xNew_[i] - result.x[i];
    result.iterations = 1;
    result.converged = true;
    return result;
  }

  SolveResult solveNewton(Circuit& circuit, double time, double dt,
                          bool transient, const Vector& xPrev,
                          SolveResult result, std::size_t nodeUnknowns) {
    const std::size_t n = sysN_;

    // Fault site: tests force a non-converged Newton solve to exercise the
    // timestep-shrink and per-point isolation paths above this loop.
    if (nh::util::faultinject::shouldFire("spice.newton")) {
      result.converged = false;
      return result;
    }

    for (std::size_t iter = 0; iter < kMaxNewtonIterations; ++iter) {
      nh::util::checkCancellation("newton iteration");
      jacobian_.fill(0.0);
      std::fill(rhs_.begin(), rhs_.end(), 0.0);

      StampContext ctx{jacobian_, rhs_, result.x, xPrev, time, dt, transient};
      for (const auto& e : circuit.elements()) e->stamp(ctx);
      // gmin from every node to ground keeps otherwise-floating nodes defined.
      stampGmin(nodeUnknowns);

      // Factor every iteration and solve the companion system for the next
      // iterate directly. The persistent lu_/xNew_ avoid per-iteration
      // allocations; refactor()+solveInPlace() run the same elimination and
      // substitution sequences as a one-shot factorisation.
      if (!lu_.refactor(jacobian_)) {
        result.converged = false;
        return result;
      }
      xNew_.assign(rhs_.begin(), rhs_.end());
      lu_.solveInPlace(xNew_);
      // Voltage limiting: clamp node-voltage updates to keep the
      // exponential devices inside a trust region (standard SPICE
      // practice).
      double maxUpdate = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        double delta = xNew_[i] - result.x[i];
        if (i < nodeUnknowns) {
          delta = std::clamp(delta, -kMaxStepVoltage, kMaxStepVoltage);
          maxUpdate = std::max(maxUpdate, std::fabs(delta));
        }
        result.x[i] += delta;
      }
      result.iterations = iter + 1;
      // NaN/Inf guard: a poisoned update can never meet the tolerance, so
      // iterating to the cap just burns factorisations -- fail fast and let
      // the caller (timestep control, per-point isolation) recover.
      if (!std::isfinite(maxUpdate)) {
        result.converged = false;
        return result;
      }
      double tolerance = kAbsTol;
      for (std::size_t i = 0; i < nodeUnknowns; ++i) {
        tolerance = std::max(tolerance, kAbsTol + kRelTol * std::fabs(result.x[i]));
      }
      if (maxUpdate < tolerance) {
        result.converged = true;
        return result;
      }
    }
    result.converged = false;
    return result;
  }

  /// gmin from every node to ground, added after the element stamps.
  void stampGmin(std::size_t nodeUnknowns) {
    for (std::size_t i = 0; i < nodeUnknowns; ++i) jacobian_(i, i) += kGmin;
  }

  Matrix jacobian_;
  Vector rhs_;
  Vector xNew_;
  nh::util::LuFactorization lu_;
  std::size_t sysN_ = 0;
  bool luValid_ = false;
  double luDt_ = 0.0;
  bool luTransient_ = false;
};

}  // namespace

SolveResult solveDc(Circuit& circuit) {
  circuit.finalize();
  const Vector zero(circuit.unknownCount(), 0.0);
  // A fresh engine holds no factorisation, so there is nothing to reuse.
  NewtonEngine engine;
  return engine.solve(circuit, /*time=*/0.0, /*dt=*/0.0, /*transient=*/false,
                      zero, /*reuseFactorization=*/false, zero);
}

const std::vector<double>& TransientResult::seriesFor(const std::string& label) const {
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == label) return series[i];
  }
  throw std::out_of_range("TransientResult: no series '" + label + "'");
}

TransientResult runTransient(Circuit& circuit, const TransientOptions& options,
                             const std::vector<Probe>& probes) {
  if (!(options.tStop > 0.0)) {
    throw std::invalid_argument("runTransient: tStop must be > 0");
  }
  circuit.finalize();

  TransientResult result;
  result.labels.reserve(probes.size());
  for (const auto& p : probes) result.labels.push_back(p.label);
  result.series.assign(probes.size(), {});

  // Initial condition: DC operating point at t = 0.
  SolveResult op = solveDc(circuit);
  if (!op.converged) {
    result.failureReason = "initial DC operating point did not converge";
    return result;
  }
  Vector x = op.x;

  // One engine for the whole transient: the Jacobian storage and its LU
  // factorisation persist across timesteps (see NewtonEngine).
  NewtonEngine engine;

  const auto record = [&](double t, const Vector& sol) {
    result.time.push_back(t);
    for (std::size_t p = 0; p < probes.size(); ++p) {
      result.series[p].push_back(probes[p].extract(sol, t));
    }
  };
  record(0.0, x);

  double t = 0.0;
  double dt = std::min(options.dtInitial, options.dtMax);
  while (t < options.tStop - 1e-18) {
    nh::util::checkCancellation("transient step");
    double step = std::min(dt, options.tStop - t);
    const double bp = circuit.nextBreakpoint(t + 1e-18);
    if (bp > t && bp < t + step) step = bp - t;

    const SolveResult sr = engine.solve(circuit, t + step, step,
                                        /*transient=*/true, x,
                                        options.newton.reuseFactorization, x);
    if (!sr.converged) {
      // Convergence failure: shrink the step and retry.
      dt *= 0.25;
      if (dt < kDtMin) {
        result.failureReason = "timestep underflow at t=" + std::to_string(t);
        return result;
      }
      continue;
    }

    t += step;
    x = sr.x;
    const AcceptContext acc{x, t, step};
    for (const auto& e : circuit.elements()) e->acceptStep(acc);
    if (options.onStepAccepted) options.onStepAccepted(x, t, step);
    record(t, x);

    // Gentle step growth after easy Newton solves.
    if (sr.iterations <= 5) {
      dt = std::min(dt * 1.5, options.dtMax);
    } else if (sr.iterations > 20) {
      dt = std::max(dt * 0.5, kDtMin);
    }
  }
  result.completed = true;
  return result;
}

Probe probeNodeVoltage(const Circuit& circuit, const std::string& nodeName) {
  const NodeId id = circuit.findNode(nodeName);
  return Probe{"v(" + nodeName + ")", [id](const Vector& x, double) {
                 return id == 0 ? 0.0 : x[id - 1];
               }};
}

}  // namespace nh::spice
