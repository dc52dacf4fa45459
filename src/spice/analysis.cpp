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

/// Newton solver with persistent storage and LU reuse. One engine lives for
/// a whole analysis (every timestep of a transient), so the Jacobian, the
/// right-hand side, and the factorisation survive between solves. Linear
/// circuits re-factor only when dt (or the analysis kind) changes; with a
/// frozen Jacobian the matrix is not even re-stamped -- elements only
/// rebuild the rhs (time-dependent sources). Nonlinear circuits re-stamp
/// and re-factor on every Newton iteration.
class NewtonEngine {
 public:
  SolveResult solve(Circuit& circuit, double time, double dt, bool transient,
                    const Vector& xPrev, const NewtonOptions& options,
                    const Vector& initialGuess) {
    const std::size_t n = circuit.unknownCount();
    const std::size_t nodeUnknowns = circuit.nodeCount() - 1;

    SolveResult result;
    result.x = initialGuess.size() == n ? initialGuess : Vector(n, 0.0);

    if (n != sysN_) {
      sysN_ = n;
      rhs_.assign(n, 0.0);
      luValid_ = false;
      jacobian_.resize(n, n, 0.0);
    }
    if (!circuit.hasNonlinear()) {
      const bool frozenLuUsable = options.reuseFactorization && luValid_ &&
                                  dt == luDt_ && transient == luTransient_;
      return solveLinear(circuit, time, dt, transient, xPrev, frozenLuUsable,
                         std::move(result), nodeUnknowns);
    }
    return solveNewton(circuit, time, dt, transient, xPrev, options,
                       std::move(result), nodeUnknowns);
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
      stampGmin(circuit.gmin(), nodeUnknowns);
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
    double maxUpdate = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double delta = xNew_[i] - result.x[i];
      result.x[i] += delta;
      if (i < nodeUnknowns) maxUpdate = std::max(maxUpdate, std::fabs(delta));
    }
    result.iterations = 1;
    result.maxUpdate = maxUpdate;
    result.converged = true;
    return result;
  }

  SolveResult solveNewton(Circuit& circuit, double time, double dt,
                          bool transient, const Vector& xPrev,
                          const NewtonOptions& options, SolveResult result,
                          std::size_t nodeUnknowns) {
    const std::size_t n = sysN_;

    // Fault site: tests force a non-converged Newton solve to exercise the
    // timestep-shrink and per-point isolation paths above this loop.
    if (nh::util::faultinject::shouldFire("spice.newton")) {
      result.converged = false;
      return result;
    }

    for (std::size_t iter = 0; iter < options.maxIterations; ++iter) {
      nh::util::checkCancellation("newton iteration");
      jacobian_.fill(0.0);
      std::fill(rhs_.begin(), rhs_.end(), 0.0);

      StampContext ctx{jacobian_, rhs_, result.x, xPrev, time, dt, transient};
      for (const auto& e : circuit.elements()) e->stamp(ctx);
      // gmin from every node to ground keeps otherwise-floating nodes defined.
      stampGmin(circuit.gmin(), nodeUnknowns);

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
          delta = std::clamp(delta, -options.maxStepVoltage,
                             options.maxStepVoltage);
          maxUpdate = std::max(maxUpdate, std::fabs(delta));
        }
        result.x[i] += delta;
      }
      result.iterations = iter + 1;
      result.maxUpdate = maxUpdate;
      // NaN/Inf guard: a poisoned update can never meet the tolerance, so
      // iterating to the cap just burns factorisations -- fail fast and let
      // the caller (timestep control, per-point isolation) recover.
      if (!std::isfinite(maxUpdate)) {
        result.converged = false;
        return result;
      }
      double tolerance = options.absTol;
      for (std::size_t i = 0; i < nodeUnknowns; ++i) {
        tolerance = std::max(
            tolerance, options.absTol + options.relTol * std::fabs(result.x[i]));
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
  void stampGmin(double gmin, std::size_t nodeUnknowns) {
    for (std::size_t i = 0; i < nodeUnknowns; ++i) jacobian_(i, i) += gmin;
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

/// One Newton solve of the MNA system at a fixed (time, dt) without
/// cross-call reuse (DC operating points, one-shot callers).
SolveResult newtonSolve(Circuit& circuit, double time, double dt, bool transient,
                        const Vector& xPrev, const NewtonOptions& options,
                        const Vector& initialGuess) {
  NewtonEngine engine;
  return engine.solve(circuit, time, dt, transient, xPrev, options, initialGuess);
}

}  // namespace

SolveResult solveDc(Circuit& circuit, const NewtonOptions& options,
                    const Vector& initialGuess) {
  circuit.finalize();
  const Vector xPrev(circuit.unknownCount(), 0.0);
  return newtonSolve(circuit, /*time=*/0.0, /*dt=*/0.0, /*transient=*/false,
                     xPrev, options, initialGuess);
}

std::size_t TransientResult::seriesIndex(const std::string& label) const {
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == label) return i;
  }
  throw std::out_of_range("TransientResult: no series '" + label + "'");
}

const std::vector<double>& TransientResult::seriesFor(const std::string& label) const {
  return series[seriesIndex(label)];
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
  SolveResult op = solveDc(circuit, options.newton);
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
    if (options.alignToBreakpoints) {
      const double bp = circuit.nextBreakpoint(t + 1e-18);
      if (bp > t && bp < t + step) step = bp - t;
    }

    const SolveResult sr = engine.solve(circuit, t + step, step,
                                        /*transient=*/true, x, options.newton, x);
    if (!sr.converged) {
      // Convergence failure: shrink the step and retry.
      dt *= 0.25;
      if (dt < options.dtMin) {
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
      dt = std::max(dt * 0.5, options.dtMin);
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

Probe probeDifferentialVoltage(const Circuit& circuit, const std::string& nodeA,
                               const std::string& nodeB) {
  const NodeId a = circuit.findNode(nodeA);
  const NodeId b = circuit.findNode(nodeB);
  return Probe{"v(" + nodeA + "," + nodeB + ")", [a, b](const Vector& x, double) {
                 const double va = a == 0 ? 0.0 : x[a - 1];
                 const double vb = b == 0 ? 0.0 : x[b - 1];
                 return va - vb;
               }};
}

}  // namespace nh::spice
