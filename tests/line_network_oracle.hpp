#pragma once
/// \file line_network_oracle.hpp
/// Test-only reference for xbar::LineNetworkSolver: Newton on the fully
/// assembled (rows + cols) square Jacobian, LU-factored densely every
/// iteration, with the solver's update clamp. It stops only on a step below
/// 1e-9 V, so a quadratically converging solve leaves it orders of
/// magnitude closer to the solution than that; it shares neither the Schur
/// complement nor the contraction stop with the solver under test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "util/linsolve.hpp"
#include "util/matrix.hpp"
#include "xbar/array.hpp"
#include "xbar/linenet.hpp"

namespace nh::xbar::oracle {

inline nh::util::Vector denseLineNewton(const CrossbarArray& array,
                                        const LineDrivers& drivers) {
  using nh::util::Matrix;
  using nh::util::Vector;
  const std::size_t rows = array.rows();
  const std::size_t cols = array.cols();
  const std::size_t n = rows + cols;
  Vector v = drivers.level;
  for (int iter = 0; iter < 60; ++iter) {
    Matrix j(n, n, 0.0);
    Vector res(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      j(i, i) = drivers.conductance[i];
      res[i] = drivers.conductance[i] * (v[i] - drivers.level[i]);
    }
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        const std::size_t b = rows + c;
        const auto e = array.cell(r, c).evaluate(v[r] - v[b]);
        const double g = e.conductance > 0.0 ? e.conductance : 1e-12;
        res[r] += e.current;
        res[b] -= e.current;
        j(r, r) += g;
        j(b, b) += g;
        j(r, b) -= g;
        j(b, r) -= g;
      }
    }
    const Vector delta = nh::util::solveDense(j, res);
    double maxStep = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = std::clamp(delta[i], -0.5, 0.5);
      v[i] -= d;
      maxStep = std::max(maxStep, std::fabs(d));
    }
    if (maxStep < 1e-9) return v;
  }
  ADD_FAILURE() << "dense reference Newton did not converge";
  return v;
}

}  // namespace nh::xbar::oracle
