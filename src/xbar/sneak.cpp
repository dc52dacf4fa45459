#include "xbar/sneak.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/linsolve.hpp"
#include "xbar/fastsim.hpp"
#include "xbar/linenet.hpp"

namespace nh::xbar {

SneakAnalysis analyzeSneak(const CrossbarArray& array, std::size_t selRow,
                           std::size_t selCol, double vRead, ReadScheme scheme) {
  if (selRow >= array.rows() || selCol >= array.cols()) {
    throw std::out_of_range("analyzeSneak: selected cell out of range");
  }
  if (vRead == 0.0) throw std::invalid_argument("analyzeSneak: vRead must be non-zero");

  // Drivers (with source impedance) on the selected lines, and on every
  // other line under V/2; a floating line starts its Newton solve at vRead/2.
  const std::size_t rows = array.rows();
  const double gDrv = 1.0 / std::max(array.config().driverResistance, 1e-3);
  const double gUnselected = scheme == ReadScheme::HalfBias ? gDrv : 0.0;
  const std::size_t lines = rows + array.cols();
  LineDrivers drivers{nh::util::Vector(lines, vRead / 2),
                      nh::util::Vector(lines, gUnselected)};
  drivers.level[selRow] = vRead;
  drivers.conductance[selRow] = gDrv;
  drivers.level[rows + selCol] = 0.0;
  drivers.conductance[rows + selCol] = gDrv;

  LineNetworkSolver solver;
  nh::util::Vector lineV;
  const LineSolveResult solved = solver.solve(array, drivers, FastEngineOptions{}, lineV);
  if (!solved.converged()) {
    throw nh::util::SolverError("xbar.read",
                                solved.capHit
                                    ? "line-network Newton hit its iteration cap"
                                    : "non-finite update in line-network solve",
                                solved.newtonIterations, solved.lastStep);
  }

  SneakAnalysis out;
  out.newtonIterations = solved.newtonIterations;
  // The current into the grounded selected bit-line driver.
  out.bitLineCurrent = gDrv * lineV[rows + selCol];
  const double vCell = lineV[selRow] - lineV[rows + selCol];
  out.selectedCurrent = array.cell(selRow, selCol).current(vCell);
  out.sneakCurrent = out.bitLineCurrent - out.selectedCurrent;

  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < array.cols(); ++c) {
      if (r == selRow && c == selCol) continue;
      const double v = lineV[r] - lineV[rows + c];
      out.halfSelectPower += std::abs(v * array.cell(r, c).current(v));
      out.maxUnselectedVoltage = std::max(out.maxUnselectedVoltage, std::abs(v));
    }
  }
  return out;
}

ReadMargin worstCaseReadMargin(const ArrayConfig& config, double vRead,
                               ReadScheme scheme) {
  ReadMargin out;
  const std::size_t selRow = config.rows / 2;
  const std::size_t selCol = config.cols / 2;

  CrossbarArray array(config);
  array.fill(CellState::Lrs);  // maximum sneak background

  out.iSelectedLrs = analyzeSneak(array, selRow, selCol, vRead, scheme).bitLineCurrent;
  array.setState(selRow, selCol, CellState::Hrs);
  out.iSelectedHrs = analyzeSneak(array, selRow, selCol, vRead, scheme).bitLineCurrent;
  if (out.iSelectedLrs != 0.0) {
    out.margin = (out.iSelectedLrs - out.iSelectedHrs) / out.iSelectedLrs;
  }
  return out;
}

}  // namespace nh::xbar
