#include "xbar/files.hpp"

#include <sstream>
#include <stdexcept>

#include "util/stringutil.hpp"

namespace nh::xbar {

using nh::util::iequals;
using nh::util::parseDouble;
using nh::util::parseInt;
using nh::util::splitWhitespace;
using nh::util::trim;

namespace {

[[noreturn]] void parseError(const char* what, std::size_t lineNo,
                             const std::string& line) {
  throw std::runtime_error(std::string(what) + " at line " +
                           std::to_string(lineNo) + ": '" + line + "'");
}

}  // namespace

std::vector<InitEntry> parseInit(const std::string& text) {
  std::vector<InitEntry> entries;
  std::istringstream in(text);
  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    if (trim(line).empty()) continue;
    const auto fields = splitWhitespace(line);
    if (fields.size() != 3) parseError("init: expected 'row col state'", lineNo, line);

    InitEntry e;
    const long long row = parseInt(fields[0], "init row");
    const long long col = parseInt(fields[1], "init col");
    if (row < 0 || col < 0) parseError("init: negative coordinate", lineNo, line);
    e.row = static_cast<std::size_t>(row);
    e.col = static_cast<std::size_t>(col);
    if (iequals(fields[2], "LRS")) {
      e.isLrs = true;
    } else if (iequals(fields[2], "HRS")) {
      e.isLrs = false;
    } else {
      e.nDisc = parseDouble(fields[2], "init nDisc");
      if (!(e.nDisc > 0.0)) parseError("init: nDisc must be > 0", lineNo, line);
      e.explicitConcentration = true;
    }
    entries.push_back(e);
  }
  return entries;
}

void applyInit(CrossbarArray& array, const std::vector<InitEntry>& entries) {
  for (const auto& e : entries) {
    if (e.row >= array.rows() || e.col >= array.cols()) {
      throw std::out_of_range("applyInit: cell (" + std::to_string(e.row) + "," +
                              std::to_string(e.col) + ") out of range");
    }
    auto& device = array.cell(e.row, e.col);
    if (e.explicitConcentration) {
      device.setNDisc(e.nDisc);
    } else if (e.isLrs) {
      device.setLrs();
    } else {
      device.setHrs();
    }
  }
}

std::string dumpInit(const CrossbarArray& array) {
  std::ostringstream os;
  os << "# row col state (nDisc in m^-3)\n";
  for (std::size_t r = 0; r < array.rows(); ++r) {
    for (std::size_t c = 0; c < array.cols(); ++c) {
      os << r << ' ' << c << ' ' << array.cell(r, c).nDisc() << '\n';
    }
  }
  return os.str();
}

std::vector<LineStimulus> parseStimuli(const std::string& text) {
  std::vector<LineStimulus> stimuli;
  std::istringstream in(text);
  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    if (trim(line).empty()) continue;
    const auto fields = splitWhitespace(line);
    if (fields.size() < 6 || fields.size() > 7) {
      parseError("stimuli: expected 'WL|BL idx amp lenNs duty count [delayNs]'",
                 lineNo, line);
    }

    LineStimulus s;
    if (iequals(fields[0], "WL")) {
      s.isWordLine = true;
    } else if (iequals(fields[0], "BL")) {
      s.isWordLine = false;
    } else {
      parseError("stimuli: line type must be WL or BL", lineNo, line);
    }
    const long long idx = parseInt(fields[1], "stimuli index");
    if (idx < 0) parseError("stimuli: negative index", lineNo, line);
    s.index = static_cast<std::size_t>(idx);

    const double amplitude = parseDouble(fields[2], "stimuli amplitude");
    const double lengthNs = parseDouble(fields[3], "stimuli length");
    const double duty = parseDouble(fields[4], "stimuli duty");
    const long long count = parseInt(fields[5], "stimuli count");
    const double delayNs = fields.size() == 7 ? parseDouble(fields[6], "delay") : 0.0;
    if (!(lengthNs > 0.0)) parseError("stimuli: length must be > 0", lineNo, line);
    if (!(duty > 0.0 && duty <= 1.0)) parseError("stimuli: duty in (0,1]", lineNo, line);
    if (count < -1) parseError("stimuli: count must be >= -1", lineNo, line);

    s.pulse.base = 0.0;
    s.pulse.amplitude = amplitude;
    s.pulse.width = lengthNs * 1e-9;
    s.pulse.period = duty < 1.0 ? s.pulse.width / duty : 0.0;
    s.pulse.count = count;
    s.pulse.delay = delayNs * 1e-9;
    s.pulse.rise = 0.5e-9;
    s.pulse.fall = 0.5e-9;
    if (s.pulse.period > 0.0 &&
        s.pulse.period < s.pulse.rise + s.pulse.width + s.pulse.fall) {
      // Keep the trapezoid consistent for very high duty cycles.
      s.pulse.period = s.pulse.rise + s.pulse.width + s.pulse.fall;
    }
    stimuli.push_back(s);
  }
  return stimuli;
}

void validateStimuli(const CrossbarArray& array,
                     const std::vector<LineStimulus>& stimuli) {
  for (const auto& s : stimuli) {
    const std::size_t limit = s.isWordLine ? array.rows() : array.cols();
    if (s.index >= limit) {
      throw std::out_of_range("validateStimuli: line index " +
                              std::to_string(s.index) + " out of range");
    }
  }
}

}  // namespace nh::xbar
