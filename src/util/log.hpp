#pragma once
/// \file log.hpp
/// Warnings to stderr: degraded-but-continuing events (e.g. a checkpoint
/// write that failed) that a library caller should see without the run
/// failing.

#include <sstream>
#include <string>
#include <utility>

namespace nh::util {

/// Write "[nh:WARN ] <message>" to stderr as one whole line.
void logWarnLine(const std::string& message);

template <typename... Args>
void logWarn(Args&&... args) {
  std::ostringstream os;
  (os << ... << std::forward<Args>(args));
  logWarnLine(os.str());
}

}  // namespace nh::util
