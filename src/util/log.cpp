#include "util/log.hpp"

#include <iostream>

#include "util/annotations.hpp"

namespace nh::util {

namespace {
// Serialises whole lines onto std::cerr so concurrent sweep workers never
// interleave characters. The guarded state is the stream itself (a global we
// cannot annotate), so the mutex carries the protocol by convention: every
// write to std::cerr in this file goes through logWarnLine.
Mutex g_mutex;
}  // namespace

void logWarnLine(const std::string& message) {
  MutexLock lock(g_mutex);
  std::cerr << "[nh:WARN ] " << message << '\n';
}

}  // namespace nh::util
