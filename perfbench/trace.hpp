#pragma once
/// \file trace.hpp
/// In-memory span recorder for nh_perfbench. Spans are recorded by the
/// benchmark around its calls into libnh (one layer per span, named after
/// the module the call enters), kept in memory, and written once, at exit,
/// as Chrome trace-event JSON that loads in Perfetto or chrome://tracing.
/// A null Tracer pointer turns every Span into a no-op: the untraced runs
/// that produce the end-to-end metrics never touch the recorder.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

class Tracer {
 public:
  struct Record {
    std::string layer;  ///< Module name ("core.attack", "xbar.sneak", ...).
    std::string name;   ///< The library call the span wraps.
    std::size_t id = 0;
    std::size_t parent = 0;  ///< 0 = root span.
    std::size_t thread = 0;
    double startUs = 0.0;
    double durUs = 0.0;
  };

  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::size_t begin(std::string layer, std::string name, std::size_t parent) {
    const double start = micros(Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    Record r;
    r.layer = std::move(layer);
    r.name = std::move(name);
    r.id = records_.size() + 1;
    r.parent = parent;
    r.thread = threadIndex();
    r.startUs = start;
    records_.push_back(std::move(r));
    return records_.back().id;
  }

  void end(std::size_t id) {
    const double now = micros(Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    Record& r = records_[id - 1];
    r.durUs = now - r.startUs;
  }

  /// Span self time summed per layer [s]: each span's duration minus the
  /// part of it its child spans cover (children running concurrently on
  /// pool threads can cover more than the parent; self time stops at 0).
  std::map<std::string, double> selfSecondsByLayer() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> childUs(records_.size() + 1, 0.0);
    for (const Record& r : records_) childUs[r.parent] += r.durUs;
    std::map<std::string, double> self;
    for (const Record& r : records_) {
      self[r.layer] += std::max(0.0, r.durUs - childUs[r.id]) * 1e-6;
    }
    return self;
  }

  /// Write every span as a Chrome trace "complete" (ph = X) event, plus
  /// \p otherData (a JSON object literal) as run context.
  void write(const std::string& path, const std::string& otherData) const {
    std::lock_guard<std::mutex> lock(mutex_);
    nh::util::JsonWriter w;
    w.beginObject();
    w.key("displayTimeUnit").value("ms");
    w.key("traceEvents").beginArray();
    for (const Record& r : records_) {
      w.beginObject();
      w.key("name").value(r.name);
      w.key("cat").value(r.layer);
      w.key("ph").value("X");
      w.key("pid").value(std::size_t{1});
      w.key("tid").value(r.thread);
      w.key("ts").value(r.startUs);
      w.key("dur").value(r.durUs);
      w.key("args").beginObject();
      w.key("id").value(r.id);
      w.key("parent").value(r.parent);
      w.endObject();
      w.endObject();
    }
    w.endArray();
    w.endObject();
    std::string doc = w.str();
    // Splice the context object in as "otherData" (already valid JSON).
    doc.pop_back();
    doc += ",\"otherData\":" + otherData + "}";
    std::ofstream(path) << doc << '\n';
  }

 private:
  double micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  std::size_t threadIndex() {
    const auto id = std::this_thread::get_id();
    auto it = threads_.find(id);
    if (it == threads_.end()) it = threads_.emplace(id, threads_.size() + 1).first;
    return it->second;
  }

  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Record> records_;
  std::map<std::thread::id, std::size_t> threads_;
};

/// RAII span. Its parent is \p parent, or with 0 the innermost span open on
/// this thread; spans opened inside pool bodies pass their parent explicitly.
class Span {
 public:
  Span(Tracer* tracer, std::string layer, std::string name, std::size_t parent = 0)
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    id_ = tracer_->begin(std::move(layer), std::move(name),
                         parent != 0 ? parent : current());
    saved_ = current();
    current() = id_;
  }
  ~Span() {
    if (tracer_ == nullptr) return;
    tracer_->end(id_);
    current() = saved_;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::size_t id() const { return id_; }

 private:
  static std::size_t& current() {
    thread_local std::size_t open = 0;
    return open;
  }

  Tracer* tracer_;
  std::size_t id_ = 0;
  std::size_t saved_ = 0;
};

}  // namespace perfbench
