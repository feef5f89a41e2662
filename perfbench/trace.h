// Bench-side tracing for imcbench: an in-memory span recorder written out
// as Chrome trace-event JSON, and a forwarding MaxrSolver that times the
// `core` layer from outside the engine.
//
// Spans are recorded only around calls the benchmark itself makes into the
// library's public API (and around the solver calls the engine makes through
// TimedSolver), so the library is measured without being modified. Every
// span records its name, start, end, parent span and op id; a span's self
// time is its duration minus the durations of its direct children.
#pragma once

#include <cassert>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/maxr_solver.h"

namespace imcbench {

/// Sentinel op id for spans outside any op (set-up, checks).
inline constexpr std::uint64_t kNoOp = ~std::uint64_t{0};

class Tracer {
 public:
  /// Opens a span as a child of the innermost open span; returns its id.
  std::size_t open(std::string name, std::uint64_t op) {
    const std::int64_t parent =
        stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    spans_.push_back(Span{std::move(name), now_us(), -1.0, parent, op});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  /// Closes the innermost open span, which must be `id` (ScopedSpan's
  /// nesting guarantees it).
  void close(std::size_t id) {
    assert(!stack_.empty() && stack_.back() == id);
    spans_[id].end_us = now_us();
    stack_.pop_back();
  }

  /// Writes every closed span as a Chrome trace "X" event (loadable in
  /// Perfetto or chrome://tracing). `layer` is the span-name prefix before
  /// the first '.', `self_us` the span's self time. `other_data` must be a
  /// JSON object literal; it lands under the top-level "otherData" key.
  void write_chrome_json(const std::string& path,
                         const std::string& other_data) const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.parent >= 0 && span.end_us >= 0.0) {
        child_us[static_cast<std::size_t>(span.parent)] +=
            span.end_us - span.start_us;
      }
    }
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace file " + path);
    out.precision(17);
    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << other_data
        << ",\"traceEvents\":[";
    bool first = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      if (span.end_us < 0.0) continue;
      const double dur = span.end_us - span.start_us;
      out << (first ? "" : ",") << "\n{\"name\":\"" << span.name
          << "\",\"cat\":\"" << span.name.substr(0, span.name.find('.'))
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << span.start_us
          << ",\"dur\":" << dur << ",\"args\":{\"id\":" << i
          << ",\"parent\":" << span.parent << ",\"op\":";
      if (span.op == kNoOp) {
        out << "null";
      } else {
        out << span.op;
      }
      out << ",\"self_us\":" << dur - child_us[i] << "}}";
      first = false;
    }
    out << "\n]}\n";
    if (!out.flush()) throw std::runtime_error("cannot write " + path);
  }

 private:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = -1.0;  // < 0 while open
    std::int64_t parent = -1;
    std::uint64_t op = kNoOp;
  };

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span; records nothing when the tracer is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::uint64_t op = kNoOp)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->open(std::move(name), op) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&&) = delete;
  ScopedSpan& operator=(ScopedSpan&&) = delete;

 private:
  Tracer* tracer_;
  std::size_t id_;
};

/// Forwarding MaxrSolver decorator: passes alpha/solve/resume (with the
/// MaxrResume warm-start state) straight to the wrapped solver, timing each
/// call and recording a span for it. The engine accepts any MaxrSolver, so
/// handing it this wrapper times the core layer without touching src/.
class TimedSolver final : public imc::MaxrSolver {
 public:
  struct Stats {
    std::uint64_t calls = 0;       // solve + resume invocations
    std::uint64_t warm_calls = 0;  // resume entered with carried state
    double seconds = 0.0;          // inside solve/resume
    double alpha_seconds = 0.0;    // inside alpha
  };

  TimedSolver(const imc::MaxrSolver& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  /// Stats since construction or the last take_stats(), then resets them.
  Stats take_stats() { return std::exchange(stats_, Stats{}); }
  void set_op(std::uint64_t op) { op_ = op; }

  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] double alpha(const imc::RicPool& pool,
                             std::uint32_t k) const override {
    const ScopedSpan span(tracer_, "core.alpha", op_);
    const Clock::time_point start = Clock::now();
    const double value = inner_.alpha(pool, k);
    stats_.alpha_seconds += since(start);
    return value;
  }

  [[nodiscard]] imc::MaxrSolution solve(const imc::RicPool& pool,
                                        std::uint32_t k) const override {
    const ScopedSpan span(tracer_, "core.solve", op_);
    const Clock::time_point start = Clock::now();
    imc::MaxrSolution solution = inner_.solve(pool, k);
    stats_.seconds += since(start);
    ++stats_.calls;
    return solution;
  }

  [[nodiscard]] imc::MaxrSolution resume(
      const imc::RicPool& pool, std::uint32_t k,
      std::unique_ptr<imc::MaxrResume>& state) const override {
    const bool warm = state != nullptr;
    const ScopedSpan span(tracer_, warm ? "core.resume" : "core.resume_cold",
                          op_);
    const Clock::time_point start = Clock::now();
    imc::MaxrSolution solution = inner_.resume(pool, k, state);
    stats_.seconds += since(start);
    ++stats_.calls;
    if (warm) ++stats_.warm_calls;
    return solution;
  }

 private:
  using Clock = std::chrono::steady_clock;
  static double since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  }

  const imc::MaxrSolver& inner_;
  Tracer* tracer_;
  std::uint64_t op_ = kNoOp;
  // The engine calls its solver from the thread that called solve().
  mutable Stats stats_;
};

}  // namespace imcbench
