// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded around calls into the program's layers from the
// benchmark's own code (name "<layer>.<what>", start, end, parent span,
// request id), kept in memory and written out once at exit as Chrome
// trace-event JSON. A layer's self time is the time its spans cover minus
// the part their child spans cover. Single-threaded by design: the traced
// replays run on one thread.

#ifndef WIKIMATCH_E2EBENCH_TRACE_H_
#define WIKIMATCH_E2EBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace e2e {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    uint64_t request = 0;
  };

  /// A disabled tracer records nothing; Begin/End cost one branch.
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  int Begin(const std::string& name, uint64_t request = 0);
  /// Ends span `id` (and any still open inside it).
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("X" complete events, one process, one
  /// thread); opens offline in chrome://tracing or Perfetto.
  std::string ChromeJson() const;

  /// Layer (name prefix before the first '.') -> self time in ms over
  /// every span of that layer.
  std::map<std::string, double> LayerSelfMs() const;

 private:
  double NowUs() const;

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span that also times itself when the tracer is disabled, so the
/// untraced replay measures the same calls; Stop() returns the duration.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, uint64_t request = 0)
      : tracer_(tracer), start_(Clock::now()),
        id_(tracer->Begin(name, request)) {}
  ~ScopedSpan() { Stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span (once) and returns its wall time in milliseconds.
  double Stop() {
    if (!stopped_) {
      tracer_->End(id_);
      ms_ = MsSince(start_);
      stopped_ = true;
    }
    return ms_;
  }

 private:
  Tracer* tracer_;
  Clock::time_point start_;
  int id_;
  bool stopped_ = false;
  double ms_ = 0.0;
};

}  // namespace e2e

#endif  // WIKIMATCH_E2EBENCH_TRACE_H_
