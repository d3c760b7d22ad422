#ifndef PERFBENCH_HARNESS_TRACE_H_
#define PERFBENCH_HARNESS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

/// \file trace.h
/// In-memory spans recorded by the harness around its own calls into the
/// library. Each harness thread records into its own SpanBuffer (no
/// locking on the hot path); buffers are merged and written out only after
/// the timed phases end. A disabled tracer makes every call a no-op that
/// reads no clock.

namespace perfbench {

inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  int64_t id = 0;
  int64_t parent = 0;  ///< 0 = root.
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  double duration_ms() const { return end_ms - start_ms; }
};

class Tracer;

/// One thread's span log. Not thread-safe: owned by a single thread.
class SpanBuffer {
 public:
  bool enabled() const { return enabled_; }

  /// Reserves a span id, unique across every buffer of the tracer, so a
  /// parent's id is known to its children before the parent closes.
  int64_t NextId();

  /// Records a closed span; `name` must be a string literal.
  void Add(int64_t id, int64_t parent, const char* name, double start_ms,
           double end_ms);

 private:
  friend class Tracer;
  struct Raw {
    int64_t id;
    int64_t parent;
    const char* name;
    double start_ms;
    double end_ms;
  };
  SpanBuffer(Tracer* tracer, bool enabled);

  Tracer* tracer_;
  bool enabled_;
  std::vector<Raw> spans_;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// A new buffer for one thread; create it before starting the thread.
  SpanBuffer* NewBuffer();

  /// Every recorded span, ordered by start time. Call only after all
  /// recording threads have been joined.
  std::vector<Span> Collect() const;

 private:
  friend class SpanBuffer;
  bool enabled_;
  std::atomic<int64_t> next_id_{1};
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

/// Times its own scope as one span. A null or disabled buffer disables it.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, int64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id (0 when disabled), to pass as a child's parent.
  int64_t id() const { return id_; }

 private:
  SpanBuffer* buffer_;
  const char* name_;
  int64_t parent_;
  int64_t id_ = 0;
  double start_ms_ = 0.0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
std::map<int64_t, double> SelfTimes(const std::vector<Span>& spans);

/// Durations (ms) of every span called `name`.
std::vector<double> Durations(const std::vector<Span>& spans,
                              const std::string& name);

/// Self times (ms) of every span called `name`.
std::vector<double> SelfDurations(const std::vector<Span>& spans,
                                  const std::map<int64_t, double>& self,
                                  const std::string& name);

/// Writes one JSON object per span: {"id","parent","name","start_ms",
/// "end_ms"}. Returns false when the file cannot be written.
bool WriteSpansJsonl(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACE_H_
