// In-memory spans recorded by the benchmark around each public call it
// makes into the program. One SpanLog per thread (no locking on the record
// path); the Tracer owns the logs, derives per-layer numbers from them and
// writes them out once, at the end of a traced run. Untraced runs hand out
// null logs, and every ScopedSpan on a null log is a no-op.

#ifndef SONG_PERFBENCH_TRACE_H_
#define SONG_PERFBENCH_TRACE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";   ///< the call, e.g. "SongSearcher::Search"
  const char* layer = "";  ///< the src/ module it belongs to
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;     ///< index in the same log, -1 for a root
  uint64_t request_id = 0;
};

/// Spans of one thread, nested by a stack of open spans.
class SpanLog {
 public:
  explicit SpanLog(uint32_t thread_id) : thread_id_(thread_id) {}

  int32_t Begin(const char* name, const char* layer, uint64_t request_id);
  void End(int32_t index);
  /// Records an already-measured interval as a child of the open span.
  void Add(const char* name, const char* layer, int64_t start_ns,
           int64_t end_ns, uint64_t request_id);

  uint32_t thread_id() const { return thread_id_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t thread_id_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, const char* layer,
             uint64_t request_id = 0)
      : log_(log),
        index_(log != nullptr ? log->Begin(name, layer, request_id) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// A fresh per-thread log, or null when tracing is off. Thread-safe; the
  /// log lives as long as the tracer.
  SpanLog* NewLog();

  /// Durations (ns) of every span named `name`; with `id_high` set, only
  /// spans whose request id carries it in its upper 32 bits.
  std::vector<double> DurationsNs(const char* name,
                                  int64_t id_high = -1) const;
  /// Summed self time (ns) of the spans of `layer`: each span's duration
  /// minus the part its child spans cover.
  double SelfNs(const char* layer) const;
  /// First start to last end over every span (ns).
  double WallNs() const;

  /// Chrome trace-event JSON ("X" events, one tid per log).
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::deque<SpanLog> logs_;
};

}  // namespace perfbench

#endif  // SONG_PERFBENCH_TRACE_H_
