#include "trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common.h"

namespace perfbench {

int32_t SpanLog::Begin(const char* name, const char* layer,
                       uint64_t request_id) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request_id = request_id;
  span.start_ns = NowNs();
  spans_.push_back(span);
  const int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanLog::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanLog::Add(const char* name, const char* layer, int64_t start_ns,
                  int64_t end_ns, uint64_t request_id) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request_id = request_id;
  spans_.push_back(span);
}

SpanLog* Tracer::NewLog() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  logs_.emplace_back(static_cast<uint32_t>(logs_.size()));
  return &logs_.back();
}

std::vector<double> Tracer::DurationsNs(const char* name,
                                        int64_t id_high) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanLog& log : logs_) {
    for (const Span& s : log.spans()) {
      if (id_high >= 0 &&
          (s.request_id >> 32) != static_cast<uint64_t>(id_high)) {
        continue;
      }
      if (std::strcmp(s.name, name) == 0) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns));
      }
    }
  }
  return out;
}

double Tracer::SelfNs(const char* layer) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const SpanLog& log : logs_) {
    const std::vector<Span>& spans = log.spans();
    // Children of one span ran on its thread inside it, one after another,
    // so the covered part is the sum of their clipped durations.
    std::vector<double> covered(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent < 0) continue;
      const Span& p = spans[static_cast<size_t>(s.parent)];
      const int64_t lo = std::max(s.start_ns, p.start_ns);
      const int64_t hi = std::min(s.end_ns, p.end_ns);
      if (hi > lo) covered[static_cast<size_t>(s.parent)] += hi - lo;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      if (std::strcmp(spans[i].layer, layer) != 0) continue;
      const double dur =
          static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      total += std::max(0.0, dur - covered[i]);
    }
  }
  return total;
}

double Tracer::WallNs() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t lo = INT64_MAX;
  int64_t hi = INT64_MIN;
  for (const SpanLog& log : logs_) {
    for (const Span& s : log.spans()) {
      lo = std::min(lo, s.start_ns);
      hi = std::max(hi, s.end_ns);
    }
  }
  return hi > lo ? static_cast<double>(hi - lo) : 0.0;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = INT64_MAX;
  for (const SpanLog& log : logs_) {
    for (const Span& s : log.spans()) origin = std::min(origin, s.start_ns);
  }
  std::fputs("{\"traceEvents\": [\n", f);
  bool first = true;
  for (const SpanLog& log : logs_) {
    for (const Span& s : log.spans()) {
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"request_id\": %" PRIu64
                   ", \"parent\": %d}}",
                   first ? "" : ",\n", s.name, s.layer, log.thread_id(),
                   static_cast<double>(s.start_ns - origin) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                   s.request_id, s.parent);
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
