#include "obs/flight_recorder.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "core/status.h"

namespace song::obs {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(RoundUpPow2(capacity < 2 ? 2 : capacity)),
      mask_(capacity_ - 1),
      slots_(new Slot[capacity_]) {}

// The recorder's write path: wait-free and allocation/log-free so it is
// safe on the search hot path. song_lint.py rule `hot-path` rejects any
// heap allocation, logging, or string construction inside this region.
// song-lint: begin-hot-path(flight-recorder-record)
void FlightRecorder::Record(const RequestRecord& record) noexcept {
  const uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket & mask_];

  uint64_t words[kRequestRecordWords];
  std::memcpy(words, &record, sizeof(record));

  // Seqlock write: mark the slot in progress, publish the payload, mark it
  // complete. The payload words are relaxed atomics, so a concurrent reader
  // observes either consistent values (validated by the seq re-check) or a
  // detectable in-progress/overwritten seq — never a data race.
  SeqWriteBegin(slot, ticket);
  for (size_t i = 0; i < kRequestRecordWords; ++i) {
    slot.words[i].store(words[i], std::memory_order_relaxed);
  }
  SeqWriteEnd(slot, ticket);
}
// song-lint: end-hot-path

bool FlightRecorder::TryRead(uint64_t ticket, RequestRecord* out) const {
  const Slot& slot = slots_[ticket & mask_];
  const uint64_t want = 2 * ticket + 2;
  for (int attempt = 0; attempt < 4; ++attempt) {
    const uint64_t before = SeqReadBegin(slot);
    if (before != want) return false;  // not yet written, or overwritten
    uint64_t words[kRequestRecordWords];
    for (size_t i = 0; i < kRequestRecordWords; ++i) {
      words[i] = slot.words[i].load(std::memory_order_relaxed);
    }
    if (SeqReadValidate(slot, want)) {
      std::memcpy(out, words, sizeof(*out));
      return true;
    }
  }
  return false;
}

std::vector<RequestRecord> FlightRecorder::Snapshot() const {
  const uint64_t end = next_.load(std::memory_order_acquire);
  const uint64_t begin = end > capacity_ ? end - capacity_ : 0;
  std::vector<RequestRecord> out;
  out.reserve(static_cast<size_t>(end - begin));
  for (uint64_t ticket = begin; ticket < end; ++ticket) {
    RequestRecord r;
    if (TryRead(ticket, &r)) out.push_back(r);
  }
  return out;
}

std::string FlightRecorder::ToJson() const {
  const std::vector<RequestRecord> records = Snapshot();
  std::string out = "{\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"schema_version\": 1,\n  \"capacity\": %zu,\n"
                "  \"total_recorded\": %" PRIu64 ",\n  \"records\": [",
                capacity_, total_recorded());
  out += buf;
  bool first = true;
  for (const RequestRecord& r : records) {
    if (!first) out += ",";
    first = false;
    std::snprintf(
        buf, sizeof(buf),
        "\n    {\"request_id\": %" PRIu64
        ", \"options_digest\": \"0x%016" PRIx64 "\", "
        "\"snapshot_version\": %" PRIu64
        ", \"queue_us\": %.6g, \"batch_form_us\": %.6g, "
        "\"search_us\": %.6g, \"total_us\": %.6g, "
        "\"status\": \"%s\", \"status_code\": %d, "
        "\"degraded\": %s, \"rejected\": %s}",
        r.request_id, r.options_digest, r.snapshot_version,
        static_cast<double>(r.queue_us), static_cast<double>(r.batch_form_us),
        static_cast<double>(r.search_us), static_cast<double>(r.total_us),
        Status::CodeSlug(r.code()), r.status_code,
        r.degraded ? "true" : "false", r.rejected ? "true" : "false");
    out += buf;
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

void EmitRequestRecord(const RequestObserver& observer,
                       uint64_t options_digest, float search_us,
                       StatusCode code, bool degraded, bool rejected) {
  if (observer.metrics == nullptr && observer.recorder == nullptr) return;
  RequestTimeline tl;
  tl.enqueue_us = 0.0;
  tl.batched_us = static_cast<double>(observer.queue_us);
  tl.search_begin_us =
      tl.batched_us + static_cast<double>(observer.batch_form_us);
  tl.complete_us = tl.search_begin_us + static_cast<double>(search_us);
  const RequestRecord rec =
      RequestRecord::Make(observer.request_id, options_digest, tl, code,
                          degraded, rejected, observer.snapshot_version);
  if (observer.metrics != nullptr) observer.metrics->Record(rec);
  if (observer.recorder != nullptr) observer.recorder->Record(rec);
}

}  // namespace song::obs
