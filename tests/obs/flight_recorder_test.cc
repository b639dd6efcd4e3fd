// Flight-recorder tests: seqlock ring round-trip, wraparound retention,
// capacity rounding, concurrent writers racing a dumping reader (run under
// TSan by the thread-sanitizer CI leg via --gtest_filter='...FlightRecorder*'),
// JSON shape, and the allocation-free guarantee of the Record hot path —
// pinned by replacing the global operator new with a counting shim.

#include "obs/flight_recorder.h"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/status.h"
#include "gtest/gtest.h"
#include "obs/request_timeline.h"

// ---------------------------------------------------------------------------
// Global operator new/delete replacement. All variants route to malloc/free
// and bump a thread-local counter, so a test can assert that a code region
// performed zero allocations on *its* thread without seeing noise from
// concurrent test infrastructure. Replacing these is binary-wide; routing
// through malloc keeps every other test (and the sanitizer interceptors)
// behaving exactly as before.
// ---------------------------------------------------------------------------

namespace {
thread_local std::int64_t g_thread_allocs = 0;

void* CountedAlloc(std::size_t size) {
  ++g_thread_allocs;
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  ++g_thread_allocs;
  if (size == 0) size = align;
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_thread_allocs;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_thread_allocs;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace song::obs {
namespace {

RequestRecord MakeRecord(uint64_t request_id) {
  RequestTimeline tl;
  tl.enqueue_us = 0.0;
  tl.batched_us = 1.5;
  tl.search_begin_us = 2.25;
  tl.complete_us = 10.0;
  return RequestRecord::Make(request_id, 0xabcdef1234ull, tl, StatusCode::kOk,
                             /*degraded=*/true, /*rejected=*/false,
                             /*snapshot_version=*/7);
}

TEST(FlightRecorder, SingleRecordRoundTrip) {
  FlightRecorder recorder(8);
  recorder.Record(MakeRecord(42));
  EXPECT_EQ(recorder.total_recorded(), 1u);

  const std::vector<RequestRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  const RequestRecord& r = records[0];
  EXPECT_EQ(r.request_id, 42u);
  EXPECT_EQ(r.options_digest, 0xabcdef1234ull);
  EXPECT_EQ(r.snapshot_version, 7u);
  EXPECT_FLOAT_EQ(r.queue_us, 1.5f);
  EXPECT_FLOAT_EQ(r.batch_form_us, 0.75f);
  EXPECT_FLOAT_EQ(r.search_us, 7.75f);
  EXPECT_FLOAT_EQ(r.total_us, r.queue_us + r.batch_form_us + r.search_us);
  EXPECT_EQ(r.code(), StatusCode::kOk);
  EXPECT_EQ(r.degraded, 1u);
  EXPECT_EQ(r.rejected, 0u);
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(0).capacity(), 2u);
  EXPECT_EQ(FlightRecorder(1).capacity(), 2u);
  EXPECT_EQ(FlightRecorder(2).capacity(), 2u);
  EXPECT_EQ(FlightRecorder(5).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(8).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(200).capacity(), 256u);
}

TEST(FlightRecorder, WraparoundRetainsNewestRecords) {
  FlightRecorder recorder(8);
  ASSERT_EQ(recorder.capacity(), 8u);
  constexpr uint64_t kTotal = 20;
  for (uint64_t i = 0; i < kTotal; ++i) recorder.Record(MakeRecord(i));
  EXPECT_EQ(recorder.total_recorded(), kTotal);

  const std::vector<RequestRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), recorder.capacity());
  // Oldest -> newest, and exactly the last `capacity` request ids survive.
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].request_id,
              kTotal - recorder.capacity() + i)
        << "slot " << i;
  }
}

TEST(FlightRecorder, ToJsonCarriesSchemaCapacityAndStatusNames) {
  FlightRecorder recorder(4);
  recorder.Record(MakeRecord(1));
  RequestTimeline tl;
  RequestRecord bad = RequestRecord::Make(2, 0x1, tl,
                                          StatusCode::kInvalidArgument,
                                          /*degraded=*/false,
                                          /*rejected=*/true);
  recorder.Record(bad);

  const std::string json = recorder.ToJson();
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"capacity\": 4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"total_recorded\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"status\": \"invalid_argument\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"rejected\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"options_digest\": \"0x"), std::string::npos) << json;
}

// Every field of a concurrent writer's record is derived from its request
// id, so a reader can detect a torn record (mixed words from two writes) no
// matter which writers' payloads got interleaved.
RequestRecord DerivedRecord(uint64_t request_id) {
  RequestTimeline tl;
  tl.batched_us = static_cast<double>(request_id % 997);
  tl.search_begin_us = tl.batched_us;  // batch_form = 0
  tl.complete_us = tl.batched_us + static_cast<double>(request_id % 89);
  return RequestRecord::Make(request_id, request_id * 2654435761ull, tl,
                             StatusCode::kOk, /*degraded=*/false,
                             /*rejected=*/false,
                             /*snapshot_version=*/request_id ^ 0x5a5a5a5aull);
}

void ExpectSelfConsistent(const RequestRecord& r) {
  const uint64_t id = r.request_id;
  ASSERT_EQ(r.options_digest, id * 2654435761ull) << "torn record, id " << id;
  ASSERT_EQ(r.snapshot_version, id ^ 0x5a5a5a5aull) << "torn record";
  ASSERT_FLOAT_EQ(r.queue_us, static_cast<float>(id % 997)) << "torn record";
  ASSERT_FLOAT_EQ(r.search_us, static_cast<float>(id % 89)) << "torn record";
}

TEST(FlightRecorderConcurrency, WritersRaceDumpWithoutTornReads) {
  constexpr size_t kWriters = 4;
  constexpr uint64_t kPerWriter = 4000;
  FlightRecorder recorder(64);

  std::atomic<bool> stop{false};
  std::atomic<size_t> snapshots_taken{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::vector<RequestRecord> records = recorder.Snapshot();
      EXPECT_LE(records.size(), recorder.capacity());
      for (const RequestRecord& r : records) ExpectSelfConsistent(r);
      snapshots_taken.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        recorder.Record(DerivedRecord(w * kPerWriter + i));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_GT(snapshots_taken.load(), 0u);
  EXPECT_EQ(recorder.total_recorded(), kWriters * kPerWriter);
  // Quiescent ring: a full, uncontended snapshot of self-consistent records.
  const std::vector<RequestRecord> records = recorder.Snapshot();
  EXPECT_EQ(records.size(), recorder.capacity());
  for (const RequestRecord& r : records) ExpectSelfConsistent(r);
}

TEST(FlightRecorderConcurrency, ToJsonUnderConcurrentWritesStaysWellFormed) {
  FlightRecorder recorder(16);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      recorder.Record(DerivedRecord(i++));
    }
  });
  for (int i = 0; i < 50; ++i) {
    const std::string json = recorder.ToJson();
    EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '\n');
  }
  stop.store(true, std::memory_order_release);
  writer.join();
}

TEST(FlightRecorderAllocation, RecordHotPathAllocatesNothing) {
  FlightRecorder recorder(128);
  RequestRecord rec = MakeRecord(0);
  recorder.Record(rec);  // warm the path before counting

  const std::int64_t before = g_thread_allocs;
  for (uint64_t i = 0; i < 10000; ++i) {
    rec.request_id = i;
    recorder.Record(rec);
  }
  EXPECT_EQ(g_thread_allocs, before)
      << "FlightRecorder::Record allocated on the hot path";

  // The counting shim itself must be live, or the assertion above proves
  // nothing: snapshotting (vector growth) has to allocate.
  const std::int64_t snap_before = g_thread_allocs;
  const std::vector<RequestRecord> records = recorder.Snapshot();
  EXPECT_EQ(records.size(), recorder.capacity());
  EXPECT_GT(g_thread_allocs, snap_before)
      << "operator-new counter not engaged; allocation pin is vacuous";
}

}  // namespace
}  // namespace song::obs
