// Tests for the serving tier's admission queue and work-conserving batching
// claim primitive (src/serve/request_queue.h): FIFO claim order, key
// compatibility grouping, claims that never wait for a fuller batch, the
// depth each call leaves behind, explicit backpressure (full / closed), the
// drain protocol, and the dispatch slots that bound batches in dispatch
// across workers and inline readers.

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/timer.h"
#include "gtest/gtest.h"
#include "serve/request_queue.h"

namespace song::serve {
namespace {

std::unique_ptr<PendingRequest> MakeRequest(uint64_t id, uint32_t k = 10,
                                            uint32_t ef = 64,
                                            uint64_t deadline_us = 0) {
  auto r = std::make_unique<PendingRequest>();
  r->request_id = id;
  r->k = k;
  r->queue_size = ef;
  r->deadline_us = deadline_us;
  r->query = {1.0f, 2.0f};
  return r;
}

TEST(RequestQueue, ClaimsInArrivalOrder) {
  RequestQueue queue(8, /*slots=*/1);
  for (uint64_t i = 0; i < 5; ++i) {
    auto r = MakeRequest(i);
    ASSERT_TRUE(queue.Push(r).ok());
  }
  std::vector<std::unique_ptr<PendingRequest>> out(8);
  const size_t n = queue.PopBatch(out.data(), 8);
  ASSERT_EQ(n, 5u);
  for (uint64_t i = 0; i < 5; ++i) EXPECT_EQ(out[i]->request_id, i);
  EXPECT_EQ(queue.Size(), 0u);
}

TEST(RequestQueue, FullQueueIsResourceExhausted) {
  RequestQueue queue(2, /*slots=*/1);
  auto a = MakeRequest(1);
  auto b = MakeRequest(2);
  auto c = MakeRequest(3);
  ASSERT_TRUE(queue.Push(a).ok());
  ASSERT_TRUE(queue.Push(b).ok());
  const Status refused = queue.Push(c);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  // Refusal leaves ownership with the caller — it still has to settle the
  // request with a shed response.
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->request_id, 3u);
}

TEST(RequestQueue, ClosedQueueIsUnavailable) {
  RequestQueue queue(4, /*slots=*/1);
  queue.Close();
  auto r = MakeRequest(1);
  const Status refused = queue.Push(r);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kUnavailable);
  ASSERT_NE(r, nullptr);
}

TEST(RequestQueue, IncompatibleKeysStayQueued) {
  RequestQueue queue(8, /*slots=*/1);
  auto a = MakeRequest(1, /*k=*/10, /*ef=*/64);
  auto b = MakeRequest(2, /*k=*/10, /*ef=*/128);  // different ef
  auto c = MakeRequest(3, /*k=*/10, /*ef=*/64);
  ASSERT_TRUE(queue.Push(a).ok());
  ASSERT_TRUE(queue.Push(b).ok());
  ASSERT_TRUE(queue.Push(c).ok());
  std::vector<std::unique_ptr<PendingRequest>> out(8);
  size_t n = queue.PopBatch(out.data(), 8);
  ASSERT_EQ(n, 2u);  // 1 and 3 share the key; 2 must wait its turn
  EXPECT_EQ(out[0]->request_id, 1u);
  EXPECT_EQ(out[1]->request_id, 3u);
  queue.Release();
  n = queue.PopBatch(out.data(), 8);
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(out[0]->request_id, 2u);
}

TEST(RequestQueue, DeadlineFreeNeverBatchesWithDeadlineCarrying) {
  RequestQueue queue(8, /*slots=*/1);
  auto a = MakeRequest(1, 10, 64, /*deadline_us=*/0);
  auto b = MakeRequest(2, 10, 64, /*deadline_us=*/500);
  ASSERT_TRUE(queue.Push(a).ok());
  ASSERT_TRUE(queue.Push(b).ok());
  std::vector<std::unique_ptr<PendingRequest>> out(8);
  const size_t n = queue.PopBatch(out.data(), 8);
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(out[0]->request_id, 1u);
}

TEST(RequestQueue, LoneRequestIsClaimedAsABatchOfOne) {
  RequestQueue queue(8, /*slots=*/1);
  auto r = MakeRequest(1);
  size_t depth = 99;
  ASSERT_TRUE(queue.Push(r, &depth).ok());
  EXPECT_EQ(depth, 1u);
  // Room for 32, but nothing else is queued: the claim returns the lone
  // request at once instead of waiting for batchmates.
  std::vector<std::unique_ptr<PendingRequest>> out(32);
  depth = 99;
  const size_t n = queue.PopBatch(out.data(), 32, &depth);
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(out[0]->request_id, 1u);
  EXPECT_EQ(depth, 0u);
}

TEST(RequestQueue, SweepsQueuedCompatibleRequestsUpToMaxBatch) {
  RequestQueue queue(16, /*slots=*/1);
  size_t depth = 0;
  for (uint64_t i = 0; i < 7; ++i) {
    // Request 2 carries a different ef and must be skipped, not claimed.
    auto r = MakeRequest(i, /*k=*/10, /*ef=*/i == 2 ? 128 : 64);
    ASSERT_TRUE(queue.Push(r, &depth).ok());
    EXPECT_EQ(depth, i + 1);
  }
  std::vector<std::unique_ptr<PendingRequest>> out(4);
  size_t n = queue.PopBatch(out.data(), 4, &depth);
  ASSERT_EQ(n, 4u);
  EXPECT_EQ(out[0]->request_id, 0u);
  EXPECT_EQ(out[1]->request_id, 1u);
  EXPECT_EQ(out[2]->request_id, 3u);
  EXPECT_EQ(out[3]->request_id, 4u);
  EXPECT_EQ(depth, 3u);  // 2, 5 and 6 are left behind
  queue.Release();
  n = queue.PopBatch(out.data(), 4, &depth);
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(out[0]->request_id, 2u);
  EXPECT_EQ(depth, 2u);
  queue.Release();
  n = queue.PopBatch(out.data(), 4, &depth);
  ASSERT_EQ(n, 2u);
  EXPECT_EQ(out[0]->request_id, 5u);
  EXPECT_EQ(out[1]->request_id, 6u);
  EXPECT_EQ(depth, 0u);
}

TEST(RequestQueue, IdleClaimerTakesNewWorkWhileTheOtherHoldsABatch) {
  RequestQueue queue(8, /*slots=*/2);
  std::atomic<int> claimed{0};
  std::atomic<bool> release{false};
  std::vector<size_t> sizes(2, 0);
  std::vector<uint64_t> ids(2, 0);
  // Two claimers blocked on an empty queue; each claims one batch and then
  // holds it (stays out of PopBatch) until the test releases them.
  std::vector<std::thread> claimers;
  claimers.reserve(2);
  for (int c = 0; c < 2; ++c) {
    claimers.emplace_back([&, c]() {
      std::vector<std::unique_ptr<PendingRequest>> out(32);
      sizes[c] = queue.PopBatch(out.data(), 32);
      if (sizes[c] > 0) ids[c] = out[0]->request_id;
      claimed.fetch_add(1);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  auto wait_for_claims = [&claimed](int want) {
    Timer wait;
    while (claimed.load() < want && wait.ElapsedSeconds() < 10.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return claimed.load();
  };
  auto a = MakeRequest(1);
  ASSERT_TRUE(queue.Push(a).ok());
  EXPECT_EQ(wait_for_claims(1), 1);
  // One claimer holds request 1. The next push must reach the other,
  // still-blocked claimer at once rather than wait for the first batch.
  auto b = MakeRequest(2);
  ASSERT_TRUE(queue.Push(b).ok());
  EXPECT_EQ(wait_for_claims(2), 2);
  release.store(true);
  queue.Close();  // frees a claimer left blocked by a failure above
  for (std::thread& t : claimers) t.join();
  EXPECT_EQ(sizes[0], 1u);
  EXPECT_EQ(sizes[1], 1u);
  EXPECT_EQ(ids[0] + ids[1], 3u);  // one claimed request 1, the other 2
}

TEST(RequestQueue, CloseWakesBlockedWorkers) {
  RequestQueue queue(8, /*slots=*/3);
  std::atomic<int> exited{0};
  std::vector<std::thread> workers;
  workers.reserve(3);
  for (int w = 0; w < 3; ++w) {
    workers.emplace_back([&queue, &exited]() {
      std::vector<std::unique_ptr<PendingRequest>> out(4);
      while (queue.PopBatch(out.data(), 4) != 0) {
        for (auto& r : out) r.reset();
        queue.Release();
      }
      exited.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.Close();
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(exited.load(), 3);
}

TEST(RequestQueue, TakeAllDrainsEverything) {
  RequestQueue queue(8, /*slots=*/1);
  for (uint64_t i = 0; i < 4; ++i) {
    auto r = MakeRequest(i, 10, 64, i % 2 == 0 ? 0 : 100);
    ASSERT_TRUE(queue.Push(r).ok());
  }
  queue.Close();
  const auto taken = queue.TakeAll();
  ASSERT_EQ(taken.size(), 4u);
  EXPECT_EQ(queue.Size(), 0u);
}

TEST(RequestQueue, ConcurrentPushersAndClaimersConserveRequests) {
  RequestQueue queue(64, /*slots=*/2);
  constexpr int kPushers = 4;
  constexpr int kPerPusher = 200;
  std::atomic<uint64_t> pushed{0};
  std::atomic<uint64_t> refused{0};
  std::atomic<uint64_t> claimed{0};
  std::atomic<bool> done_pushing{false};

  std::vector<std::thread> claimers;
  claimers.reserve(2);
  for (int c = 0; c < 2; ++c) {
    claimers.emplace_back([&]() {
      std::vector<std::unique_ptr<PendingRequest>> out(16);
      for (;;) {
        const size_t n = queue.PopBatch(out.data(), 16);
        if (n == 0) return;  // closed and empty
        claimed.fetch_add(n);
        for (size_t i = 0; i < n; ++i) out[i].reset();
        queue.Release();
      }
    });
  }
  std::vector<std::thread> pushers;
  pushers.reserve(kPushers);
  for (int p = 0; p < kPushers; ++p) {
    pushers.emplace_back([&, p]() {
      for (int i = 0; i < kPerPusher; ++i) {
        auto r = MakeRequest(static_cast<uint64_t>(p) * 1000 + i);
        if (queue.Push(r).ok()) {
          pushed.fetch_add(1);
        } else {
          refused.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : pushers) t.join();
  done_pushing.store(true);
  queue.Close();
  for (std::thread& t : claimers) t.join();
  // Every push either entered the queue (and was claimed before or after
  // Close) or was refused with a Status — nothing vanishes.
  EXPECT_EQ(pushed.load() + refused.load(),
            static_cast<uint64_t>(kPushers) * kPerPusher);
  EXPECT_EQ(claimed.load() + queue.TakeAll().size(), pushed.load());
}

TEST(RequestQueue, TryClaimIdleRefusesQueuedWorkFullSlotsAndClose) {
  RequestQueue queue(8, /*slots=*/2);
  // Idle: nothing queued and a slot free.
  ASSERT_TRUE(queue.TryClaimIdle());
  // A queued request must reach a worker first: never overtaken inline.
  auto r = MakeRequest(1);
  ASSERT_TRUE(queue.Push(r).ok());
  EXPECT_FALSE(queue.TryClaimIdle());
  std::vector<std::unique_ptr<PendingRequest>> out(4);
  ASSERT_EQ(queue.PopBatch(out.data(), 4), 1u);  // takes the second slot
  // Queue empty again, but both slots are taken.
  EXPECT_FALSE(queue.TryClaimIdle());
  queue.Release();
  EXPECT_TRUE(queue.TryClaimIdle());
  queue.Release();
  queue.Release();
  queue.Close();
  EXPECT_FALSE(queue.TryClaimIdle());
  // A server without workers has no slots: nothing ever dispatches.
  RequestQueue no_workers(8, /*slots=*/0);
  EXPECT_FALSE(no_workers.TryClaimIdle());
}

TEST(RequestQueue, PopBatchWaitsForAFreeSlot) {
  RequestQueue queue(8, /*slots=*/1);
  ASSERT_TRUE(queue.TryClaimIdle());  // an inline reader holds the slot
  auto r = MakeRequest(7);
  ASSERT_TRUE(queue.Push(r).ok());
  std::atomic<size_t> claimed{0};
  std::thread worker([&]() {
    std::vector<std::unique_ptr<PendingRequest>> out(4);
    claimed.store(queue.PopBatch(out.data(), 4));
    if (claimed.load() > 0) queue.Release();
  });
  // Work is queued, but the only slot is held: the worker must not claim.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(claimed.load(), 0u);
  EXPECT_EQ(queue.Size(), 1u);
  queue.Release();
  worker.join();
  EXPECT_EQ(claimed.load(), 1u);
  EXPECT_EQ(queue.Size(), 0u);
}

TEST(RequestQueue, ClosedQueueStillFlushesThroughSlots) {
  RequestQueue queue(8, /*slots=*/1);
  auto r = MakeRequest(1);
  ASSERT_TRUE(queue.Push(r).ok());
  queue.Close();
  std::vector<std::unique_ptr<PendingRequest>> out(4);
  // Drain: queued work is still claimed after Close, then the exit signal.
  ASSERT_EQ(queue.PopBatch(out.data(), 4), 1u);
  queue.Release();
  EXPECT_EQ(queue.PopBatch(out.data(), 4), 0u);
}

TEST(RequestQueue, DispatchesNeverExceedTheSlotsUnderContention) {
  constexpr size_t kSlots = 2;
  RequestQueue queue(16, kSlots);
  std::atomic<int> in_dispatch{0};
  std::atomic<int> peak{0};
  std::atomic<uint64_t> dispatched{0};
  std::atomic<uint64_t> pushed{0};
  // Between taking a slot and releasing it a claimer is "dispatching"; the
  // shared count must never pass the slot count, whoever holds the slots.
  const auto dispatch = [&](size_t batch) {
    const int now = in_dispatch.fetch_add(1) + 1;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::yield();
    dispatched.fetch_add(batch);
    in_dispatch.fetch_sub(1);
    queue.Release();
  };
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kSlots; ++w) {
    threads.emplace_back([&]() {  // scheduler workers
      std::vector<std::unique_ptr<PendingRequest>> out(8);
      for (;;) {
        const size_t n = queue.PopBatch(out.data(), 8);
        if (n == 0) return;
        for (size_t i = 0; i < n; ++i) out[i].reset();
        dispatch(n);
      }
    });
  }
  for (int p = 0; p < 3; ++p) {
    threads.emplace_back([&, p]() {  // readers: inline when idle, else push
      for (int i = 0; i < 2000; ++i) {
        if (queue.TryClaimIdle()) {
          pushed.fetch_add(1);
          dispatch(1);
          continue;
        }
        auto r = MakeRequest(static_cast<uint64_t>(p) * 10000 + i);
        if (queue.Push(r).ok()) pushed.fetch_add(1);
      }
    });
  }
  for (size_t t = kSlots; t < threads.size(); ++t) threads[t].join();
  queue.Close();
  for (size_t t = 0; t < kSlots; ++t) threads[t].join();
  EXPECT_LE(peak.load(), static_cast<int>(kSlots));
  EXPECT_GE(peak.load(), 1);
  // Every admitted request was dispatched exactly once, on either path.
  EXPECT_EQ(dispatched.load(), pushed.load());
}

}  // namespace
}  // namespace song::serve
