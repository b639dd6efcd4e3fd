// In-process integration tests for the framed TCP serving front-end
// (src/serve/server.h): exact results against a direct engine run,
// the outcome taxonomy (ok / shed / deadline / error), overload shedding,
// graceful drain, hostile streams, who dispatches (inline on an idle
// server, the workers for a pipelined backlog, never more batches at once
// than workers), write-through failures, and the conservation invariant
//
//   accepted == ok + shed + deadline + error
//
// after every scenario. All sockets are loopback on kernel-assigned ports.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/fault_injection.h"
#include "core/timer.h"
#include "data/synthetic.h"
#include "graph/nsw_builder.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "serve/frame.h"
#include "serve/server.h"
#include "song/batch_engine.h"
#include "song/song_searcher.h"

namespace song::serve {
namespace {

struct ServeFixture {
  Dataset data;
  Dataset queries;
  FixedDegreeGraph graph;

  static const ServeFixture& Get() {
    static ServeFixture* f = [] {
      auto* fx = new ServeFixture();
      SyntheticSpec spec;
      spec.name = "serve";
      spec.dim = 16;
      spec.num_points = 1500;
      spec.num_queries = 32;
      spec.seed = 424242;
      SyntheticData gen = GenerateSynthetic(spec);
      fx->data = std::move(gen.points);
      fx->queries = std::move(gen.queries);
      NswBuildOptions nsw;
      nsw.degree = 8;
      nsw.num_threads = 1;
      fx->graph = NswBuilder::Build(fx->data, Metric::kL2, nsw);
      return fx;
    }();
    return *f;
  }
};

std::vector<uint8_t> EncodeSearch(uint64_t tag, const std::vector<float>& query,
                                  uint32_t k, uint32_t ef = 0,
                                  uint64_t deadline_us = 0,
                                  uint64_t cost_budget = 0) {
  SearchRequestFrame request;
  request.client_tag = tag;
  request.k = k;
  request.queue_size = ef;
  request.deadline_us = deadline_us;
  request.cost_budget = cost_budget;
  request.query = query;
  std::vector<uint8_t> wire;
  EncodeSearchRequest(request, &wire);
  return wire;
}

/// Minimal framed-protocol client: one blocking connection driven from the
/// test thread.
class TestClient {
 public:
  explicit TestClient(uint16_t port, int io_timeout_ms = 5000) {
    Connect(port, io_timeout_ms);
  }

  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  Status SendSearch(uint64_t tag, const std::vector<float>& query,
                    uint32_t k, uint32_t ef = 0, uint64_t deadline_us = 0,
                    uint64_t cost_budget = 0) {
    return transport_->WriteBytes(
        EncodeSearch(tag, query, k, ef, deadline_us, cost_budget));
  }

  Status SendRaw(const std::vector<uint8_t>& bytes) {
    return transport_->WriteBytes(bytes);
  }

  /// Closes with an RST (SO_LINGER 0): the server's next write to this
  /// connection fails with ECONNRESET/EPIPE instead of being accepted.
  void ResetClose() {
    if (fd_ >= 0) {
      struct linger hard = {1, 0};
      ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
      ::close(fd_);
      fd_ = -1;
    }
  }

  StatusOr<SearchResponseFrame> ReadResponse() {
    StatusOr<Frame> frame = transport_->ReadFrame();
    SONG_RETURN_IF_ERROR(frame.status());
    if (frame.value().type != FrameType::kSearchResponse) {
      return Status::Internal("unexpected frame type");
    }
    return DecodeSearchResponse(frame.value().payload.data(),
                                frame.value().payload.size());
  }

  StatusOr<Frame> ReadFrame() { return transport_->ReadFrame(); }

  void AbruptClose() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  void Connect(uint16_t port, int io_timeout_ms) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd_, 0);
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    transport_ = std::make_unique<FrameTransport>(fd_, io_timeout_ms);
  }

  int fd_ = -1;
  std::unique_ptr<FrameTransport> transport_;
};

void ExpectConservation(const SongServer& server) {
  const ServeCounterSnapshot c = server.counters();
  EXPECT_EQ(c.accepted, c.ok + c.shed + c.deadline + c.error)
      << "accepted=" << c.accepted << " ok=" << c.ok << " shed=" << c.shed
      << " deadline=" << c.deadline << " error=" << c.error;
}

std::vector<float> QueryRow(size_t i) {
  const ServeFixture& fx = ServeFixture::Get();
  const float* row = fx.queries.Row(static_cast<idx_t>(i % fx.queries.num()));
  return std::vector<float>(row, row + fx.queries.dim());
}

/// ef of the blocker request: deadline-free and far wider than the
/// default, so it has its own BatchKey, is claimed alone and keeps a
/// one-worker server busy while the requests sent after it queue up.
constexpr uint32_t kBlockerEf = 1024;
constexpr uint64_t kBlockerTag = 1000;

/// Spins until the server has dispatched `n` batches (so the blocker holds
/// its dispatch slot), or ten seconds pass.
void WaitForBatches(const SongServer& server, uint64_t n) {
  Timer wait;
  while (server.counters().batches < n && wait.ElapsedSeconds() < 10.0) {
    std::this_thread::yield();
  }
  ASSERT_GE(server.counters().batches, n);
}

TEST(ServeServer, ResultsMatchDirectEngineRun) {
  const ServeFixture& fx = ServeFixture::Get();
  const SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  ServerOptions options;
  options.num_workers = 1;
  options.engine_threads = 1;
  obs::MetricsRegistry registry;
  SongServer server(&searcher, options, &registry);
  ASSERT_TRUE(server.Start().ok());

  constexpr size_t kK = 10;
  const BatchEngine direct(&searcher, 1);
  SongSearchOptions direct_options;
  direct_options.queue_size = options.default_queue_size;
  const auto expected =
      direct.TrySearch(fx.queries, kK, direct_options);
  ASSERT_TRUE(expected.ok());

  TestClient client(server.port());
  for (size_t q = 0; q < fx.queries.num(); ++q) {
    ASSERT_TRUE(client.SendSearch(q, QueryRow(q), kK).ok());
    const auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().client_tag, q);
    EXPECT_EQ(response.value().status_code, 0);
    ASSERT_EQ(response.value().results.size(),
              expected.value().results[q].size());
    for (size_t i = 0; i < response.value().results.size(); ++i) {
      EXPECT_EQ(response.value().results[i].id,
                expected.value().results[q][i].id)
          << "query " << q << " rank " << i;
    }
  }
  ASSERT_TRUE(server.Drain().ok());
  const ServeCounterSnapshot c = server.counters();
  EXPECT_EQ(c.accepted, fx.queries.num());
  EXPECT_EQ(c.ok, fx.queries.num());
  ExpectConservation(server);
}

TEST(ServeServer, PingPongAndStatusz) {
  const ServeFixture& fx = ServeFixture::Get();
  const SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  ServerOptions options;
  options.num_workers = 1;
  obs::MetricsRegistry registry;
  SongServer server(&searcher, options, &registry);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  std::vector<uint8_t> ping;
  AppendFrame(FrameType::kPing, nullptr, 0, &ping);
  ASSERT_TRUE(client.SendRaw(ping).ok());
  auto pong = client.ReadFrame();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong.value().type, FrameType::kPong);

  std::vector<uint8_t> statusz;
  AppendFrame(FrameType::kStatuszRequest, nullptr, 0, &statusz);
  ASSERT_TRUE(client.SendRaw(statusz).ok());
  auto dump = client.ReadFrame();
  ASSERT_TRUE(dump.ok());
  EXPECT_EQ(dump.value().type, FrameType::kStatuszResponse);
  const std::string json(
      reinterpret_cast<const char*>(dump.value().payload.data()),
      dump.value().payload.size());
  EXPECT_NE(json.find("\"serve\""), std::string::npos);
  EXPECT_NE(json.find("\"outcomes\""), std::string::npos);
  ASSERT_TRUE(server.Drain().ok());
  ExpectConservation(server);
}

TEST(ServeServer, ExpiredDeadlineSettlesAsDeadlineOutcome) {
  const ServeFixture& fx = ServeFixture::Get();
  const SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  ServerOptions options;
  options.num_workers = 1;
  options.engine_threads = 1;
  obs::MetricsRegistry registry;
  SongServer server(&searcher, options, &registry);
  ASSERT_TRUE(server.Start().ok());

  // The blocker on connection A takes the only dispatch slot (inline on its
  // reader, or on the worker). The 1 us deadline request on connection B
  // then queues behind that slot and is claimed only after the blocker's
  // search: long after it expired, which makes the queue-expiry path
  // deterministic. A trailing ping keeps B's socket non-idle, so its reader
  // pushes the request even if the blocker already finished.
  TestClient a(server.port());
  TestClient b(server.port());
  ASSERT_TRUE(a.SendSearch(kBlockerTag, QueryRow(1), 10, kBlockerEf).ok());
  WaitForBatches(server, 1);
  std::vector<uint8_t> wire =
      EncodeSearch(9, QueryRow(0), 10, 0, /*deadline_us=*/1);
  AppendFrame(FrameType::kPing, nullptr, 0, &wire);
  ASSERT_TRUE(b.SendRaw(wire).ok());

  const auto blocked = a.ReadResponse();
  ASSERT_TRUE(blocked.ok()) << blocked.status().ToString();
  EXPECT_EQ(blocked.value().client_tag, kBlockerTag);
  EXPECT_EQ(blocked.value().status_code, 0);
  for (int i = 0; i < 2; ++i) {
    const auto frame = b.ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    if (frame.value().type == FrameType::kPong) continue;
    ASSERT_EQ(frame.value().type, FrameType::kSearchResponse);
    const auto response = DecodeSearchResponse(frame.value().payload.data(),
                                               frame.value().payload.size());
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value().client_tag, 9u);
    EXPECT_EQ(response.value().status_code,
              static_cast<int32_t>(StatusCode::kDeadlineExceeded));
    EXPECT_TRUE(response.value().results.empty());
  }
  ASSERT_TRUE(server.Drain().ok());
  const ServeCounterSnapshot c = server.counters();
  EXPECT_EQ(c.ok, 1u);
  EXPECT_EQ(c.deadline, 1u);
  ExpectConservation(server);
}

TEST(ServeServer, QueueFullShedsImmediatelyAndDrainShedsTheRest) {
  const ServeFixture& fx = ServeFixture::Get();
  const SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  ServerOptions options;
  options.num_workers = 0;  // nothing claims: requests sit in the queue
  options.queue_capacity = 2;
  obs::MetricsRegistry registry;
  SongServer server(&searcher, options, &registry);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  for (uint64_t tag = 0; tag < 3; ++tag) {
    ASSERT_TRUE(client.SendSearch(tag, QueryRow(tag), 5).ok());
  }
  // Only the over-capacity request answers now — with the retryable shed.
  const auto shed = client.ReadResponse();
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed.value().client_tag, 2u);
  EXPECT_EQ(shed.value().status_code,
            static_cast<int32_t>(StatusCode::kUnavailable));

  // Drain must answer the two still queued (shed, never silently dropped).
  ASSERT_TRUE(server.Drain().ok());
  for (int i = 0; i < 2; ++i) {
    const auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status_code,
              static_cast<int32_t>(StatusCode::kUnavailable));
  }
  const ServeCounterSnapshot c = server.counters();
  EXPECT_EQ(c.accepted, 3u);
  EXPECT_EQ(c.shed, 3u);
  ExpectConservation(server);
}

TEST(ServeServer, DrainingShedsNewRequests) {
  const ServeFixture& fx = ServeFixture::Get();
  const SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  ServerOptions options;
  options.num_workers = 1;
  obs::MetricsRegistry registry;
  SongServer server(&searcher, options, &registry);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  // A ping round trip first: proves the connection is accepted and its
  // reader is live before the drain flips on (otherwise the connection
  // could still be sitting in the listen backlog when the accept loop
  // exits, and the request would never be read at all).
  std::vector<uint8_t> ping;
  AppendFrame(FrameType::kPing, nullptr, 0, &ping);
  ASSERT_TRUE(client.SendRaw(ping).ok());
  ASSERT_TRUE(client.ReadFrame().ok());

  server.RequestDrain();
  ASSERT_TRUE(client.SendSearch(1, QueryRow(0), 5).ok());
  const auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status_code,
            static_cast<int32_t>(StatusCode::kUnavailable));
  ASSERT_TRUE(server.Drain().ok());
  const ServeCounterSnapshot c = server.counters();
  EXPECT_EQ(c.shed, 1u);
  ExpectConservation(server);
}

TEST(ServeServer, InvalidRequestsSettleAsTypedErrors) {
  const ServeFixture& fx = ServeFixture::Get();
  const SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  ServerOptions options;
  options.num_workers = 1;
  obs::MetricsRegistry registry;
  SongServer server(&searcher, options, &registry);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  // k = 0 and dim mismatch: refused per-request, connection stays healthy.
  ASSERT_TRUE(client.SendSearch(1, QueryRow(0), /*k=*/0).ok());
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status_code,
            static_cast<int32_t>(StatusCode::kInvalidArgument));

  std::vector<float> wrong_dim(fx.data.dim() + 3, 0.5f);
  ASSERT_TRUE(client.SendSearch(2, wrong_dim, 5).ok());
  response = client.ReadResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status_code,
            static_cast<int32_t>(StatusCode::kInvalidArgument));

  // The connection survived both refusals: a valid request still works.
  ASSERT_TRUE(client.SendSearch(3, QueryRow(0), 5).ok());
  response = client.ReadResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status_code, 0);

  ASSERT_TRUE(server.Drain().ok());
  const ServeCounterSnapshot c = server.counters();
  EXPECT_EQ(c.accepted, 3u);
  EXPECT_EQ(c.error, 2u);
  EXPECT_EQ(c.ok, 1u);
  ExpectConservation(server);
}

TEST(ServeServer, HostileStreamClosesConnectionWithoutCrashing) {
  const ServeFixture& fx = ServeFixture::Get();
  const SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  ServerOptions options;
  options.num_workers = 1;
  obs::MetricsRegistry registry;
  SongServer server(&searcher, options, &registry);
  ASSERT_TRUE(server.Start().ok());

  {
    TestClient garbage(server.port());
    std::vector<uint8_t> junk(64);
    for (size_t i = 0; i < junk.size(); ++i) {
      junk[i] = static_cast<uint8_t>(i * 37 + 11);
    }
    ASSERT_TRUE(garbage.SendRaw(junk).ok());
    // The server hangs up on the corrupt stream (EOF at our end).
    const auto frame = garbage.ReadFrame();
    EXPECT_FALSE(frame.ok());
  }
  EXPECT_GE(registry.GetCounter("song.serve.frames.bad").Value(), 1u);

  // The server is still healthy for well-formed clients.
  TestClient client(server.port());
  ASSERT_TRUE(client.SendSearch(1, QueryRow(0), 5).ok());
  const auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status_code, 0);
  ASSERT_TRUE(server.Drain().ok());
  ExpectConservation(server);
}

TEST(ServeServer, MidFlightDisconnectStillSettlesEveryRequest) {
  const ServeFixture& fx = ServeFixture::Get();
  const SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  ServerOptions options;
  options.num_workers = 1;
  options.engine_threads = 1;
  obs::MetricsRegistry registry;
  SongServer server(&searcher, options, &registry);
  ASSERT_TRUE(server.Start().ok());

  {
    TestClient client(server.port());
    // The blocker holds the only worker; the four requests behind it sit
    // in the queue.
    ASSERT_TRUE(client.SendSearch(kBlockerTag, QueryRow(4), 5, kBlockerEf)
                    .ok());
    for (uint64_t tag = 0; tag < 4; ++tag) {
      ASSERT_TRUE(client.SendSearch(tag, QueryRow(tag), 5).ok());
    }
    // Wait until the server has decoded (accepted) all five — only then is
    // "vanish with requests in flight" the scenario under test.
    Timer wait;
    while (server.counters().accepted < 5 &&
           wait.ElapsedSeconds() < 10.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(server.counters().accepted, 5u);
    client.AbruptClose();  // vanish with 5 requests in flight
  }
  ASSERT_TRUE(server.Drain().ok());
  const ServeCounterSnapshot c = server.counters();
  EXPECT_EQ(c.accepted, 5u);
  ExpectConservation(server);
}

TEST(ServeServer, ServerStampsFullLifecycleTimelines) {
  const ServeFixture& fx = ServeFixture::Get();
  const SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  ServerOptions options;
  options.num_workers = 1;
  obs::MetricsRegistry registry;
  SongServer server(&searcher, options, &registry);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  constexpr uint64_t kRequests = 6;
  for (uint64_t tag = 0; tag < kRequests; ++tag) {
    ASSERT_TRUE(client.SendSearch(tag, QueryRow(tag), 5).ok());
    const auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok());
  }
  ASSERT_TRUE(server.Drain().ok());
  // Exactly one song.req.* record per accepted request — the engine's
  // per-request lifecycle is disabled on the serving path, so records are
  // not double-counted.
  EXPECT_EQ(registry.GetHistogram("song.req.total_us").Count(), kRequests);
  EXPECT_EQ(registry.GetCounter("song.serve.accepted").Value(), kRequests);
  ExpectConservation(server);
}

TEST(ServeServer, StartAfterDrainIsRefusedAndDrainIsIdempotent) {
  const ServeFixture& fx = ServeFixture::Get();
  const SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  ServerOptions options;
  options.num_workers = 1;
  SongServer server(&searcher, options, /*registry=*/nullptr);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_FALSE(server.Start().ok());  // double start
  ASSERT_TRUE(server.Drain().ok());
  ASSERT_TRUE(server.Drain().ok());  // idempotent
  ExpectConservation(server);
}

TEST(ServeServer, IdleServerAnswersOnTheReaderThread) {
  const ServeFixture& fx = ServeFixture::Get();
  const SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  ServerOptions options;
  options.num_workers = 1;
  options.engine_threads = 1;
  obs::MetricsRegistry registry;
  SongServer server(&searcher, options, &registry);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.SendSearch(5, QueryRow(5), 10).ok());
  const auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status_code, 0);
  ASSERT_TRUE(server.Drain().ok());

  const ServeCounterSnapshot c = server.counters();
  EXPECT_EQ(c.batches, 1u);
  EXPECT_EQ(c.inline_dispatches, 1u);
  const obs::Histogram& sizes = registry.GetHistogram("song.serve.batch_size");
  EXPECT_EQ(sizes.Count(), 1u);
  EXPECT_EQ(sizes.ObservedMax(), 1.0);
  // No queue stage: the reader claimed its own request at decode time, so
  // the response's queue_us is batch formation alone.
  const std::vector<obs::RequestRecord> records =
      server.flight_recorder().Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].queue_us, 0.0f);
  EXPECT_EQ(response.value().queue_us, records[0].batch_form_us);
  // Write-through still records the respond stage.
  EXPECT_EQ(registry.GetHistogram("song.req.respond_us").Count(), 1u);
  ExpectConservation(server);
}

TEST(ServeServer, PipelinedBurstStillReachesTheWorkers) {
  const ServeFixture& fx = ServeFixture::Get();
  const SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  ServerOptions options;
  options.num_workers = 1;
  options.engine_threads = 1;
  obs::MetricsRegistry registry;
  SongServer server(&searcher, options, &registry);
  ASSERT_TRUE(server.Start().ok());

  // One write carrying a blocker and 31 more requests: the reader sees
  // bytes waiting behind each frame but the last, so it pushes them, and
  // the worker sweeps the backlog that builds behind the blocker.
  constexpr uint64_t kBurst = 32;
  std::vector<uint8_t> burst =
      EncodeSearch(kBlockerTag, QueryRow(0), 10, kBlockerEf);
  for (uint64_t tag = 1; tag < kBurst; ++tag) {
    const std::vector<uint8_t> frame = EncodeSearch(tag, QueryRow(tag), 10);
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  TestClient client(server.port());
  ASSERT_TRUE(client.SendRaw(burst).ok());
  for (uint64_t i = 0; i < kBurst; ++i) {
    const auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status_code, 0);
  }
  ASSERT_TRUE(server.Drain().ok());
  EXPECT_GT(registry.GetHistogram("song.serve.batch_size").ObservedMax(),
            1.0);
  const ServeCounterSnapshot c = server.counters();
  EXPECT_EQ(c.ok, kBurst);
  EXPECT_LT(c.inline_dispatches, c.batches);
  EXPECT_EQ(registry.GetHistogram("song.req.respond_us").Count(), kBurst);
  ExpectConservation(server);
}

TEST(ServeServer, DispatchSlotsBoundBatchesAcrossBothPaths) {
  const ServeFixture& fx = ServeFixture::Get();
  const SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  ServerOptions options;
  options.num_workers = 2;
  options.engine_threads = 1;
  obs::MetricsRegistry registry;
  SongServer server(&searcher, options, &registry);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 8;
  constexpr uint64_t kPerClient = 40;
  std::atomic<uint64_t> answered_ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t]() {
      TestClient client(server.port());
      for (uint64_t i = 0; i < kPerClient; ++i) {
        const size_t row = static_cast<size_t>(t) * kPerClient + i;
        if (!client.SendSearch(row, QueryRow(row), 10).ok()) return;
        const auto response = client.ReadResponse();
        if (!response.ok()) return;
        if (response.value().status_code == 0) answered_ok.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_TRUE(server.Drain().ok());
  EXPECT_EQ(answered_ok.load(), kClients * kPerClient);
  const ServeCounterSnapshot c = server.counters();
  EXPECT_EQ(c.ok, kClients * kPerClient);
  EXPECT_LE(c.inline_dispatches, c.batches);
  ExpectConservation(server);
}

TEST(ServeServer, ClientVanishingBeforeItsInlineResponseIsAWriteError) {
  const ServeFixture& fx = ServeFixture::Get();
  const SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  ServerOptions options;
  options.num_workers = 1;
  options.engine_threads = 1;
  // The idle server runs the blocker on the reader; the client resets the
  // connection right after sending, normally long before that search ends,
  // so the write-through send meets a dead peer. A client thread descheduled
  // past the whole search loses the race and its response is delivered;
  // every attempt must still settle exactly once and account the response
  // as either written or lost, and the loss must show within a few tries.
  bool saw_write_error = false;
  for (int attempt = 0; attempt < 20 && !saw_write_error; ++attempt) {
    obs::MetricsRegistry registry;
    SongServer server(&searcher, options, &registry);
    ASSERT_TRUE(server.Start().ok());
    {
      TestClient client(server.port());
      ASSERT_TRUE(
          client.SendSearch(kBlockerTag, QueryRow(3), 10, kBlockerEf).ok());
      client.ResetClose();
    }
    Timer wait;
    while (server.counters().ok == 0 && wait.ElapsedSeconds() < 10.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(server.Drain().ok());
    const ServeCounterSnapshot c = server.counters();
    EXPECT_EQ(c.accepted, 1u);
    EXPECT_EQ(c.ok, 1u);  // settled once, as answered
    EXPECT_EQ(c.inline_dispatches, 1u);
    EXPECT_EQ(registry.GetHistogram("song.req.total_us").Count(), 1u);
    const uint64_t write_errors =
        registry.GetCounter("song.serve.write_errors").Value();
    EXPECT_EQ(write_errors +
                  registry.GetHistogram("song.req.respond_us").Count(),
              1u);
    ExpectConservation(server);
    saw_write_error = write_errors == 1;
  }
  EXPECT_TRUE(saw_write_error);
}

TEST(ServeServer, WriteFaultCoversTheWriteThroughSend) {
  const ServeFixture& fx = ServeFixture::Get();
  const SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  ServerOptions options;
  options.num_workers = 1;
  obs::MetricsRegistry registry;
  SongServer server(&searcher, options, &registry);
  ASSERT_TRUE(server.Start().ok());

  // The idle server answers inline, so the first serve.write roll is the
  // write-through send's: the fault severs the connection exactly as it
  // does on the writer thread.
  fault::ScopedFaultSpec faults("serve.write=1@1", 7);
  ASSERT_TRUE(faults.status().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.SendSearch(1, QueryRow(1), 10).ok());
  EXPECT_FALSE(client.ReadFrame().ok());  // severed, no response
  ASSERT_TRUE(server.Drain().ok());
  const ServeCounterSnapshot c = server.counters();
  EXPECT_EQ(c.accepted, 1u);
  EXPECT_EQ(c.ok, 1u);
  EXPECT_EQ(c.inline_dispatches, 1u);
  EXPECT_EQ(registry.GetCounter("song.serve.write_errors").Value(), 1u);
  EXPECT_EQ(registry.GetHistogram("song.req.respond_us").Count(), 0u);
  ExpectConservation(server);
}

}  // namespace
}  // namespace song::serve
