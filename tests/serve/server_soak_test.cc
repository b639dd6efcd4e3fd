// Chaos soak for the serving front-end (ISSUE acceptance gate): concurrent
// clients over loopback, a fault-injection spec arming the serve.* sites,
// abrupt mid-stream disconnects, hostile frames, and a graceful drain fired
// in the middle of traffic. The single invariant everything rolls up to:
// every accepted request terminates in exactly one accounted outcome —
//
//   accepted == ok + shed + deadline + error
//
// and the song.req.* pipeline saw exactly one record per accepted request.
//
// Runtime scales with SONG_SOAK_SECONDS (default 2 s here; the CI
// serve-soak leg runs 60 s under ASan and TSan).

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/fault_injection.h"
#include "core/random.h"
#include "core/timer.h"
#include "data/synthetic.h"
#include "graph/nsw_builder.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "serve/frame.h"
#include "serve/server.h"
#include "song/song_searcher.h"

namespace song::serve {
namespace {

double SoakSeconds() {
  const char* env = std::getenv("SONG_SOAK_SECONDS");
  if (env == nullptr) return 2.0;
  const double s = std::atof(env);
  return s > 0 ? s : 2.0;
}

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// One chaotic client: loops connect -> a burst of requests with randomized
/// shapes -> one of {read responses, vanish abruptly, send garbage}.
void ChaosClient(uint16_t port, size_t dim, double until_s, uint64_t seed,
                 std::atomic<uint64_t>* requests_sent) {
  RandomEngine rng(seed);
  Timer clock;
  std::vector<float> query(dim);
  while (clock.ElapsedSeconds() < until_s) {
    const int fd = ConnectLoopback(port);
    if (fd < 0) {
      // Draining or over max_connections: back off briefly and retry.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    FrameTransport transport(fd, /*io_timeout_ms=*/2000);
    const size_t burst = 1 + rng.Next() % 8;
    const uint32_t fate = static_cast<uint32_t>(rng.Next() % 10);
    size_t sent = 0;
    for (size_t i = 0; i < burst; ++i) {
      SearchRequestFrame request;
      request.client_tag = rng.Next();
      request.k = 1 + static_cast<uint32_t>(rng.Next() % 10);
      request.queue_size = rng.Next() % 3 == 0 ? 32 : 0;
      request.deadline_us = rng.Next() % 4 == 0 ? 1 + rng.Next() % 3000 : 0;
      request.cost_budget = rng.Next() % 5 == 0 ? 100 : 0;
      for (float& v : query) {
        v = static_cast<float>(rng.NextUniform(-1.0, 1.0));
      }
      request.query = query;
      if (rng.Next() % 16 == 0) request.k = 0;  // invalid on purpose
      std::vector<uint8_t> wire;
      EncodeSearchRequest(request, &wire);
      if (!transport.WriteBytes(wire).ok()) break;
      ++sent;
    }
    requests_sent->fetch_add(sent, std::memory_order_relaxed);
    if (fate < 6) {
      // Well-behaved: read every response (any Status is acceptable).
      for (size_t i = 0; i < sent; ++i) {
        if (!transport.ReadFrame().ok()) break;
      }
    } else if (fate < 9) {
      // Vanish with responses in flight: the server must still settle
      // every one of these requests.
    } else {
      // Turn hostile: garbage bytes mid-stream.
      std::vector<uint8_t> junk(16 + rng.Next() % 64);
      for (uint8_t& b : junk) b = static_cast<uint8_t>(rng.Next());
      const Status ignored = transport.WriteBytes(junk);
      if (!ignored.ok() && sent == 0) {
        // Nothing was in flight and the write failed: connection is dead.
      }
    }
    ::close(fd);
  }
}

TEST(ServeSoak, ChaosTrafficConservesEveryOutcome) {
  SyntheticSpec spec;
  spec.name = "soak";
  spec.dim = 12;
  spec.num_points = 1200;
  spec.num_queries = 4;
  spec.seed = 31337;
  SyntheticData gen = GenerateSynthetic(spec);
  NswBuildOptions nsw;
  nsw.degree = 8;
  nsw.num_threads = 1;
  const FixedDegreeGraph graph =
      NswBuilder::Build(gen.points, Metric::kL2, nsw);
  const SongSearcher searcher(&gen.points, &graph, Metric::kL2);

  // Arm every serve.* fault site at low probability so all the injected
  // failure paths are exercised without drowning out real traffic.
  fault::ScopedFaultSpec faults(
      "serve.dispatch=0.03,serve.write=0.02,serve.accept=0.05",
      /*seed=*/20260808);

  ServerOptions options;
  options.num_workers = 2;
  options.engine_threads = 2;
  options.queue_capacity = 64;  // small enough that bursts hit the shed path
  options.max_batch = 8;
  options.io_timeout_ms = 2000;
  obs::MetricsRegistry registry;
  SongServer server(&searcher, options, &registry);
  ASSERT_TRUE(server.Start().ok());

  const double soak_s = SoakSeconds();
  constexpr size_t kClients = 6;
  std::atomic<uint64_t> requests_sent{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back(ChaosClient, server.port(), spec.dim, soak_s,
                         0xabcdef12u + 977 * c, &requests_sent);
  }

  // Fire the graceful drain in the middle of live traffic: clients keep
  // hammering (their sends start failing / getting shed) while the server
  // flushes and answers everything already accepted.
  std::this_thread::sleep_for(std::chrono::duration<double>(soak_s * 0.6));
  ASSERT_TRUE(server.Drain().ok());
  for (std::thread& t : clients) t.join();

  const ServeCounterSnapshot c = server.counters();
  EXPECT_EQ(c.accepted, c.ok + c.shed + c.deadline + c.error)
      << "conservation violated: accepted=" << c.accepted << " ok=" << c.ok
      << " shed=" << c.shed << " deadline=" << c.deadline
      << " error=" << c.error;
  // The soak is vacuous if nothing made it in.
  EXPECT_GT(requests_sent.load(), 0u);
  EXPECT_GT(c.accepted, 0u);
  // Exactly one request record per accepted request (no engine
  // double-count, no dropped settle).
  EXPECT_EQ(registry.GetHistogram("song.req.total_us").Count(), c.accepted);
  // Metric counters agree with the atomic mirrors.
  EXPECT_EQ(registry.GetCounter("song.serve.accepted").Value(), c.accepted);
  EXPECT_EQ(registry.GetCounter("song.serve.outcome.ok").Value(), c.ok);
  EXPECT_EQ(registry.GetCounter("song.serve.outcome.shed").Value(), c.shed);
  EXPECT_EQ(registry.GetCounter("song.serve.outcome.deadline").Value(),
            c.deadline);
  EXPECT_EQ(registry.GetCounter("song.serve.outcome.error").Value(),
            c.error);
}

TEST(ServeSoak, RepeatedDrainCyclesStayClean) {
  // Start/drain several servers back to back: every cycle must release its
  // port, threads and connections (leaks/races surface under the
  // sanitizer legs).
  SyntheticSpec spec;
  spec.name = "soak-cycle";
  spec.dim = 8;
  spec.num_points = 400;
  spec.num_queries = 2;
  spec.seed = 99;
  SyntheticData gen = GenerateSynthetic(spec);
  NswBuildOptions nsw;
  nsw.degree = 6;
  nsw.num_threads = 1;
  const FixedDegreeGraph graph =
      NswBuilder::Build(gen.points, Metric::kL2, nsw);
  const SongSearcher searcher(&gen.points, &graph, Metric::kL2);

  for (int cycle = 0; cycle < 5; ++cycle) {
    ServerOptions options;
    options.num_workers = 1;
    options.engine_threads = 1;
    SongServer server(&searcher, options, /*registry=*/nullptr);
    ASSERT_TRUE(server.Start().ok());
    const int fd = ConnectLoopback(server.port());
    ASSERT_GE(fd, 0);
    FrameTransport transport(fd, 2000);
    SearchRequestFrame request;
    request.client_tag = static_cast<uint64_t>(cycle);
    request.k = 3;
    request.query.assign(spec.dim, 0.25f);
    std::vector<uint8_t> wire;
    EncodeSearchRequest(request, &wire);
    ASSERT_TRUE(transport.WriteBytes(wire).ok());
    const auto frame = transport.ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ::close(fd);
    ASSERT_TRUE(server.Drain().ok());
    const ServeCounterSnapshot c = server.counters();
    EXPECT_EQ(c.accepted, c.ok + c.shed + c.deadline + c.error);
  }
}

}  // namespace
}  // namespace song::serve
