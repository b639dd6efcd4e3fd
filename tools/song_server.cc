// song_server — the fault-tolerant serving front-end (docs/serving.md).
//
//   song_server --data data.sngd --graph graph.sngg
//               [--host 127.0.0.1] [--port 0] [--port-file path]
//               [--metric l2|ip|cosine] [--config hashtable|sel|seldel|
//                bloom|cuckoo]
//               [--max-batch 32] [--queue-capacity 256]
//               [--max-connections 64] [--workers 2]
//               [--engine-threads 0] [--io-timeout-ms 5000]
//               [--default-queue-size 64]
//               [--fault-spec spec] [--fault-seed N]
//               [--statusz-on-exit out.json] [--duration-s N]
//
// Listens for SNGF frames (src/serve/frame.h), batches requests through the
// work-conserving scheduler and answers every accepted request with a
// typed Status. Prints "LISTENING port=N" once accepting (and writes the
// port to --port-file if given) so harnesses can wait for readiness without
// racing the bind.
//
// Shutdown: SIGTERM or SIGINT (or --duration-s elapsing) triggers the
// graceful drain — stop accepting, flush the queue, answer everything in
// flight — then dumps the flight recorder to stderr, writes the
// --statusz-on-exit document, prints the outcome-conservation summary
//
//   DRAINED accepted=A ok=B shed=C deadline=D error=E
//
// and exits 0. A second signal during the drain is ignored (the drain is
// already running and always terminates).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <initializer_list>
#include <map>
#include <string>

#include "core/fault_injection.h"
#include "obs/exporters.h"
#include "serve/server.h"
#include "song/song_searcher.h"

#ifndef SONG_GIT_DESCRIBE
#define SONG_GIT_DESCRIBE "unknown"
#endif

namespace {

using namespace song;  // NOLINT: CLI main file

using Flags = std::map<std::string, std::string>;

Flags ParseFlags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      std::exit(2);
    }
    arg = arg.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags[arg] = argv[++i];
    } else {
      flags[arg] = "1";
    }
  }
  return flags;
}

void CheckFlags(const Flags& flags,
                std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : flags) {
    bool known = false;
    for (const char* a : allowed) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
      std::exit(2);
    }
  }
}

std::string Require(const Flags& flags, const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) {
    std::fprintf(stderr, "missing required flag --%s\n", key.c_str());
    std::exit(2);
  }
  return it->second;
}

std::string Optional(const Flags& flags, const std::string& key,
                     const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

uint64_t ParseUint(const Flags& flags, const std::string& key,
                   const std::string& fallback) {
  const std::string value = Optional(flags, key, fallback);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || value[0] == '-' || end == value.c_str() ||
      *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr,
                 "flag --%s expects a non-negative integer, got \"%s\"\n",
                 key.c_str(), value.c_str());
    std::exit(2);
  }
  return v;
}

Metric ParseMetric(const std::string& name) {
  if (name == "l2") return Metric::kL2;
  if (name == "ip") return Metric::kInnerProduct;
  if (name == "cosine") return Metric::kCosine;
  std::fprintf(stderr, "unknown metric: %s\n", name.c_str());
  std::exit(2);
}

SongSearchOptions ParseConfig(const std::string& name) {
  if (name == "hashtable") return SongSearchOptions::HashTable();
  if (name == "sel") return SongSearchOptions::HashTableSel();
  if (name == "seldel") return SongSearchOptions::HashTableSelDel();
  if (name == "bloom") return SongSearchOptions::Bloom();
  if (name == "cuckoo") return SongSearchOptions::Cuckoo();
  std::fprintf(stderr, "unknown config: %s\n", name.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv, 1);
  CheckFlags(flags,
             {"data", "graph", "host", "port", "port-file", "metric",
              "config", "max-batch", "queue-capacity", "max-connections",
              "workers", "engine-threads", "io-timeout-ms",
              "default-queue-size", "fault-spec", "fault-seed",
              "statusz-on-exit", "duration-s"});

  const std::string fault_spec = Optional(flags, "fault-spec", "");
  if (!fault_spec.empty()) {
    const uint64_t fault_seed = ParseUint(flags, "fault-seed", "42");
    const Status fs =
        fault::FaultRegistry::Global().Configure(fault_spec, fault_seed);
    if (!fs.ok()) {
      std::fprintf(stderr, "invalid --fault-spec: %s\n",
                   fs.ToString().c_str());
      return fs.ExitCode();
    }
  } else if (flags.count("fault-seed") != 0) {
    std::fprintf(stderr, "--fault-seed requires --fault-spec\n");
    return 2;
  }

  auto data_loaded = Dataset::Load(Require(flags, "data"));
  if (!data_loaded.ok()) {
    std::fprintf(stderr, "%s\n", data_loaded.status().ToString().c_str());
    return data_loaded.status().ExitCode();
  }
  const Dataset data = std::move(data_loaded.value());
  auto graph_loaded = FixedDegreeGraph::Load(Require(flags, "graph"));
  if (!graph_loaded.ok()) {
    std::fprintf(stderr, "%s\n", graph_loaded.status().ToString().c_str());
    return graph_loaded.status().ExitCode();
  }
  const FixedDegreeGraph graph = std::move(graph_loaded.value());
  const Metric metric = ParseMetric(Optional(flags, "metric", "l2"));
  const SongSearcher searcher(&data, &graph, metric, /*entry=*/0);

  serve::ServerOptions options;
  options.host = Optional(flags, "host", "127.0.0.1");
  options.port = static_cast<uint16_t>(ParseUint(flags, "port", "0"));
  options.max_connections = ParseUint(flags, "max-connections", "64");
  options.queue_capacity = ParseUint(flags, "queue-capacity", "256");
  options.max_batch = ParseUint(flags, "max-batch", "32");
  options.num_workers = ParseUint(flags, "workers", "2");
  options.engine_threads = ParseUint(flags, "engine-threads", "0");
  options.io_timeout_ms =
      static_cast<int>(ParseUint(flags, "io-timeout-ms", "5000"));
  options.default_queue_size = static_cast<uint32_t>(
      ParseUint(flags, "default-queue-size", "64"));
  options.build_describe = SONG_GIT_DESCRIBE;
  options.base_options = ParseConfig(Optional(flags, "config", "seldel"));
  if (options.max_batch == 0) {
    std::fprintf(stderr, "flag --max-batch must be >= 1\n");
    return 2;
  }
  if (options.num_workers == 0) {
    std::fprintf(stderr, "flag --workers must be >= 1\n");
    return 2;
  }

  // Block the shutdown signals in every thread (the server's threads
  // inherit this mask) so they are consumed only by the sigtimedwait below
  // — the drain runs on the main thread, never in a signal handler.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  if (pthread_sigmask(SIG_BLOCK, &sigs, nullptr) != 0) {
    std::fprintf(stderr, "pthread_sigmask failed: errno %d\n", errno);
    return 1;
  }
  std::signal(SIGPIPE, SIG_IGN);  // belt to MSG_NOSIGNAL's suspenders

  obs::MetricsRegistry registry;
  serve::SongServer server(&searcher, options, &registry);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return started.ExitCode();
  }
  std::printf("LISTENING port=%u\n", static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  const std::string port_file = Optional(flags, "port-file", "");
  if (!port_file.empty()) {
    const std::string content = std::to_string(server.port()) + "\n";
    if (!obs::WriteStringToFile(port_file, content)) return 1;
  }

  const uint64_t duration_s = ParseUint(flags, "duration-s", "0");
  const char* why = "signal";
  if (duration_s > 0) {
    struct timespec wait;
    wait.tv_sec = static_cast<time_t>(duration_s);
    wait.tv_nsec = 0;
    // Shutdown on whichever comes first: a signal or the duration.
    const int sig = sigtimedwait(&sigs, nullptr, &wait);
    if (sig < 0) why = "duration elapsed";
  } else {
    int sig = 0;
    if (sigwait(&sigs, &sig) != 0) {
      std::fprintf(stderr, "sigwait failed: errno %d\n", errno);
    }
  }
  std::fprintf(stderr, "shutting down (%s): draining\n", why);

  const Status drained = server.Drain();
  if (!drained.ok()) {
    std::fprintf(stderr, "drain: %s\n", drained.ToString().c_str());
  }
  std::fprintf(stderr, "flight recorder (drain post-mortem):\n");
  std::fputs(server.flight_recorder().ToJson().c_str(), stderr);

  const std::string statusz_path = Optional(flags, "statusz-on-exit", "");
  int status = 0;
  if (!statusz_path.empty()) {
    if (!obs::WriteStringToFile(statusz_path, server.StatuszPayload())) {
      status = 1;
    } else {
      std::printf("wrote statusz to %s\n", statusz_path.c_str());
    }
  }

  const serve::ServeCounterSnapshot c = server.counters();
  std::printf("DRAINED accepted=%llu ok=%llu shed=%llu deadline=%llu "
              "error=%llu\n",
              static_cast<unsigned long long>(c.accepted),
              static_cast<unsigned long long>(c.ok),
              static_cast<unsigned long long>(c.shed),
              static_cast<unsigned long long>(c.deadline),
              static_cast<unsigned long long>(c.error));
  if (c.accepted != c.ok + c.shed + c.deadline + c.error) {
    std::fprintf(stderr,
                 "outcome conservation violated: accepted != "
                 "ok+shed+deadline+error\n");
    return 1;
  }
  return status;
}
