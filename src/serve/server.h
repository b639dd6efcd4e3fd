// Copyright 2026 The SONG-Repro Authors.
//
// The fault-tolerant serving front-end (docs/serving.md): a framed TCP
// server wrapping BatchEngine behind the admission queue and a
// work-conserving batching scheduler. Design contract — every failure path
// is a Status, never a crash, and every accepted request settles in exactly
// one accounted outcome:
//
//   song.serve.accepted == song.serve.outcome.ok + .shed + .deadline + .error
//
// Threads: one accept loop, one reader + one writer per connection, and
// `num_workers` scheduler workers. At most `num_workers` batches dispatch at
// once (RequestQueue's dispatch slots). A reader that decodes a request on
// an idle server — nothing queued, a slot free, no further bytes waiting on
// its socket — runs it itself as a batch of one and writes the response
// straight to its socket (run to completion). Every other request is
// Pushed; workers PopBatch (an idle worker claims queued work at once). One
// dispatch body serves both: it triages queue-expired deadlines, dispatches
// through BatchEngine::TrySearch and settles every claimed request. Writers
// drain per-connection outboxes so a slow client stalls only its own
// socket, never a scheduler worker. A client disconnect does not lose
// accounting: the request still settles (its response write fails and is
// counted in song.serve.write_errors).
//
// Drain (SIGTERM/SIGINT in the song_server binary): RequestDrain() stops
// admission — readers shed new search requests with kUnavailable — then
// Drain() closes the listener, flushes the queue through the workers (or a
// final shed sweep), answers every in-flight request, wakes blocked
// readers, joins everything and leaves the flight recorder intact for the
// post-mortem dump.

#ifndef SONG_SERVE_SERVER_H_
#define SONG_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/status.h"
#include "core/sync.h"
#include "core/timer.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/request_timeline.h"
#include "serve/frame.h"
#include "serve/request_queue.h"
#include "song/batch_engine.h"
#include "song/song_searcher.h"

namespace song::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = kernel-assigned ephemeral port (see port())
  size_t max_connections = 64;
  size_t queue_capacity = 256;   ///< pending requests before shedding
  size_t max_batch = 32;         ///< scheduler batch ceiling
  size_t num_workers = 2;        ///< scheduler threads and dispatch slots
                                 ///< (0 = test-only: nothing dispatches;
                                 ///< the queue drains as shed at Drain())
  size_t engine_threads = 0;     ///< BatchEngine workers, 0 = hardware
  int io_timeout_ms = 5000;      ///< slow-client read/write bound
  uint32_t default_queue_size = 64;  ///< ef when a request sends 0
  size_t flight_recorder_capacity = 512;
  /// git describe of the serving binary, surfaced in the statusz dump.
  std::string build_describe;
  /// Structure / traversal knobs applied to every request (per-request
  /// fields k / queue_size / deadline_us / cost_budget come from the wire).
  SongSearchOptions base_options;
};

/// Outcome counters as settled so far (reads are relaxed snapshots; after
/// Drain() they are exact and conserve: accepted == ok+shed+deadline+error),
/// plus the batches dispatched and how many of those ran inline on the
/// reader that decoded them (inline_dispatches <= batches).
struct ServeCounterSnapshot {
  uint64_t accepted = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t deadline = 0;
  uint64_t error = 0;
  uint64_t batches = 0;
  uint64_t inline_dispatches = 0;
};

class SongServer {
 public:
  /// `searcher` and `registry` must outlive the server; `registry` may be
  /// null (telemetry off — the flight recorder still records).
  SongServer(const SongSearcher* searcher, const ServerOptions& options,
             obs::MetricsRegistry* registry);
  ~SongServer();

  SongServer(const SongServer&) = delete;
  SongServer& operator=(const SongServer&) = delete;

  /// Binds, listens and spawns the accept loop + scheduler workers.
  Status Start();

  /// The bound port (resolves option port = 0 to the kernel's choice).
  uint16_t port() const { return port_; }

  /// Flips the server into draining mode: new search requests are shed
  /// with kUnavailable and the accept loop wakes to stop. Cheap, async,
  /// idempotent — the signal path calls this, then Drain().
  void RequestDrain();

  /// Full graceful shutdown: RequestDrain + close the listener, flush the
  /// queue (workers settle everything; without workers a final sweep sheds
  /// what is left), join all threads, close every connection. Idempotent;
  /// after it returns the outcome counters conserve exactly.
  Status Drain();

  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  ServeCounterSnapshot counters() const;

  /// The "serve" section of the statusz dump (obs::StatuszContext::
  /// serve_json): configuration, live queue/connection state and the
  /// outcome conservation inputs, as a JSON object.
  std::string ServeStatusJson() const;

  /// The full statusz document served to kStatuszRequest frames (metrics +
  /// flight recorder + the serve section). Falls back to ServeStatusJson()
  /// if the document would not fit in one frame.
  std::string StatuszPayload() const;

  obs::FlightRecorder& flight_recorder() { return flight_recorder_; }
  obs::MetricsRegistry* registry() const { return registry_; }
  const ServerOptions& options() const { return options_; }

 private:
  friend class Connection;

  /// The outcome taxonomy behind song.serve.outcome.*: kOk includes
  /// degraded-but-answered; kShed is admission-related refusal (queue full,
  /// draining) and always retryable; kDeadline is a budget that expired
  /// while queued; kError is everything else (validation, decode, injected
  /// faults, engine failures).
  enum class Outcome { kOk, kShed, kDeadline, kError };

  void AcceptLoop();
  /// PopBatch -> DispatchBatch -> Release until the queue closes and drains.
  void WorkerLoop();
  /// The dispatch body shared by workers and inline readers: settles
  /// requests that expired while queued, then searches the rest as one
  /// engine batch and settles each. `batch[0..n)` was claimed at
  /// `claim_us`; the caller holds a dispatch slot.
  void DispatchBatch(std::unique_ptr<PendingRequest>* batch, size_t n,
                     double claim_us);
  /// Sweeps finished connections (joins their threads). `all` waits for
  /// and joins every connection (drain path).
  void ReapConnections(bool all);

  /// The single settlement point: stamps the timeline, emits the
  /// RequestRecord (song.req.* + flight recorder), bumps exactly one
  /// song.serve.outcome.* counter and enqueues the response frame. Every
  /// accepted request passes through here exactly once.
  void SettleRequest(PendingRequest* request, const Status& status,
                     Outcome outcome, const std::vector<Neighbor>* results,
                     bool degraded, bool rejected, double search_begin_us,
                     double complete_us);

  /// Builds, admits and settles-on-refusal one decoded request; called by
  /// connection readers. Bumps song.serve.accepted. With `socket_idle` (no
  /// further request bytes waiting on the connection) and an idle server,
  /// dispatches it on the calling reader; otherwise Pushes it.
  void AdmitRequest(SearchRequestFrame frame,
                    const std::shared_ptr<Connection>& conn,
                    bool socket_idle);

  // Connection hooks for stream-level failures (not per-request).
  void BumpBadFrame();
  void BumpReadTimeout();
  void BumpWriteError();
  /// A response settled at `settled_us` has had its last byte written.
  void ObserveRespond(double settled_us);

  double NowUs() const { return clock_.ElapsedMicros(); }

  const SongSearcher* searcher_;
  const ServerOptions options_;
  obs::MetricsRegistry* registry_;
  BatchEngine engine_;
  obs::FlightRecorder flight_recorder_;
  obs::RequestMetrics request_metrics_;
  RequestQueue queue_;
  Timer clock_;  ///< server epoch; all RequestTimeline stamps use it

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  ///< wakes the accept loop's poll on drain
  uint16_t port_ = 0;

  std::atomic<bool> draining_{false};
  std::atomic<uint64_t> request_seq_{1};

  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  mutable Mutex conn_mu_;
  std::vector<std::shared_ptr<Connection>> connections_
      SONG_GUARDED_BY(conn_mu_);

  Mutex lifecycle_mu_;
  bool started_ SONG_GUARDED_BY(lifecycle_mu_) = false;
  bool drained_ SONG_GUARDED_BY(lifecycle_mu_) = false;

  // Resolved once; worker/reader threads bump without registry locks.
  // Null registry leaves them null and counting falls back to atomics only.
  obs::Counter* c_accepted_ = nullptr;
  obs::Counter* c_ok_ = nullptr;
  obs::Counter* c_shed_ = nullptr;
  obs::Counter* c_deadline_ = nullptr;
  obs::Counter* c_error_ = nullptr;
  obs::Counter* c_frames_bad_ = nullptr;
  obs::Counter* c_accept_errors_ = nullptr;
  obs::Counter* c_conn_opened_ = nullptr;
  obs::Counter* c_conn_rejected_ = nullptr;
  obs::Counter* c_write_errors_ = nullptr;
  obs::Counter* c_read_timeouts_ = nullptr;
  obs::Counter* c_batches_ = nullptr;
  obs::Counter* c_inline_dispatches_ = nullptr;
  obs::Counter* c_drains_ = nullptr;
  obs::Gauge* g_queue_depth_ = nullptr;
  obs::Gauge* g_connections_ = nullptr;
  obs::Gauge* g_draining_ = nullptr;
  obs::Histogram* h_batch_size_ = nullptr;
  obs::Histogram* h_respond_us_ = nullptr;

  // Registry-independent mirrors so counters()/conservation checks work
  // (and stay exact) even with telemetry off.
  std::atomic<uint64_t> n_accepted_{0};
  std::atomic<uint64_t> n_ok_{0};
  std::atomic<uint64_t> n_shed_{0};
  std::atomic<uint64_t> n_deadline_{0};
  std::atomic<uint64_t> n_error_{0};
  std::atomic<uint64_t> n_batches_{0};
  std::atomic<uint64_t> n_inline_dispatches_{0};
};

}  // namespace song::serve

#endif  // SONG_SERVE_SERVER_H_
