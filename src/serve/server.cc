#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <deque>
#include <utility>

#include "core/fault_injection.h"
#include "core/logging.h"
#include "obs/exporters.h"
#include "serve/frame.h"

namespace song::serve {

namespace {

void Appendf(std::string* out, const char* fmt, ...) {
  char buffer[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  if (n > 0) out->append(buffer, std::min<size_t>(n, sizeof(buffer) - 1));
}

void Bump(obs::Counter* counter, uint64_t n = 1) {
  if (counter != nullptr) counter->Increment(n);
}

}  // namespace

/// One accepted socket: a reader thread decoding frames into admissions and
/// a writer thread draining the response outbox. The writer exists so a
/// slow client's full socket buffer backs up only this connection's outbox
/// — scheduler workers enqueue a settled response and move on. A reader
/// that ran its own request inline writes that response itself when
/// nothing else is pending or in flight (write-through), without blocking:
/// what the socket does not take at once goes to the front of the outbox.
/// The connection outlives its socket's usefulness: requests in flight hold
/// a shared_ptr, so a mid-stream disconnect still gets every outcome
/// accounted (the writes fail and are counted, never silently dropped).
class Connection : public std::enable_shared_from_this<Connection> {
 public:
  Connection(SongServer* server, int fd)
      : server_(server),
        fd_(fd),
        transport_(fd, server->options().io_timeout_ms) {}

  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void Start() {
    reader_ = std::thread(&Connection::ReaderLoop, this);
    writer_ = std::thread(&Connection::WriterLoop, this);
  }

  /// Wakes a blocked reader with EOF (drain). Pending responses still
  /// flush: only the read half closes.
  void BeginShutdown() { ::shutdown(fd_, SHUT_RD); }

  void Join() {
    if (reader_.joinable()) reader_.join();
    if (writer_.joinable()) writer_.join();
  }

  bool finished() const { return finished_.load(std::memory_order_acquire); }

  /// Queues one encoded frame for the writer. `settled_us` is a search
  /// response's settle stamp (song.req.respond_us runs from it to the last
  /// byte written), negative for other frames. With `write_through` — the
  /// reader settling its own inline request — and nothing pending or in
  /// flight, sends it directly instead. Unbounded, but naturally capped: at
  /// most queue_capacity + inflight settled responses plus small
  /// ping/statusz replies can be pending per connection.
  void EnqueueFrame(std::vector<uint8_t> bytes, double settled_us = -1.0,
                    bool write_through = false) SONG_EXCLUDES(mu_) {
    OutFrame frame;
    frame.bytes = std::move(bytes);
    frame.settled_us = settled_us;
    {
      MutexLock lock(mu_);
      if (!write_through || writing_ || write_failed_ || !outbox_.empty()) {
        outbox_.push_back(std::move(frame));
        outbox_cv_.NotifyOne();
        return;
      }
      writing_ = true;
    }
    const bool ok = Send(&frame, /*blocking=*/false);
    MutexLock lock(mu_);
    writing_ = false;
    if (!ok) {
      write_failed_ = true;
    } else if (frame.sent < frame.bytes.size()) {
      outbox_.push_front(std::move(frame));
    }
    if (!outbox_.empty()) outbox_cv_.NotifyOne();
  }

  /// Admission bookkeeping: issued when a search request is decoded,
  /// settled exactly once by SongServer::SettleRequest. The writer only
  /// exits once the reader is done AND nothing is outstanding, so every
  /// accepted request's response gets its write attempt.
  void NoteIssued() SONG_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    ++outstanding_;
  }

  void NoteSettled() SONG_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    SONG_CHECK(outstanding_ > 0);
    --outstanding_;
    // Only the writer's exit condition needs a wake-up here; new frames
    // wake it from EnqueueFrame.
    if (reader_done_ && outstanding_ == 0) outbox_cv_.NotifyAll();
  }

 private:
  /// One frame owed to the socket.
  struct OutFrame {
    std::vector<uint8_t> bytes;
    double settled_us = -1.0;  ///< search responses only; < 0 otherwise
    size_t sent = 0;           ///< bytes already written by write-through
  };

  void ReaderLoop() {
    bool keep_reading = true;
    while (keep_reading) {
      StatusOr<Frame> frame = transport_.ReadFrame();
      if (!frame.ok()) {
        const StatusCode code = frame.status().code();
        if (code == StatusCode::kDeadlineExceeded) {
          server_->BumpReadTimeout();
        } else if (code != StatusCode::kUnavailable) {
          // kUnavailable is the orderly close; everything else is a
          // truncated/hostile stream.
          server_->BumpBadFrame();
        }
        break;
      }
      switch (frame.value().type) {
        case FrameType::kPing: {
          std::vector<uint8_t> out;
          AppendFrame(FrameType::kPong, nullptr, 0, &out);
          EnqueueFrame(std::move(out));
          break;
        }
        case FrameType::kStatuszRequest: {
          const std::string json = server_->StatuszPayload();
          std::vector<uint8_t> out;
          AppendFrame(FrameType::kStatuszResponse,
                      reinterpret_cast<const uint8_t*>(json.data()),
                      json.size(), &out);
          EnqueueFrame(std::move(out));
          break;
        }
        case FrameType::kSearchRequest: {
          const std::vector<uint8_t>& payload = frame.value().payload;
          StatusOr<SearchRequestFrame> request =
              DecodeSearchRequest(payload.data(), payload.size());
          if (!request.ok()) {
            // Typed refusal, then hang up: the stream is corrupt and frame
            // boundaries can no longer be trusted.
            server_->BumpBadFrame();
            SearchResponseFrame response;
            response.client_tag = 0;
            response.status_code =
                static_cast<int32_t>(request.status().code());
            response.message = request.status().message();
            std::vector<uint8_t> out;
            EncodeSearchResponse(response, &out);
            EnqueueFrame(std::move(out));
            keep_reading = false;
            break;
          }
          // Only a socket with no further request bytes waiting may run its
          // request inline: a pipelining client's backlog goes to the
          // workers and forms batches instead of waiting unread behind this
          // search. ReadFrame buffers nothing past the frame, so FIONREAD
          // counts exactly the later frames.
          int waiting = 0;
          const bool socket_idle =
              ::ioctl(fd_, FIONREAD, &waiting) == 0 && waiting == 0;
          server_->AdmitRequest(std::move(request).value(),
                                shared_from_this(), socket_idle);
          break;
        }
        default:
          // kPong / kSearchResponse / kStatuszResponse from a client is a
          // protocol violation.
          server_->BumpBadFrame();
          keep_reading = false;
          break;
      }
    }
    MutexLock lock(mu_);
    reader_done_ = true;
    outbox_cv_.NotifyAll();
  }

  void WriterLoop() {
    for (;;) {
      OutFrame frame;
      bool discard = false;
      {
        MutexLock lock(mu_);
        while (writing_ ||
               (outbox_.empty() && !(reader_done_ && outstanding_ == 0))) {
          outbox_cv_.Wait(mu_);
        }
        if (outbox_.empty()) break;  // reader done, everything settled
        frame = std::move(outbox_.front());
        outbox_.pop_front();
        discard = write_failed_;
        writing_ = !discard;
      }
      if (discard) continue;
      const bool ok = Send(&frame, /*blocking=*/true);
      MutexLock lock(mu_);
      writing_ = false;
      if (!ok) write_failed_ = true;
    }
    finished_.store(true, std::memory_order_release);
  }

  /// Writes what is left of `frame`: all of it (blocking, on the writer
  /// thread, each wait bounded by the I/O timeout) or what the socket takes
  /// at once (write-through, never blocking the reader). Both paths roll
  /// the serve.write fault site once per frame and account failures alike.
  /// Returns false on the connection's first write failure; the caller
  /// records it so later frames drain as discards.
  bool Send(OutFrame* frame, bool blocking) {
    // Deterministic chaos (docs/robustness.md): serve.write simulates the
    // peer vanishing between settle and flush.
    bool ok = frame->sent > 0 ||
              !fault::FaultRegistry::Global().ShouldFail("serve.write");
    while (ok && frame->sent < frame->bytes.size()) {
      const uint8_t* rest = frame->bytes.data() + frame->sent;
      const size_t len = frame->bytes.size() - frame->sent;
      if (blocking) {
        ok = transport_.WriteBytes(rest, len).ok();
        if (ok) frame->sent += len;
        continue;
      }
      // MSG_NOSIGNAL: a vanished peer is EPIPE here, never a SIGPIPE.
      const ssize_t n = ::send(fd_, rest, len, MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n >= 0) {
        frame->sent += static_cast<size_t>(n);
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return true;  // full socket buffer: the writer sends the rest
      } else if (errno != EINTR) {
        ok = false;  // EPIPE, ECONNRESET, ...
      }
    }
    if (!ok) {
      // The settle already accounted the request; the lost response is
      // counted here and the remaining outbox drains as discards so
      // settles never block on a dead peer.
      server_->BumpWriteError();
      ::shutdown(fd_, SHUT_RDWR);
      return false;
    }
    if (frame->settled_us >= 0.0) server_->ObserveRespond(frame->settled_us);
    return true;
  }

  SongServer* server_;
  int fd_;
  FrameTransport transport_;
  std::thread reader_;
  std::thread writer_;

  Mutex mu_;
  CondVar outbox_cv_;
  std::deque<OutFrame> outbox_ SONG_GUARDED_BY(mu_);
  size_t outstanding_ SONG_GUARDED_BY(mu_) = 0;
  bool reader_done_ SONG_GUARDED_BY(mu_) = false;
  /// A write is in flight (writer or write-through): frames never
  /// interleave on the socket.
  bool writing_ SONG_GUARDED_BY(mu_) = false;
  /// The first write failed: the socket is severed and what is left of the
  /// outbox drains as discards.
  bool write_failed_ SONG_GUARDED_BY(mu_) = false;
  std::atomic<bool> finished_{false};
};

SongServer::SongServer(const SongSearcher* searcher,
                       const ServerOptions& options,
                       obs::MetricsRegistry* registry)
    : searcher_(searcher),
      options_(options),
      registry_(registry),
      engine_(searcher, options.engine_threads),
      flight_recorder_(options.flight_recorder_capacity),
      request_metrics_(registry),
      queue_(options.queue_capacity, options.num_workers) {
  SONG_CHECK(searcher != nullptr);
  if (registry_ != nullptr) {
    c_accepted_ = &registry_->GetCounter("song.serve.accepted");
    c_ok_ = &registry_->GetCounter("song.serve.outcome.ok");
    c_shed_ = &registry_->GetCounter("song.serve.outcome.shed");
    c_deadline_ = &registry_->GetCounter("song.serve.outcome.deadline");
    c_error_ = &registry_->GetCounter("song.serve.outcome.error");
    c_frames_bad_ = &registry_->GetCounter("song.serve.frames.bad");
    c_accept_errors_ = &registry_->GetCounter("song.serve.accept_errors");
    c_conn_opened_ = &registry_->GetCounter("song.serve.conn.opened");
    c_conn_rejected_ = &registry_->GetCounter("song.serve.conn.rejected");
    c_write_errors_ = &registry_->GetCounter("song.serve.write_errors");
    c_read_timeouts_ = &registry_->GetCounter("song.serve.read_timeouts");
    c_batches_ = &registry_->GetCounter("song.serve.batches");
    c_inline_dispatches_ =
        &registry_->GetCounter("song.serve.inline_dispatches");
    c_drains_ = &registry_->GetCounter("song.serve.drains");
    g_queue_depth_ = &registry_->GetGauge("song.serve.queue_depth");
    g_connections_ = &registry_->GetGauge("song.serve.connections");
    g_draining_ = &registry_->GetGauge("song.serve.draining");
    h_batch_size_ = &registry_->GetHistogram("song.serve.batch_size");
    h_respond_us_ = &registry_->GetHistogram("song.req.respond_us");
  }
}

SongServer::~SongServer() {
  const Status s = Drain();
  if (!s.ok()) {
    SONG_LOG(WARN) << "server drain in destructor: " << s.ToString();
  }
}

Status SongServer::Start() {
  {
    MutexLock lock(lifecycle_mu_);
    if (started_) {
      return Status::FailedPrecondition("server already started");
    }
    started_ = true;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal("socket() failed: errno " +
                            std::to_string(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen host \"" + options_.host +
                                   "\" (expects an IPv4 address)");
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    const std::string message =
        "bind(" + options_.host + ":" + std::to_string(options_.port) +
        ") failed: errno " + std::to_string(err);
    if (err == EADDRINUSE) return Status::Unavailable(message);
    return Status::Internal(message);
  }
  if (::listen(listen_fd_, 128) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("listen() failed: errno " + std::to_string(err));
  }
  struct sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("getsockname() failed: errno " +
                            std::to_string(err));
  }
  port_ = ntohs(bound.sin_port);
  if (::pipe(wake_pipe_) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("pipe() failed: errno " + std::to_string(err));
  }
  if (g_draining_ != nullptr) g_draining_->Set(0.0);
  accept_thread_ = std::thread(&SongServer::AcceptLoop, this);
  workers_.reserve(options_.num_workers);
  for (size_t w = 0; w < options_.num_workers; ++w) {
    workers_.emplace_back(&SongServer::WorkerLoop, this);
  }
  return Status::OK();
}

void SongServer::RequestDrain() {
  draining_.store(true, std::memory_order_release);
  if (g_draining_ != nullptr) g_draining_->Set(1.0);
  if (wake_pipe_[1] >= 0) {
    const uint8_t byte = 1;
    // Best effort: the accept loop also re-checks draining_ on its 100 ms
    // poll tick, so a failed wake only delays shutdown by one tick.
    if (::write(wake_pipe_[1], &byte, 1) != 1) {
      SONG_LOG(WARN) << "drain wake write failed (errno " << errno << ")";
    }
  }
}

Status SongServer::Drain() {
  {
    MutexLock lock(lifecycle_mu_);
    if (!started_ || drained_) return Status::OK();
    drained_ = true;
  }
  RequestDrain();
  if (accept_thread_.joinable()) accept_thread_.join();
  // No new admissions can succeed now; flush what is queued. Workers claim
  // until the queue is closed AND empty, so joining them settles every
  // queued request.
  queue_.Close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  // With num_workers = 0 (tests) the queue still holds requests: shed them
  // so the conservation equation closes. With workers this sweep is empty.
  for (std::unique_ptr<PendingRequest>& leftover : queue_.TakeAll()) {
    const double now = NowUs();
    SettleRequest(leftover.get(),
                  Status::Unavailable("server draining: request not served"),
                  Outcome::kShed, nullptr, /*degraded=*/false,
                  /*rejected=*/false, now, now);
  }
  if (g_queue_depth_ != nullptr) g_queue_depth_->Set(0.0);
  // Wake blocked readers (EOF); writers flush their outboxes and exit.
  {
    MutexLock lock(conn_mu_);
    for (const std::shared_ptr<Connection>& conn : connections_) {
      conn->BeginShutdown();
    }
  }
  ReapConnections(/*all=*/true);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  Bump(c_drains_);
  return Status::OK();
}

void SongServer::AcceptLoop() {
  for (;;) {
    ReapConnections(/*all=*/false);
    if (draining()) return;
    struct pollfd fds[2];
    fds[0].fd = listen_fd_;
    fds[0].events = POLLIN;
    fds[0].revents = 0;
    fds[1].fd = wake_pipe_[0];
    fds[1].events = POLLIN;
    fds[1].revents = 0;
    const int rc = ::poll(fds, 2, 100);
    if (rc < 0) {
      if (errno == EINTR) continue;
      Bump(c_accept_errors_);
      SONG_LOG(ERROR) << "accept poll failed (errno " << errno
                      << "); accept loop exiting";
      return;
    }
    if (draining()) return;
    if (rc == 0 || (fds[0].revents & POLLIN) == 0) continue;
    const int client_fd = ::accept(listen_fd_, nullptr, nullptr);
    if (client_fd < 0) {
      if (errno != EINTR && errno != ECONNABORTED && errno != EAGAIN &&
          errno != EWOULDBLOCK) {
        Bump(c_accept_errors_);
      }
      continue;
    }
    // Deterministic chaos: an accept-path infrastructure failure.
    if (fault::FaultRegistry::Global().ShouldFail("serve.accept")) {
      ::close(client_fd);
      Bump(c_accept_errors_);
      continue;
    }
    int one = 1;
    ::setsockopt(client_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    MutexLock lock(conn_mu_);
    if (connections_.size() >= options_.max_connections) {
      ::close(client_fd);
      Bump(c_conn_rejected_);
      continue;
    }
    std::shared_ptr<Connection> conn =
        std::make_shared<Connection>(this, client_fd);
    connections_.push_back(conn);
    conn->Start();
    Bump(c_conn_opened_);
    if (g_connections_ != nullptr) {
      g_connections_->Set(static_cast<double>(connections_.size()));
    }
  }
}

void SongServer::ReapConnections(bool all) {
  std::vector<std::shared_ptr<Connection>> to_join;
  {
    MutexLock lock(conn_mu_);
    auto it = connections_.begin();
    while (it != connections_.end()) {
      if (all || (*it)->finished()) {
        to_join.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
    if (g_connections_ != nullptr) {
      g_connections_->Set(static_cast<double>(connections_.size()));
    }
  }
  for (const std::shared_ptr<Connection>& conn : to_join) conn->Join();
}

void SongServer::AdmitRequest(SearchRequestFrame frame,
                              const std::shared_ptr<Connection>& conn,
                              bool socket_idle) {
  Bump(c_accepted_);
  n_accepted_.fetch_add(1, std::memory_order_relaxed);

  auto request = std::make_unique<PendingRequest>();
  request->request_id = request_seq_.fetch_add(1, std::memory_order_relaxed);
  request->client_tag = frame.client_tag;
  request->k = frame.k;
  request->queue_size =
      frame.queue_size != 0 ? frame.queue_size : options_.default_queue_size;
  request->deadline_us = frame.deadline_us;
  request->cost_budget = frame.cost_budget;
  request->query = std::move(frame.query);
  request->enqueue_us = NowUs();
  request->deadline_at_us =
      frame.deadline_us != 0
          ? request->enqueue_us + static_cast<double>(frame.deadline_us)
          : 0.0;
  request->conn = conn;
  conn->NoteIssued();

  // Per-request validation up front: one hostile request must never poison
  // batchmates or occupy a queue slot. The searcher's own shape check
  // answers with the code and message SongSearcher::TrySearch would.
  Status invalid = Status::OK();
  if (request->query.size() != searcher_->data().dim()) {
    invalid = Status::InvalidArgument(
        "query dim " + std::to_string(request->query.size()) +
        " does not match index dim " +
        std::to_string(searcher_->data().dim()));
  } else {
    SongSearchOptions shape = options_.base_options;
    shape.queue_size = request->queue_size;
    invalid = searcher_->ValidateOptions(request->k, shape);
  }
  if (!invalid.ok()) {
    const double now = NowUs();
    SettleRequest(request.get(), invalid, Outcome::kError, nullptr,
                  /*degraded=*/false, /*rejected=*/true, now, now);
    return;
  }
  if (draining()) {
    const double now = NowUs();
    SettleRequest(request.get(),
                  Status::Unavailable("server draining: retry elsewhere"),
                  Outcome::kShed, nullptr, /*degraded=*/false,
                  /*rejected=*/false, now, now);
    return;
  }
  if (socket_idle && queue_.TryClaimIdle()) {
    // Run to completion: an idle server answers on the thread that read
    // the request, with no hand-off to a worker or to the writer.
    request->inline_dispatch = true;
    DispatchBatch(&request, 1, request->enqueue_us);
    queue_.Release();
    return;
  }
  size_t depth = 0;
  const Status pushed = queue_.Push(request, &depth);
  if (!pushed.ok()) {
    // Queue full (or closed by a racing drain): immediate retryable shed,
    // never a silent drop.
    const double now = NowUs();
    SettleRequest(request.get(), Status::Unavailable(pushed.message()),
                  Outcome::kShed, nullptr, /*degraded=*/false,
                  /*rejected=*/false, now, now);
    return;
  }
  if (g_queue_depth_ != nullptr) {
    g_queue_depth_->Set(static_cast<double>(depth));
  }
}

void SongServer::WorkerLoop() {
  std::vector<std::unique_ptr<PendingRequest>> batch(options_.max_batch);
  for (;;) {
    size_t depth = 0;
    const size_t n = queue_.PopBatch(batch.data(), options_.max_batch, &depth);
    if (n == 0) return;  // closed and drained
    if (g_queue_depth_ != nullptr) {
      g_queue_depth_->Set(static_cast<double>(depth));
    }
    DispatchBatch(batch.data(), n, NowUs());
    queue_.Release();
  }
}

void SongServer::DispatchBatch(std::unique_ptr<PendingRequest>* batch,
                               size_t n, double claim_us) {
  // Settle what expired while queued and compact the rest to the front.
  size_t live = 0;
  for (size_t i = 0; i < n; ++i) {
    batch[i]->batched_us = claim_us;
    if (batch[i]->deadline_at_us > 0.0 &&
        claim_us >= batch[i]->deadline_at_us) {
      // Expired while queued: answer without searching. The deadline
      // covers the request's whole server-side life, queue wait included.
      SettleRequest(
          batch[i].get(),
          Status::DeadlineExceeded("deadline expired in queue after " +
                                   std::to_string(static_cast<uint64_t>(
                                       claim_us - batch[i]->enqueue_us)) +
                                   " us"),
          Outcome::kDeadline, nullptr, /*degraded=*/false,
          /*rejected=*/false, claim_us, claim_us);
      batch[i].reset();
    } else {
      if (live != i) batch[live] = std::move(batch[i]);
      ++live;
    }
  }
  if (live == 0) return;
  Bump(c_batches_);
  n_batches_.fetch_add(1, std::memory_order_relaxed);
  if (batch[0]->inline_dispatch) {
    Bump(c_inline_dispatches_);
    n_inline_dispatches_.fetch_add(1, std::memory_order_relaxed);
  }
  if (h_batch_size_ != nullptr) {
    h_batch_size_->Observe(static_cast<double>(live));
  }

  // Deterministic chaos: a whole-batch dispatch failure (lost engine,
  // remote backend, ...). Settled as typed errors, never dropped.
  if (fault::FaultRegistry::Global().ShouldFail("serve.dispatch")) {
    const Status injected =
        Status::Unavailable("injected fault: serve.dispatch");
    for (size_t j = 0; j < live; ++j) {
      const double now = NowUs();
      SettleRequest(batch[j].get(), injected, Outcome::kError, nullptr,
                    /*degraded=*/false, /*rejected=*/false, now, now);
      batch[j].reset();
    }
    return;
  }

  const PendingRequest& head = *batch[0];
  const size_t k = head.k;
  SongSearchOptions opts = options_.base_options;
  opts.queue_size = head.queue_size;
  opts.cost_budget = head.cost_budget;
  opts.deadline_us = 0;
  if (head.deadline_us != 0) {
    // All batchmates carry deadlines (BatchKey::bounded_deadline); the
    // engine enforces the tightest remaining one for the whole batch.
    double min_remaining_us = 0.0;
    const double now = NowUs();
    for (size_t j = 0; j < live; ++j) {
      const double remaining = batch[j]->deadline_at_us - now;
      if (j == 0 || remaining < min_remaining_us) {
        min_remaining_us = remaining;
      }
    }
    opts.deadline_us = static_cast<uint64_t>(
        std::max(1.0, min_remaining_us));
  }

  Dataset queries(live, searcher_->data().dim());
  for (size_t j = 0; j < live; ++j) {
    queries.SetRow(static_cast<idx_t>(j), batch[j]->query.data());
  }

  const double dispatch_us = NowUs();
  BatchTelemetry telemetry;
  telemetry.registry = registry_;
  // The server stamps its own RequestTimeline covering the full network
  // lifecycle; engine-level per-request records would double-count.
  telemetry.request_lifecycle = false;
  StatusOr<BatchResult> result = engine_.TrySearch(queries, k, opts, telemetry);
  if (!result.ok()) {
    for (size_t j = 0; j < live; ++j) {
      SettleRequest(batch[j].get(), result.status(), Outcome::kError,
                    nullptr, /*degraded=*/false, /*rejected=*/false,
                    dispatch_us, NowUs());
      batch[j].reset();
    }
    return;
  }
  const BatchResult& br = result.value();
  const double end_us = NowUs();
  for (size_t j = 0; j < live; ++j) {
    PendingRequest* request = batch[j].get();
    // Query j's search starts at its own offset into the batch, so the
    // time it spent behind batchmates 0..j-1 counts as batch formation.
    const double search_begin_us =
        dispatch_us + static_cast<double>(br.start_offsets_us[j]);
    const double complete_us = std::min(
        search_begin_us + static_cast<double>(br.latencies_us[j]), end_us);
    if (br.rejected[j] != 0) {
      SettleRequest(request,
                    Status::InvalidArgument(
                        "query rejected by validation (NaN/Inf values)"),
                    Outcome::kError, nullptr, /*degraded=*/false,
                    /*rejected=*/true, search_begin_us, complete_us);
    } else {
      SettleRequest(request, Status::OK(), Outcome::kOk, &br.results[j],
                    br.degraded[j] != 0, /*rejected=*/false,
                    search_begin_us, complete_us);
    }
    batch[j].reset();
  }
}

void SongServer::SettleRequest(PendingRequest* request, const Status& status,
                               Outcome outcome,
                               const std::vector<Neighbor>* results,
                               bool degraded, bool rejected,
                               double search_begin_us, double complete_us) {
  // Monotonic timeline even for requests refused before admission or
  // batching (their later stages collapse to zero-width).
  obs::RequestTimeline timeline;
  timeline.enqueue_us = request->enqueue_us;
  timeline.batched_us = std::max(request->batched_us, timeline.enqueue_us);
  timeline.search_begin_us = std::max(search_begin_us, timeline.batched_us);
  timeline.complete_us = std::max(complete_us, timeline.search_begin_us);

  SongSearchOptions effective = options_.base_options;
  effective.queue_size = request->queue_size;
  effective.deadline_us = request->deadline_us;
  effective.cost_budget = request->cost_budget;
  const obs::RequestRecord record = obs::RequestRecord::Make(
      request->request_id, effective.Digest(request->k), timeline,
      status.code(), degraded, rejected);
  request_metrics_.Record(record);
  flight_recorder_.Record(record);

  switch (outcome) {
    case Outcome::kOk:
      Bump(c_ok_);
      n_ok_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Outcome::kShed:
      Bump(c_shed_);
      n_shed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Outcome::kDeadline:
      Bump(c_deadline_);
      n_deadline_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Outcome::kError:
      Bump(c_error_);
      n_error_.fetch_add(1, std::memory_order_relaxed);
      break;
  }

  if (request->conn != nullptr) {
    SearchResponseFrame response;
    response.client_tag = request->client_tag;
    response.status_code = static_cast<int32_t>(status.code());
    response.degraded = degraded;
    response.queue_us = timeline.QueueUs() + timeline.BatchFormUs();
    response.search_us = timeline.SearchUs();
    response.message = status.message();
    if (results != nullptr) response.results = *results;
    std::vector<uint8_t> out;
    EncodeSearchResponse(response, &out);
    request->conn->EnqueueFrame(std::move(out), timeline.complete_us,
                                request->inline_dispatch);
    request->conn->NoteSettled();
    request->conn.reset();
  }
}

ServeCounterSnapshot SongServer::counters() const {
  ServeCounterSnapshot snapshot;
  snapshot.accepted = n_accepted_.load(std::memory_order_relaxed);
  snapshot.ok = n_ok_.load(std::memory_order_relaxed);
  snapshot.shed = n_shed_.load(std::memory_order_relaxed);
  snapshot.deadline = n_deadline_.load(std::memory_order_relaxed);
  snapshot.error = n_error_.load(std::memory_order_relaxed);
  snapshot.batches = n_batches_.load(std::memory_order_relaxed);
  snapshot.inline_dispatches =
      n_inline_dispatches_.load(std::memory_order_relaxed);
  return snapshot;
}

std::string SongServer::ServeStatusJson() const {
  const ServeCounterSnapshot c = counters();
  size_t connections = 0;
  {
    MutexLock lock(conn_mu_);
    connections = connections_.size();
  }
  std::string out = "{";
  Appendf(&out, "\"port\": %u, ", static_cast<unsigned>(port_));
  Appendf(&out, "\"draining\": %s, ", draining() ? "true" : "false");
  Appendf(&out, "\"connections\": %zu, ", connections);
  Appendf(&out, "\"queue_depth\": %zu, ", queue_.Size());
  Appendf(&out, "\"queue_capacity\": %zu, ", options_.queue_capacity);
  Appendf(&out, "\"max_batch\": %zu, ", options_.max_batch);
  Appendf(&out, "\"num_workers\": %zu, ", options_.num_workers);
  Appendf(&out, "\"batches\": %llu, ",
          static_cast<unsigned long long>(c.batches));
  Appendf(&out, "\"inline_dispatches\": %llu, ",
          static_cast<unsigned long long>(c.inline_dispatches));
  Appendf(&out, "\"accepted\": %llu, ",
          static_cast<unsigned long long>(c.accepted));
  Appendf(&out,
          "\"outcomes\": {\"ok\": %llu, \"shed\": %llu, "
          "\"deadline\": %llu, \"error\": %llu}",
          static_cast<unsigned long long>(c.ok),
          static_cast<unsigned long long>(c.shed),
          static_cast<unsigned long long>(c.deadline),
          static_cast<unsigned long long>(c.error));
  out += "}";
  return out;
}

std::string SongServer::StatuszPayload() const {
  obs::StatuszContext context;
  context.registry = registry_;
  context.flight_recorder = &flight_recorder_;
  context.build_describe = options_.build_describe;
  context.command = "serve";
  context.serve_json = ServeStatusJson();
  std::string json = obs::StatuszToJson(context);
  if (json.size() > kMaxFramePayload) {
    // A pathological ring/metric set cannot be framed; fall back to the
    // compact serve section rather than sending a truncated document.
    json = ServeStatusJson();
  }
  return json;
}

void SongServer::BumpBadFrame() { Bump(c_frames_bad_); }
void SongServer::BumpReadTimeout() { Bump(c_read_timeouts_); }
void SongServer::BumpWriteError() { Bump(c_write_errors_); }

void SongServer::ObserveRespond(double settled_us) {
  if (h_respond_us_ != nullptr) {
    h_respond_us_->Observe(std::max(0.0, NowUs() - settled_us));
  }
}

}  // namespace song::serve
