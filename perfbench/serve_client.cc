#include "serve_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "core/recall.h"

extern char** environ;

namespace perfbench {

namespace serve = song::serve;

// --- ServerProcess. --------------------------------------------------------

std::unique_ptr<ServerProcess> ServerProcess::Start(
    const std::string& bin, const std::vector<std::string>& args,
    const std::string& stderr_path, double timeout_s) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    std::perror("perfbench: pipe2");
    return nullptr;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], 1);
  posix_spawn_file_actions_addopen(&actions, 2, stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<std::string> argv_strings;
  argv_strings.push_back(bin);
  argv_strings.insert(argv_strings.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : argv_strings) argv.push_back(s.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = ::posix_spawn(&pid, bin.c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  if (rc != 0) {
    std::fprintf(stderr, "perfbench: cannot spawn %s: %s\n", bin.c_str(),
                 std::strerror(rc));
    ::close(pipe_fds[0]);
    return nullptr;
  }
  std::unique_ptr<ServerProcess> server(new ServerProcess(pid, pipe_fds[0]));
  const int64_t start = NowNs();
  while (SecondsSince(start) < timeout_s) {
    const size_t at = server->out_.find("LISTENING port=");
    if (at != std::string::npos &&
        server->out_.find('\n', at) != std::string::npos) {
      server->port_ = static_cast<uint16_t>(
          std::strtoul(server->out_.c_str() + at + 15, nullptr, 10));
      return server;
    }
    if (!server->ReadStdout(50)) break;
  }
  std::fprintf(stderr, "perfbench: server did not report LISTENING (see %s)\n",
               stderr_path.c_str());
  return nullptr;
}

bool ServerProcess::ReadStdout(int wait_ms) {
  struct pollfd pfd = {stdout_fd_, POLLIN, 0};
  if (::poll(&pfd, 1, wait_ms) <= 0) return true;
  char buffer[4096];
  const ssize_t n = ::read(stdout_fd_, buffer, sizeof(buffer));
  if (n <= 0) return false;
  out_.append(buffer, static_cast<size_t>(n));
  return true;
}

bool ServerProcess::Stop(double timeout_s, DrainLine* drained) {
  ::kill(pid_, SIGTERM);
  const int64_t start = NowNs();
  while (SecondsSince(start) < timeout_s && ReadStdout(50)) {
  }
  int status = 0;
  pid_t reaped = 0;
  while ((reaped = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
         SecondsSince(start) < timeout_s) {
    ::usleep(10000);
  }
  const bool exited_ok =
      reaped == pid_ && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (reaped != pid_) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    std::fprintf(stderr, "perfbench: server did not drain in %.0f s\n",
                 timeout_s);
  }
  pid_ = -1;
  const size_t at = out_.find("DRAINED ");
  unsigned long long v[5] = {0, 0, 0, 0, 0};
  const bool parsed =
      at != std::string::npos &&
      std::sscanf(out_.c_str() + at,
                  "DRAINED accepted=%llu ok=%llu shed=%llu deadline=%llu "
                  "error=%llu",
                  &v[0], &v[1], &v[2], &v[3], &v[4]) == 5;
  drained->accepted = v[0];
  drained->ok = v[1];
  drained->shed = v[2];
  drained->deadline = v[3];
  drained->error = v[4];
  return parsed && exited_ok;
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

// --- Connection. -----------------------------------------------------------

Connection::Connection(int fd) : fd_(fd), transport_(fd, 10000) {}

Connection::~Connection() { ::close(fd_); }

std::unique_ptr<Connection> Connection::Open(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return nullptr;
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return nullptr;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<Connection>(new Connection(fd));
}

bool Connection::Send(const serve::SearchRequestFrame& request) {
  wire_.clear();
  serve::EncodeSearchRequest(request, &wire_);
  return transport_.WriteBytes(wire_).ok();
}

bool Connection::Receive(serve::SearchResponseFrame* response) {
  song::StatusOr<serve::Frame> frame = transport_.ReadFrame();
  if (!frame.ok() || frame.value().type != serve::FrameType::kSearchResponse) {
    return false;
  }
  song::StatusOr<serve::SearchResponseFrame> decoded =
      serve::DecodeSearchResponse(frame.value().payload.data(),
                                  frame.value().payload.size());
  if (!decoded.ok()) return false;
  *response = std::move(decoded).value();
  return true;
}

std::string Connection::Statusz() {
  wire_.clear();
  serve::AppendFrame(serve::FrameType::kStatuszRequest, nullptr, 0, &wire_);
  if (!transport_.WriteBytes(wire_).ok()) return "";
  song::StatusOr<serve::Frame> frame = transport_.ReadFrame();
  if (!frame.ok() || frame.value().type != serve::FrameType::kStatuszResponse) {
    return "";
  }
  const std::vector<uint8_t>& p = frame.value().payload;
  return std::string(reinterpret_cast<const char*>(p.data()), p.size());
}

// --- Load phases. ----------------------------------------------------------

namespace {

serve::SearchRequestFrame MakeRequest(const ServeLedger& ledger,
                                      const ServePhaseOptions& opts,
                                      uint64_t tag, size_t query) {
  serve::SearchRequestFrame request;
  request.client_tag = tag;
  request.k = kTopK;
  request.queue_size = opts.ef;
  const float* row = ledger.queries->Row(static_cast<idx_t>(query));
  request.query.assign(row, row + ledger.queries->dim());
  return request;
}

size_t QueryFor(const ServeLedger& ledger, const ServePhaseOptions& opts,
                uint64_t sequence) {
  return (opts.first_query + sequence) % ledger.queries->num();
}

/// Checks one answer against the in-process ids; false when it failed.
bool Check(const serve::SearchResponseFrame& response, size_t query,
           ServeLedger* ledger, Report* report) {
  const auto code = static_cast<song::StatusCode>(response.status_code);
  if (code != song::StatusCode::kOk) {
    report->Failed("server answered status " +
                   std::to_string(response.status_code) + ": " +
                   response.message);
    return false;
  }
  const std::vector<idx_t> ids = IdsOf(response.results);
  if (response.degraded || ids != (*ledger->expected)[query]) {
    report->Failed("served ids differ from in-process SongSearcher::Search "
                   "for query " + std::to_string(query));
    return false;
  }
  ++ledger->answered_ok;
  ledger->recall_sum += song::RecallAtK(ids, (*ledger->truth)[query], kTopK);
  ledger->search_us.push_back(response.search_us);
  return true;
}

struct Pending {
  size_t query = 0;
  int64_t due_ns = 0;
};

/// Sends the ledger's next request on `conn`, due at `due_ns`, and records
/// it as pending.
bool SendPending(Connection* conn, const ServePhaseOptions& opts,
                 int64_t due_ns, ServeLedger* ledger, Report* report,
                 std::unordered_map<uint64_t, Pending>* pending) {
  const uint64_t tag = ledger->sent++;
  const size_t query = QueryFor(*ledger, opts, tag);
  report->Attempted();
  if (!conn->Send(MakeRequest(*ledger, opts, tag, query))) {
    report->Failed("transport error on send");
    return false;
  }
  (*pending)[tag] = Pending{query, due_ns};
  return true;
}

/// Reads one response from `conn`, settles its pending entry into
/// `*settled` and checks it; false on a transport or matching error.
bool ReceivePending(Connection* conn, ServeLedger* ledger, Report* report,
                    std::unordered_map<uint64_t, Pending>* pending,
                    SpanLog* log, Pending* settled, int64_t* recv_ns) {
  serve::SearchResponseFrame response;
  if (!conn->Receive(&response)) {
    report->Failed("transport error on receive");
    return false;
  }
  *recv_ns = NowNs();
  const auto it = pending->find(response.client_tag);
  if (it == pending->end()) {
    report->Failed("response with an unknown client_tag");
    return false;
  }
  *settled = it->second;
  pending->erase(it);
  if (log != nullptr) {
    log->Add("SongServer::Search", "serve", settled->due_ns, *recv_ns,
             response.client_tag);
  }
  Check(response, settled->query, ledger, report);
  return true;
}

}  // namespace

void RunClosedOne(Connection* conn, const ServePhaseOptions& opts,
                  double seconds, ServeLedger* ledger, Report* report,
                  SpanLog* log) {
  const int64_t start = NowNs();
  while (SecondsSince(start) < seconds) {
    const uint64_t tag = ledger->sent++;
    const size_t query = QueryFor(*ledger, opts, tag);
    const serve::SearchRequestFrame request =
        MakeRequest(*ledger, opts, tag, query);
    report->Attempted();
    serve::SearchResponseFrame response;
    const int64_t t0 = NowNs();
    bool ok = false;
    {
      ScopedSpan span(log, "SongServer::Search", "serve", tag);
      ok = conn->Send(request) && conn->Receive(&response);
    }
    const double latency_us = static_cast<double>(NowNs() - t0) * 1e-3;
    if (!ok || response.client_tag != tag) {
      report->Failed("transport error in the closed loop");
      return;
    }
    if (Check(response, query, ledger, report)) {
      ledger->latency_us.push_back(latency_us);
      ledger->unattributed_us.push_back(latency_us - response.queue_us -
                                        response.search_us);
    }
  }
}

void RunOpenLoop(const std::vector<Connection*>& conns,
                 const ServePhaseOptions& opts, double rate, double seconds,
                 ServeLedger* ledger, Report* report, SpanLog* log) {
  const int64_t interval_ns = static_cast<int64_t>(1e9 / rate);
  const uint64_t total = static_cast<uint64_t>(seconds * rate);
  const int64_t origin = NowNs() + 1000000;  // first slot 1 ms from now
  std::unordered_map<uint64_t, Pending> pending;
  std::vector<struct pollfd> fds(conns.size());
  for (size_t c = 0; c < conns.size(); ++c) {
    fds[c] = {conns[c]->fd(), POLLIN, 0};
  }
  uint64_t next = 0;
  int64_t give_up_ns = 0;
  while (next < total || !pending.empty()) {
    const int64_t now = NowNs();
    if (next < total) {
      const int64_t due = origin + static_cast<int64_t>(next) * interval_ns;
      if (now >= due) {
        ledger->late_us.push_back(static_cast<double>(now - due) * 1e-3);
        if (!SendPending(conns[next % conns.size()], opts, due, ledger, report,
                         &pending)) {
          return;
        }
        ++next;
        continue;
      }
    } else if (give_up_ns == 0) {
      give_up_ns = now + 10'000'000'000;
    } else if (now > give_up_ns) {
      report->Failed("open loop: responses never arrived", pending.size());
      return;
    }
    const int64_t wait_ns =
        next < total
            ? origin + static_cast<int64_t>(next) * interval_ns - now
            : 100'000'000;
    struct timespec timeout = {static_cast<time_t>(wait_ns / 1000000000),
                               static_cast<long>(wait_ns % 1000000000)};
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) continue;
    for (size_t c = 0; c < conns.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Pending settled;
      int64_t recv_ns = 0;
      if (!ReceivePending(conns[c], ledger, report, &pending, log, &settled,
                          &recv_ns)) {
        return;
      }
      ledger->latency_us.push_back(
          static_cast<double>(recv_ns - settled.due_ns) * 1e-3);
    }
  }
}

std::vector<double> RunWindow(const std::vector<Connection*>& conns,
                              const ServePhaseOptions& opts, size_t window,
                              double seconds, double slice_s,
                              ServeLedger* ledger, Report* report,
                              SpanLog* log) {
  std::unordered_map<uint64_t, Pending> pending;
  std::vector<struct pollfd> fds(conns.size());
  for (size_t c = 0; c < conns.size(); ++c) {
    fds[c] = {conns[c]->fd(), POLLIN, 0};
  }
  const int64_t start = NowNs();
  for (size_t i = 0; i < window; ++i) {
    if (!SendPending(conns[i % conns.size()], opts, NowNs(), ledger, report,
                     &pending)) {
      return {};
    }
  }
  std::vector<double> rates;
  int64_t slice_start = start;
  uint64_t answered = 0;  ///< in the current slice
  bool sending = true;
  while (!pending.empty()) {
    if (sending && SecondsSince(start) >= seconds) sending = false;
    const int rc = ::poll(fds.data(), fds.size(), 10000);
    if (rc <= 0) {
      report->Failed("window loop: responses never arrived", pending.size());
      return {};
    }
    for (size_t c = 0; c < conns.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Pending settled;
      int64_t recv_ns = 0;
      if (!ReceivePending(conns[c], ledger, report, &pending, log, &settled,
                          &recv_ns)) {
        return {};
      }
      if (!sending) continue;
      ++answered;
      const double slice_elapsed = SecondsSince(slice_start);
      if (slice_elapsed >= slice_s) {
        rates.push_back(static_cast<double>(answered) / slice_elapsed);
        slice_start = NowNs();
        answered = 0;
      }
      if (!SendPending(conns[c], opts, NowNs(), ledger, report, &pending)) {
        return {};
      }
    }
  }
  return rates;
}

double StatuszHistogramField(const std::string& json,
                             const std::string& histogram,
                             const std::string& field) {
  const size_t at = json.find("\"" + histogram + "\": {");
  if (at == std::string::npos) return 0.0;
  const size_t end = json.find('}', at);
  const size_t key = json.find("\"" + field + "\": ", at);
  if (key == std::string::npos || key > end) return 0.0;
  return std::strtod(json.c_str() + key + field.size() + 4, nullptr);
}

}  // namespace perfbench
