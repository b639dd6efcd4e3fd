// Drives the real song_server from outside: spawns it, waits for its
// LISTENING line, talks SNGF frames (serve/frame.h) over loopback, fetches a
// statusz frame, and stops it with SIGTERM, checking the DRAINED outcome
// conservation line it prints.
//
// The load phases time each request from when it was due: in the open loop
// that is its slot on the fixed schedule, so a stalled generator or socket
// shows up as latency of the requests behind the stall, and the generator's
// own lateness is reported next to it. Responses are matched by client_tag.

#ifndef SONG_PERFBENCH_SERVE_CLIENT_H_
#define SONG_PERFBENCH_SERVE_CLIENT_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "serve/frame.h"

namespace perfbench {

struct DrainLine {
  uint64_t accepted = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t deadline = 0;
  uint64_t error = 0;
  bool Conserves() const {
    return accepted == ok + shed + deadline + error;
  }
};

class ServerProcess {
 public:
  /// Spawns `bin args...` and waits (up to `timeout_s`) for LISTENING.
  /// Null on failure, with the reason on stderr.
  static std::unique_ptr<ServerProcess> Start(
      const std::string& bin, const std::vector<std::string>& args,
      const std::string& stderr_path, double timeout_s);

  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// SIGTERM, then reads stdout to EOF and reaps the process. False when
  /// the process did not exit 0 or printed no DRAINED line.
  bool Stop(double timeout_s, DrainLine* drained);

 private:
  ServerProcess(pid_t pid, int stdout_fd) : pid_(pid), stdout_fd_(stdout_fd) {}
  /// Appends whatever stdout has ready (waiting up to `wait_ms`); false on
  /// EOF.
  bool ReadStdout(int wait_ms);

  pid_t pid_;
  int stdout_fd_;
  uint16_t port_ = 0;
  std::string out_;
};

/// One client connection (TCP_NODELAY, blocking frame I/O).
class Connection {
 public:
  static std::unique_ptr<Connection> Open(uint16_t port);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  bool Send(const song::serve::SearchRequestFrame& request);
  /// Blocks for one search response; false on a transport or decode error.
  bool Receive(song::serve::SearchResponseFrame* response);
  /// Requests and returns the statusz document ("" on failure).
  std::string Statusz();

 private:
  explicit Connection(int fd);
  int fd_;
  song::serve::FrameTransport transport_;
  std::vector<uint8_t> wire_;
};

/// What every answered request is checked against and recorded into.
struct ServeLedger {
  const Dataset* queries = nullptr;
  const IdLists* expected = nullptr;  ///< in-process ids at the served ef
  const IdLists* truth = nullptr;     ///< exact top-k

  // Per answered request, for the phase being run.
  std::vector<double> latency_us;     ///< from due time to response
  std::vector<double> unattributed_us;
  std::vector<double> search_us;
  std::vector<double> late_us;        ///< open loop: send time - due time
  uint64_t sent = 0;
  uint64_t answered_ok = 0;
  double recall_sum = 0.0;            ///< over ok answers

  void ClearPhase() {
    latency_us.clear();
    unattributed_us.clear();
    late_us.clear();
  }
};

struct ServePhaseOptions {
  uint32_t ef = 0;
  size_t first_query = 0;  ///< queries cycle from here
};

/// One closed-loop client: one request in flight for `seconds`.
void RunClosedOne(Connection* conn, const ServePhaseOptions& opts,
                  double seconds, ServeLedger* ledger, Report* report,
                  SpanLog* log);

/// Open loop: requests due every 1/rate seconds, round-robin over `conns`,
/// for `seconds`; then waits for the stragglers.
void RunOpenLoop(const std::vector<Connection*>& conns,
                 const ServePhaseOptions& opts, double rate, double seconds,
                 ServeLedger* ledger, Report* report, SpanLog* log);

/// Closed loop holding `window` requests outstanding over `conns` for
/// `seconds`. Returns the answered requests per second of each whole
/// `slice_s` of it, in order.
std::vector<double> RunWindow(const std::vector<Connection*>& conns,
                              const ServePhaseOptions& opts, size_t window,
                              double seconds, double slice_s,
                              ServeLedger* ledger, Report* report,
                              SpanLog* log);

/// Reads `"<histogram>": {... "<field>": v` from a statusz document.
double StatuszHistogramField(const std::string& json,
                             const std::string& histogram,
                             const std::string& field);

}  // namespace perfbench

#endif  // SONG_PERFBENCH_SERVE_CLIENT_H_
