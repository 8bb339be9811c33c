// loadgen: a one-thread, poll-multiplexed socket load generator for
// fsr_serve. It treats the server as a black box: it spawns
// `fsr_serve --listen 127.0.0.1:0`, drives it over TCP loopback, checks
// every response line byte for byte against stdin-mode reference bytes,
// and reads the server's CPU and memory from /proc from outside.
//
//   loadgen --server BIN --dir DIR --shards N [--server-arg ARG]...
//           [--ids] [--depth D] [--closed-s S] [--open-s S] [--rate R]
//           [--seed N] [--setups K] [--timings]
//
// DIR holds the inputs the benchmark driver (run.py) generated:
//   unique.jsonl     the distinct request lines (no "id")
//   reference.jsonl  stdin-mode `fsr_serve --threads 1` answers to them
//   stream.txt       the request stream, as indices into unique.jsonl
// Results go to stdout as one JSON object; with --timings the per-response
// provenance (phase, kind, warm_session, shard, wall_ms, error) also goes
// to DIR/timings.tsv.
//
// A run is: an untimed pre-heat against a throwaway server, K
// set-ups (spawn, listen line, one warm-up pass over every
// unique line; all but the last server are stopped again), then a
// closed-loop phase (4 connections, D lines in flight each) and an
// open-loop phase (Poisson arrivals at R req/s, latency timed from each
// request's scheduled send time). The closed loop is cut into windows of
// about kClosedWindowS, each marked with the answers so far and the
// server's CPU. Each phase is bracketed by a `stats`
// request on a separate control connection.
#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

namespace {

constexpr int kConnections = 4;
// A phase gives up on its outstanding lines when none has been answered
// for this long.
constexpr double kDrainTimeoutS = 30.0;
constexpr double kClosedWindowS = 0.5;
// Untimed closed loop before the set-ups: without it the first set-up of a
// run was up to 2.5x slower than the others.
constexpr double kPreheatS = 1.5;

using Clock = std::chrono::steady_clock;
const Clock::time_point g_epoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

// Servers spawned and not yet reaped; die() kills and reaps them.
std::vector<pid_t> g_children;

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "loadgen: %s\n", message.c_str());
  for (const pid_t pid : g_children) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
  }
  std::exit(1);
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) die("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// ------------------------------------------------------------ references --

// A reference response with its position-dependent parts cut out: the
// leading `{"id": N` and, for in-band errors, the `line N: ` number. The
// expected bytes for a request sent as line `seq` of its connection (or
// with client id `id`) are rebuilt from these pieces.
struct Template {
  std::string head;  // after the id, up to the error's line number
  std::string tail;  // after the line number ("" when no line number)
  bool has_line = false;
};

Template make_template(const std::string& reference, std::size_t index) {
  const std::string id_prefix = "{\"id\": " + std::to_string(index);
  if (reference.compare(0, id_prefix.size(), id_prefix) != 0) {
    die("reference line " + std::to_string(index) + " has an unexpected id");
  }
  Template t;
  t.head = reference.substr(id_prefix.size());
  const std::string prefix = "\"error\": \"line ";
  const std::string number = std::to_string(index + 1);
  const std::size_t at = t.head.find(prefix + number + ": ");
  if (at != std::string::npos) {
    const std::size_t cut = at + prefix.size();
    t.tail = t.head.substr(cut + number.size());
    t.head.resize(cut);
    t.has_line = true;
  }
  return t;
}

std::string expected_bytes(const Template& t, std::uint64_t id,
                           std::uint64_t line_number) {
  std::string out = "{\"id\": " + std::to_string(id) + t.head;
  if (t.has_line) out += std::to_string(line_number) + t.tail;
  return out;
}

// The --timings provenance fields; removed before comparing a timings
// response with the (timings-free) reference bytes.
const char* const kTimingKeys[] = {
    "states_scanned", "conflicts",       "decisions",
    "propagations",   "engine_rebuilds", "oracle_queries",
    "oracle_groups_encoded", "oracle_cache_hits", "warm_session",
    "shard",          "wall_ms"};

std::string field_value(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = line.rfind(needle);
  if (at == std::string::npos) return "";
  const std::size_t start = at + needle.size();
  const std::size_t end = line.find_first_of(",}", start);
  return line.substr(start, end - start);
}

std::string strip_timings(std::string line) {
  for (const char* key : kTimingKeys) {
    const std::string needle = std::string(", \"") + key + "\": ";
    const std::size_t at = line.rfind(needle);
    if (at == std::string::npos) continue;
    const std::size_t end = line.find_first_of(",}", at + needle.size());
    line.erase(at, end - at);
  }
  return line;
}

// ------------------------------------------------------------------ /proc --

struct CpuSample {
  double loop_s = 0;     // the netserve loop thread (task id == pid)
  double workers_s = 0;  // every other thread
};

CpuSample sample_cpu(pid_t pid) {
  static const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  CpuSample sample;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* tasks = opendir(dir.c_str());
  if (tasks == nullptr) return sample;
  while (dirent* entry = readdir(tasks)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + entry->d_name + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t paren = text.rfind(')');
    if (paren == std::string::npos) continue;
    std::istringstream fields(text.substr(paren + 2));
    std::string skip;
    // Fields 3..13 precede utime (14) and stime (15).
    for (int i = 3; i <= 13; ++i) fields >> skip;
    double utime = 0, stime = 0;
    fields >> utime >> stime;
    const double seconds = (utime + stime) / ticks;
    if (std::atoi(entry->d_name) == pid) {
      sample.loop_s += seconds;
    } else {
      sample.workers_s += seconds;
    }
  }
  closedir(tasks);
  return sample;
}

struct Memory {
  long rss_kb = 0;
  long hwm_kb = 0;
};

Memory sample_memory(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  Memory memory;
  std::string key;
  long value = 0;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    fields >> key >> value;
    if (key == "VmRSS:") memory.rss_kb = value;
    if (key == "VmHWM:") memory.hwm_kb = value;
  }
  return memory;
}

// ----------------------------------------------------------------- server --

struct Server {
  pid_t pid = -1;
  int stderr_fd = -1;
  int port = 0;
  std::string stderr_text;
};

Server spawn_server(const std::vector<std::string>& args) {
  int err_pipe[2];
  if (pipe2(err_pipe, O_CLOEXEC) != 0) die("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) die("fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the generator
    dup2(err_pipe[1], 2);
    const int null_fd = open("/dev/null", O_RDWR);
    dup2(null_fd, 0);
    dup2(null_fd, 1);
    std::vector<char*> argv;
    for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(err_pipe[1]);
  g_children.push_back(pid);
  Server server;
  server.pid = pid;
  server.stderr_fd = err_pipe[0];
  const std::string announce = "listening on 127.0.0.1:";
  const double deadline = now_s() + 60.0;
  while (server.port == 0) {
    pollfd p{server.stderr_fd, POLLIN, 0};
    const int left_ms = static_cast<int>((deadline - now_s()) * 1000);
    if (left_ms <= 0 || poll(&p, 1, left_ms) <= 0) die("server did not announce a port");
    char buffer[4096];
    const ssize_t n = read(server.stderr_fd, buffer, sizeof buffer);
    if (n <= 0) die("server exited before listening: " + server.stderr_text);
    server.stderr_text.append(buffer, static_cast<std::size_t>(n));
    const std::size_t at = server.stderr_text.find(announce);
    if (at != std::string::npos &&
        server.stderr_text.find('\n', at) != std::string::npos) {
      server.port = std::atoi(server.stderr_text.c_str() + at + announce.size());
    }
  }
  fcntl(server.stderr_fd, F_SETFL, O_NONBLOCK);
  return server;
}

void drain_stderr(Server& server) {
  char buffer[4096];
  while (true) {
    const ssize_t n = read(server.stderr_fd, buffer, sizeof buffer);
    if (n <= 0) break;
    server.stderr_text.append(buffer, static_cast<std::size_t>(n));
    if (server.stderr_text.size() > 65536) {
      server.stderr_text.erase(0, server.stderr_text.size() - 16384);
    }
  }
}

// SIGTERM asks fsr_serve to drain; it answers what it has and exits 0.
// Returns the exit status (or -1 when it had to be killed).
int stop_server(Server& server) {
  kill(server.pid, SIGTERM);
  int status = 0;
  const double deadline = now_s() + 30.0;
  while (waitpid(server.pid, &status, WNOHANG) == 0) {
    drain_stderr(server);
    if (now_s() > deadline) {
      kill(server.pid, SIGKILL);
      waitpid(server.pid, &status, 0);
      status = -1;
      break;
    }
    usleep(2000);
  }
  drain_stderr(server);
  close(server.stderr_fd);
  g_children.erase(std::remove(g_children.begin(), g_children.end(), server.pid),
                   g_children.end());
  return status < 0 ? -1 : (WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status));
}

int connect_to(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) die("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    die(std::string("connect failed: ") + std::strerror(errno));
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

// ------------------------------------------------------------ the client --

struct PhaseStats {
  const char* name = "";
  bool open_loop = false;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  double start = 0;
  double end = 0;
  // Open loop: (scheduled send time from phase start, latency) per
  // request; failures have latency +inf.
  std::vector<std::pair<double, double>> latencies_ms;
  std::vector<double> lag_ms;  // open loop: send time - schedule, per request
  // Closed loop: at each window boundary, the time, correct answers so
  // far, and the server's CPU.
  std::vector<double> mark_s;
  std::vector<std::uint64_t> mark_ok;
  std::vector<CpuSample> mark_cpu;
};

struct Pending {
  std::uint32_t index = 0;
  double scheduled = 0;
  std::uint64_t line_number = 0;
  PhaseStats* phase = nullptr;
};

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::deque<Pending> fifo;                         // id-less lines, in order
  std::unordered_map<std::uint64_t, Pending> by_id;  // lines with a client id
  std::uint64_t lines_sent = 0;
  std::size_t cursor = 0;
  bool dead = false;

  std::size_t outstanding() const { return fifo.size() + by_id.size(); }
};

struct Options {
  std::string server;
  std::string dir;
  int shards = 1;
  std::vector<std::string> server_args;
  bool ids = false;
  int depth = 8;
  double closed_s = 5;
  double open_s = 5;
  double rate = 100;
  std::uint64_t seed = 1;
  int setups = 3;
  bool timings = false;
};

class Client {
 public:
  Client(const Options& options, const std::vector<std::string>& unique,
         const std::vector<Template>& templates,
         const std::vector<std::uint32_t>& stream)
      : options_(options), unique_(unique), templates_(templates),
        stream_(stream) {
    if (options_.timings) {
      timings_.open(options_.dir + "/timings.tsv");
      if (!timings_) die("cannot write timings.tsv");
    }
  }

  void attach(Server* server) {
    server_ = server;
    conns_.clear();
    for (int c = 0; c < kConnections; ++c) {
      Conn conn;
      conn.fd = connect_to(server->port);
      fcntl(conn.fd, F_SETFL, O_NONBLOCK);
      conn.cursor = stream_.size() * static_cast<std::size_t>(c) / kConnections;
      conns_.push_back(std::move(conn));
    }
  }

  void detach() {
    for (Conn& conn : conns_) close(conn.fd);
    conns_.clear();
  }

  // Closed loop: every connection keeps `depth` lines in flight, taking
  // the next index from `next` until it returns false or the deadline
  // passes; then waits for every answer. With `windowed` the time up to
  // the (finite) deadline is cut into equal windows of about
  // kClosedWindowS, each marked with the answers so far and the server's
  // CPU.
  void run_closed(PhaseStats& phase, int depth, double deadline,
                  const std::function<bool(Conn&, std::uint32_t&)>& next,
                  bool windowed = false) {
    phase.start = now_s();
    const int windows =
        windowed ? std::max(1, static_cast<int>(std::lround((deadline - phase.start) /
                                                            kClosedWindowS)))
                 : 0;
    const double window_s = windows > 0 ? (deadline - phase.start) / windows : 0;
    bool exhausted = false;
    double last_progress = phase.start;
    std::uint64_t answered = 0;
    while (true) {
      const double now = now_s();
      if (idle() || phase.ok + phase.failed != answered) {
        answered = phase.ok + phase.failed;
        last_progress = now;
      }
      if (windows > 0 && static_cast<int>(phase.mark_s.size()) <= windows &&
          now >= phase.start + window_s * static_cast<double>(phase.mark_s.size())) {
        phase.mark_s.push_back(now);
        phase.mark_ok.push_back(phase.ok);
        phase.mark_cpu.push_back(sample_cpu(server_->pid));
      }
      if (now < deadline && !exhausted) {
        for (Conn& conn : conns_) {
          while (!conn.dead && conn.outstanding() < static_cast<std::size_t>(depth)) {
            std::uint32_t index = 0;
            if (!next(conn, index)) {
              exhausted = true;
              break;
            }
            send(conn, index, now_s(), phase);
          }
        }
      }
      if ((now >= deadline || exhausted) && idle()) break;
      if (now >= last_progress + kDrainTimeoutS) {
        fail_outstanding("timeout");
        break;
      }
      double wait = 0.05;
      if (windows > 0 && static_cast<int>(phase.mark_s.size()) <= windows) {
        wait = std::min(wait, std::max(0.0, phase.start + window_s * static_cast<double>(
                                                              phase.mark_s.size()) - now));
      }
      pump(wait);
    }
    phase.end = now_s();
  }

  // Open loop: request k is due at schedule[k] and goes to connection
  // k % 4 whatever the state of earlier requests.
  void run_open(PhaseStats& phase, const std::vector<double>& schedule,
                std::size_t stream_offset) {
    phase.open_loop = true;
    phase.start = now_s();
    const double base = phase.start;
    std::size_t k = 0;
    while (true) {
      const double now = now_s();
      while (k < schedule.size() && base + schedule[k] <= now) {
        Conn& conn = conns_[k % kConnections];
        const std::uint32_t index = stream_[(stream_offset + k) % stream_.size()];
        if (!conn.dead) {
          const double sent = now_s();
          phase.lag_ms.push_back((sent - (base + schedule[k])) * 1e3);
          send(conn, index, base + schedule[k], phase);
        } else {
          ++phase.sent;
          ++phase.failed;
          phase.latencies_ms.emplace_back(schedule[k], INFINITY);
        }
        ++k;
      }
      if (k == schedule.size() && idle()) break;
      if (now >= base + (schedule.empty() ? 0 : schedule.back()) + kDrainTimeoutS) {
        fail_outstanding("timeout");
        break;
      }
      const double wait = k < schedule.size() ? base + schedule[k] - now_s() : 0.05;
      pump(std::max(0.0, wait));
    }
    phase.end = now_s();
  }

  // One `stats` request on its own connection; returns the response line.
  std::string stats() {
    const int fd = connect_to(server_->port);
    const std::string request = "{\"kind\": \"stats\"}\n";
    if (write(fd, request.data(), request.size()) != static_cast<ssize_t>(request.size())) {
      die("stats write failed");
    }
    std::string line;
    char buffer[65536];
    while (line.find('\n') == std::string::npos) {
      pollfd p{fd, POLLIN, 0};
      if (poll(&p, 1, 10000) <= 0) die("stats request timed out");
      const ssize_t n = read(fd, buffer, sizeof buffer);
      if (n <= 0) die("stats connection closed");
      line.append(buffer, static_cast<std::size_t>(n));
    }
    close(fd);
    line.resize(line.find('\n'));
    return line;
  }

  const std::vector<std::string>& failures() const { return failures_; }

 private:
  bool idle() const {
    for (const Conn& conn : conns_) {
      if (!conn.dead && (conn.outstanding() > 0 || conn.out_off < conn.out.size())) {
        return false;
      }
    }
    return true;
  }

  void send(Conn& conn, std::uint32_t index, double scheduled, PhaseStats& phase) {
    Pending pending{index, scheduled, ++conn.lines_sent, &phase};
    const std::string& line = unique_[index];
    if (options_.ids) {
      const std::uint64_t id = next_id_++;
      conn.out += "{\"id\": " + std::to_string(id) + ", ";
      conn.out.append(line, 1, std::string::npos);
      conn.by_id.emplace(id, pending);
    } else {
      conn.out += line;
      conn.fifo.push_back(pending);
    }
    conn.out += '\n';
    ++phase.sent;
    flush(conn);
  }

  void flush(Conn& conn) {
    while (conn.out_off < conn.out.size()) {
      const ssize_t n = write(conn.fd, conn.out.data() + conn.out_off,
                              conn.out.size() - conn.out_off);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        kill_conn(conn, "write error");
        return;
      }
      conn.out_off += static_cast<std::size_t>(n);
    }
    conn.out.clear();
    conn.out_off = 0;
  }

  // Waits up to `timeout_s` for socket events and handles them.
  void pump(double timeout_s) {
    std::vector<pollfd> fds;
    for (const Conn& conn : conns_) {
      short events = POLLIN;
      if (conn.out_off < conn.out.size()) events |= POLLOUT;
      fds.push_back({conn.dead ? -1 : conn.fd, events, 0});
    }
    fds.push_back({server_->stderr_fd, POLLIN, 0});
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(timeout_s);
    ts.tv_nsec = static_cast<long>((timeout_s - static_cast<double>(ts.tv_sec)) * 1e9);
    if (ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return;
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      Conn& conn = conns_[c];
      if (conn.dead) continue;
      if (fds[c].revents & POLLOUT) flush(conn);
      if (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) read_conn(conn);
    }
    if (fds.back().revents) drain_stderr(*server_);
  }

  void read_conn(Conn& conn) {
    char buffer[1 << 16];
    while (true) {
      const ssize_t n = read(conn.fd, buffer, sizeof buffer);
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
        kill_conn(conn, n == 0 ? "connection closed" : "connection reset");
        return;
      }
      if (n < 0) break;
      conn.in.append(buffer, static_cast<std::size_t>(n));
    }
    const double received = now_s();
    std::size_t start = 0;
    while (true) {
      const std::size_t newline = conn.in.find('\n', start);
      if (newline == std::string::npos) break;
      on_line(conn, conn.in.substr(start, newline - start), received);
      start = newline + 1;
    }
    conn.in.erase(0, start);
  }

  void on_line(Conn& conn, const std::string& line, double received) {
    Pending pending;
    std::uint64_t id = 0;
    if (options_.ids) {
      id = std::strtoull(line.c_str() + 7, nullptr, 10);  // after {"id":
      const auto found = conn.by_id.find(id);
      if (line.compare(0, 7, "{\"id\": ") != 0 || found == conn.by_id.end()) {
        record_failure("response with an unknown id: " + line.substr(0, 200));
        return;
      }
      pending = found->second;
      conn.by_id.erase(found);
    } else {
      if (conn.fifo.empty()) {
        record_failure("unsolicited response: " + line.substr(0, 200));
        return;
      }
      pending = conn.fifo.front();
      conn.fifo.pop_front();
      id = pending.line_number - 1;
    }
    std::string got = line;
    if (options_.timings) {
      timings_ << pending.phase->name << '\t' << field_value(line, "kind") << '\t'
               << (field_value(line, "warm_session") == "true") << '\t'
               << field_value(line, "shard") << '\t'
               << field_value(line, "wall_ms") << '\t'
               << (line.find("\"error\": ") != std::string::npos) << '\n';
      got = strip_timings(line);
    }
    const std::string want =
        expected_bytes(templates_[pending.index], id, pending.line_number);
    PhaseStats& phase = *pending.phase;
    if (got == want) {
      ++phase.ok;
      if (phase.open_loop) {
        phase.latencies_ms.emplace_back(pending.scheduled - phase.start,
                                        (received - pending.scheduled) * 1e3);
      }
    } else {
      ++phase.failed;
      if (phase.open_loop) {
        phase.latencies_ms.emplace_back(pending.scheduled - phase.start, INFINITY);
      }
      record_failure("mismatch on line " + unique_[pending.index].substr(0, 160) +
                     "\n  want " + want.substr(0, 300) + "\n  got  " +
                     got.substr(0, 300));
    }
  }

  void fail_pending(const Pending& pending) {
    ++pending.phase->failed;
    if (pending.phase->open_loop) {
      pending.phase->latencies_ms.emplace_back(pending.scheduled - pending.phase->start,
                                               INFINITY);
    }
  }

  void kill_conn(Conn& conn, const std::string& why) {
    if (conn.outstanding() > 0) record_failure(why + " with requests in flight");
    for (const Pending& pending : conn.fifo) fail_pending(pending);
    for (const auto& [id, pending] : conn.by_id) fail_pending(pending);
    conn.fifo.clear();
    conn.by_id.clear();
    conn.out.clear();
    conn.out_off = 0;
    conn.dead = true;
  }

  void fail_outstanding(const std::string& why) {
    for (Conn& conn : conns_) {
      if (!conn.dead && conn.outstanding() > 0) kill_conn(conn, why);
    }
  }

  void record_failure(const std::string& what) {
    if (failures_.size() < 5) failures_.push_back(what);
  }

  const Options& options_;
  const std::vector<std::string>& unique_;
  const std::vector<Template>& templates_;
  const std::vector<std::uint32_t>& stream_;
  Server* server_ = nullptr;
  std::vector<Conn> conns_;
  std::uint64_t next_id_ = 1;
  std::ofstream timings_;
  std::vector<std::string> failures_;
};

// ----------------------------------------------------------------- output --

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escape[8];
      std::snprintf(escape, sizeof escape, "\\u%04x", c);
      out += escape;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string phase_json(const PhaseStats& phase, const CpuSample& before,
                       const CpuSample& after, const std::string& stats_before,
                       const std::string& stats_after) {
  std::ostringstream out;
  out.precision(9);
  out << "{\"sent\": " << phase.sent << ", \"ok\": " << phase.ok
      << ", \"failed\": " << phase.failed
      << ", \"wall_s\": " << (phase.end - phase.start)
      << ", \"loop_cpu_s\": " << (after.loop_s - before.loop_s)
      << ", \"workers_cpu_s\": " << (after.workers_s - before.workers_s)
      << ", \"marks\": [";
  for (std::size_t i = 0; i < phase.mark_s.size(); ++i) {
    out << (i ? ", " : "") << "[" << phase.mark_s[i] - phase.start << ", "
        << phase.mark_ok[i] << ", " << phase.mark_cpu[i].loop_s << ", "
        << phase.mark_cpu[i].workers_s << "]";
  }
  out << "]";
  if (phase.open_loop) {
    double sum = 0;
    std::size_t finite = 0;
    std::ostringstream scheduled, latency;
    scheduled.precision(9);
    latency.precision(9);
    for (std::size_t i = 0; i < phase.latencies_ms.size(); ++i) {
      const auto [at, ms] = phase.latencies_ms[i];
      scheduled << (i ? ", " : "") << at;
      latency << (i ? ", " : "");
      if (std::isfinite(ms)) {
        latency << ms;
        sum += ms;
        ++finite;
      } else {
        latency << "1e300";  // a failure: slower than every percentile
      }
    }
    out << ", \"scheduled_s\": [" << scheduled.str() << "], \"latency_ms\": ["
        << latency.str() << "], \"latency_mean_ms\": "
        << (finite > 0 ? sum / static_cast<double>(finite) : 0)
        << ", \"lag_ms\": [";
    for (std::size_t i = 0; i < phase.lag_ms.size(); ++i) {
      out << (i ? ", " : "") << phase.lag_ms[i];
    }
    out << "]";
  }
  out << ", \"stats_before\": " << (stats_before.empty() ? "null" : stats_before)
      << ", \"stats_after\": " << (stats_after.empty() ? "null" : stats_after) << "}";
  return out.str();
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) die(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--server") options.server = value();
    else if (arg == "--dir") options.dir = value();
    else if (arg == "--shards") options.shards = std::stoi(value());
    else if (arg == "--server-arg") options.server_args.push_back(value());
    else if (arg == "--ids") options.ids = true;
    else if (arg == "--depth") options.depth = std::stoi(value());
    else if (arg == "--closed-s") options.closed_s = std::stod(value());
    else if (arg == "--open-s") options.open_s = std::stod(value());
    else if (arg == "--rate") options.rate = std::stod(value());
    else if (arg == "--seed") options.seed = std::stoull(value());
    else if (arg == "--setups") options.setups = std::stoi(value());
    else if (arg == "--timings") options.timings = true;
    else die("unknown option " + arg);
  }
  if (options.server.empty() || options.dir.empty()) die("--server and --dir are required");
  if (options.depth < 1 || options.depth > 63) die("--depth must be 1..63");
  if (options.setups < 1) die("--setups must be >= 1");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);
  const Options options = parse_options(argc, argv);

  const std::vector<std::string> unique = read_lines(options.dir + "/unique.jsonl");
  const std::vector<std::string> reference = read_lines(options.dir + "/reference.jsonl");
  if (unique.size() != reference.size() || unique.empty()) {
    die("unique.jsonl and reference.jsonl differ in length");
  }
  std::vector<Template> templates;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    templates.push_back(make_template(reference[i], i));
  }
  std::vector<std::uint32_t> stream;
  {
    std::ifstream in(options.dir + "/stream.txt");
    std::uint32_t index = 0;
    while (in >> index) {
      if (index >= unique.size()) die("stream index out of range");
      stream.push_back(index);
    }
  }
  if (stream.empty()) die("empty stream");

  std::vector<std::string> server_argv = {options.server, "--listen", "127.0.0.1:0",
                                          "--shards", std::to_string(options.shards)};
  server_argv.insert(server_argv.end(), options.server_args.begin(), options.server_args.end());

  Client client(options, unique, templates, stream);

  // Pre-heat (untimed) against a throwaway server.
  PhaseStats preheat;
  preheat.name = "preheat";
  {
    Server heater = spawn_server(server_argv);
    client.attach(&heater);
    client.run_closed(preheat, options.depth, now_s() + kPreheatS,
                      [&](Conn& conn, std::uint32_t& index) {
                        index = stream[conn.cursor++ % stream.size()];
                        return true;
                      });
    client.detach();
    stop_server(heater);
  }

  // Set-ups: spawn, listen line, one warm-up pass over every unique line.
  std::vector<double> setup_s;
  std::vector<PhaseStats> warmups(static_cast<std::size_t>(options.setups));
  Server server;
  for (int s = 0; s < options.setups; ++s) {
    const double start = now_s();
    server = spawn_server(server_argv);
    client.attach(&server);
    std::size_t next_unique = 0;
    PhaseStats& warmup = warmups[static_cast<std::size_t>(s)];
    warmup.name = "warmup";
    client.run_closed(warmup, options.depth, INFINITY,
                      [&](Conn&, std::uint32_t& index) {
                        if (next_unique >= unique.size()) return false;
                        index = static_cast<std::uint32_t>(next_unique++);
                        return true;
                      });
    setup_s.push_back(now_s() - start);
    if (s + 1 < options.setups) {
      client.detach();
      stop_server(server);
    }
  }
  const Memory after_warmup = sample_memory(server.pid);

  // Closed loop.
  PhaseStats closed;
  closed.name = "closed";
  std::string closed_stats_before = client.stats();
  CpuSample closed_cpu_before = sample_cpu(server.pid);
  const double closed_start = now_s();
  client.run_closed(closed, options.depth, closed_start + options.closed_s,
                    [&](Conn& conn, std::uint32_t& index) {
                      index = stream[conn.cursor++ % stream.size()];
                      return true;
                    },
                    /*windowed=*/true);
  // Read after the drain, so the phase's CPU totals cover every answer in
  // `ok`; the per-window marks are what the gated metric uses.
  CpuSample closed_cpu_after = sample_cpu(server.pid);
  std::string closed_stats_after = client.stats();

  // Open loop: Poisson arrivals at the fixed rate.
  std::vector<double> schedule;
  std::mt19937_64 rng(options.seed * 0x9E3779B97F4A7C15ULL + 1);
  for (double t = 0;;) {
    const double u = (static_cast<double>(rng() >> 11) + 0.5) * 0x1.0p-53;
    t += -std::log(u) / options.rate;
    if (t >= options.open_s) break;
    schedule.push_back(t);
  }
  PhaseStats open;
  open.name = "open";
  std::string open_stats_before = client.stats();
  CpuSample open_cpu_before = sample_cpu(server.pid);
  client.run_open(open, schedule, stream.size() / 2);
  CpuSample open_cpu_after = sample_cpu(server.pid);
  std::string open_stats_after = client.stats();

  const Memory end_memory = sample_memory(server.pid);
  client.detach();
  const int exit_status = stop_server(server);

  std::uint64_t warm_sent = 0, warm_ok = 0, warm_failed = 0;
  for (const PhaseStats& warmup : warmups) {
    warm_sent += warmup.sent;
    warm_ok += warmup.ok;
    warm_failed += warmup.failed;
  }
  std::ostringstream out;
  out.precision(9);
  out << "{\"setup_s\": [";
  for (std::size_t i = 0; i < setup_s.size(); ++i) out << (i ? ", " : "") << setup_s[i];
  out << "], \"preheat\": {\"sent\": " << preheat.sent << ", \"ok\": " << preheat.ok
      << ", \"failed\": " << preheat.failed << "}"
      << ", \"warmup\": {\"sent\": " << warm_sent << ", \"ok\": " << warm_ok
      << ", \"failed\": " << warm_failed << "}"
      << ", \"closed\": "
      << phase_json(closed, closed_cpu_before, closed_cpu_after, closed_stats_before,
                    closed_stats_after)
      << ", \"open\": "
      << phase_json(open, open_cpu_before, open_cpu_after, open_stats_before,
                    open_stats_after)
      << ", \"rss_after_warmup_kb\": " << after_warmup.rss_kb
      << ", \"rss_end_kb\": " << end_memory.rss_kb
      << ", \"hwm_end_kb\": " << end_memory.hwm_kb
      << ", \"server_exit\": " << exit_status << ", \"failures\": [";
  for (std::size_t i = 0; i < client.failures().size(); ++i) {
    out << (i ? ", " : "") << json_string(client.failures()[i]);
  }
  out << "]}\n";
  std::fputs(out.str().c_str(), stdout);
  return 0;
}
