// perfbench_load: the native load generator of the wire_ingest workload.
//
//   perfbench_load --port=P --seed=S --seconds=T [--probe-out=PATH]
//
// Drives a running `covstream_cli --cmd=serve --port=P` over loopback TCP
// from one thread that polls every connection (one connection per tenant,
// four in all).
// Phases:
//
//   set-up   create the tenants and prefill them to saturation (pipelined);
//   probe    (--probe-out only) the probe script, sent serially,
//            with every round trip written to PATH for the traced replay;
//   job      time to solution: fresh tenant, kJobEdges edges, solve;
//   open     a fixed absolute schedule; latency is timed from each
//            request's due time and from its send, and how late the
//            generator sent is kept;
//   closed   fixed connections x fixed pipeline depth -> capacity (rps),
//            after an unmeasured half-second warm-up;
//   verify   per-tenant edge counts and estimates against in-process twins
//            fed the same edge order, and cover_ratio on one tenant.
//
// Every phase counts requests attempted, answered ok, answered err, lost to
// connection errors and lost to timeouts. Times are in time the machine
// gave the processes: when this generator (and with it the server) is
// confined to one CPU, the CPU time the host took from that CPU during a
// timed phase, as /proc/stat counts it, is subtracted from the phase's
// wall time.
// Prints one JSON object last.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/streaming_kcover.hpp"
#include "core/subsample_sketch.hpp"
#include "inputs.hpp"
#include "report.hpp"
#include "scenario.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// A nonblocking line-protocol client connection.
class LineConn {
 public:
  LineConn() = default;
  ~LineConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  bool connect_to(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      return false;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK) == 0;
  }

  void queue(const std::string& line) {
    out_ += line;
    out_ += '\n';
  }
  bool has_output() const { return out_off_ < out_.size(); }

  /// Sends what the socket takes now. False on a broken connection.
  bool flush() {
    while (out_off_ < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + out_off_, out_.size() - out_off_,
                               MSG_NOSIGNAL);
      if (n > 0) {
        out_off_ += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        return false;
      }
    }
    if (out_off_ == out_.size()) {
      out_.clear();
      out_off_ = 0;
    } else if (out_off_ > (1u << 20)) {
      out_.erase(0, out_off_);
      out_off_ = 0;
    }
    return true;
  }

  int fd() const { return fd_; }

  /// Reads every complete response line available now. False on a broken
  /// or closed connection.
  bool read_lines(std::vector<std::string>* lines) {
    char buf[1 << 16];
    bool open = true;
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n > 0) {
        in_.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      open = false;  // EOF or error; lines read before it still count
      break;
    }
    std::size_t start = 0;
    for (std::size_t nl; (nl = in_.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      lines->emplace_back(in_, start, nl - start);
    }
    in_.erase(0, start);
    return open;
  }

 private:
  int fd_ = -1;
  std::string out_;
  std::size_t out_off_ = 0;
  std::string in_;
};

constexpr std::int64_t kTimeoutUs = 10'000'000;  // no progress for 10 s
constexpr double kWarmupS = 0.5;      // closed-loop time not measured
constexpr double kLatencyWindowS = 0.5;  // open-loop latency windows

struct PhaseStats {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t err_lines = 0;
  std::uint64_t conn_errors = 0;
  std::uint64_t timeouts = 0;
  /// Per request: due time (seconds since the phase started), and latency
  /// from it and from the send in ms (+inf for a failed request).
  struct Sample {
    double due_s;
    double ms;
    double sent_ms;
  };
  std::vector<Sample> samples;
  std::vector<double> late_ms;  // open loop: send time - due time
  std::string first_error;

  std::uint64_t failed() const { return err_lines + conn_errors + timeouts; }
  void absorb(const PhaseStats& o) {
    attempted += o.attempted;
    ok += o.ok;
    err_lines += o.err_lines;
    conn_errors += o.conn_errors;
    timeouts += o.timeouts;
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
    if (first_error.empty()) first_error = o.first_error;
  }
};

constexpr double kFailed = std::numeric_limits<double>::infinity();

struct InFlight {
  Clock::time_point due;
  Clock::time_point sent;
  const char* expect;
};

/// One connection's traffic in a phase. Closed mode keeps `depth` requests
/// outstanding; open mode sends request i at start + offset + i / rate.
/// `source(i)`
/// builds the i-th request; `responses` (optional) keeps every response line
/// in order.
struct Lane {
  LineConn* conn = nullptr;
  std::function<Request(std::size_t)> source;
  double rate = 0.0;
  double offset_s = 0.0;
  std::size_t max_requests = std::numeric_limits<std::size_t>::max();
  PhaseStats* st = nullptr;
  std::vector<std::string>* responses = nullptr;

  std::deque<InFlight> fifo;
  std::size_t sent = 0;
  Clock::time_point last_progress = Clock::now();
  bool done = false;
};

/// Runs every lane from one thread until `stop`, then drains: a single
/// poll() over all connections, so the generator adds one runnable thread
/// to the machine however many connections it drives.
void drive(std::vector<Lane>& lanes, bool open, std::size_t depth,
           Clock::time_point start, Clock::time_point stop) {
  auto due_of = [&](const Lane& l, std::size_t i) {
    return start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                       1e9 * (l.offset_s + static_cast<double>(i) / l.rate)));
  };
  auto since_start = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - start).count();
  };
  auto fail_lane = [&](Lane& l, std::uint64_t PhaseStats::*counter,
                       const char* why) {
    l.st->*counter += l.fifo.size();
    for (const InFlight& f : l.fifo) {
      l.st->samples.push_back({since_start(f.due), kFailed, kFailed});
    }
    l.fifo.clear();
    if (l.st->first_error.empty()) l.st->first_error = why;
    l.done = true;
  };
  std::vector<pollfd> fds;
  std::vector<Lane*> polled;
  std::vector<std::string> lines;
  for (;;) {
    const Clock::time_point now = Clock::now();
    std::int64_t wait_us = 20000;
    fds.clear();
    polled.clear();
    for (Lane& l : lanes) {
      if (l.done) continue;
      if (now < stop && l.sent < l.max_requests) {
        if (open) {
          while (l.sent < l.max_requests && due_of(l, l.sent) <= now &&
                 due_of(l, l.sent) < stop) {
            const Request req = l.source(l.sent);
            l.conn->queue(req.line);
            l.fifo.push_back({due_of(l, l.sent), now, req.expect});
            l.st->late_ms.push_back(ms_between(due_of(l, l.sent), now));
            ++l.sent;
            ++l.st->attempted;
          }
        } else {
          while (l.fifo.size() < depth && l.sent < l.max_requests) {
            const Request req = l.source(l.sent);
            l.conn->queue(req.line);
            l.fifo.push_back({now, now, req.expect});
            ++l.sent;
            ++l.st->attempted;
          }
        }
      }
      const bool sending_done = now >= stop || l.sent >= l.max_requests;
      if (sending_done && l.fifo.empty()) {
        l.done = true;
        continue;
      }
      if (!l.conn->flush()) {
        fail_lane(l, &PhaseStats::conn_errors, "connection lost on send");
        continue;
      }
      if (open && !sending_done) {
        const auto until = std::chrono::duration_cast<std::chrono::microseconds>(
                               due_of(l, l.sent) - now).count();
        wait_us = std::max<std::int64_t>(0, std::min<std::int64_t>(wait_us, until));
      }
      fds.push_back({l.conn->fd(),
                     static_cast<short>(POLLIN | (l.conn->has_output() ? POLLOUT : 0)), 0});
      polled.push_back(&l);
    }
    if (fds.empty()) return;
    timespec ts{};
    ts.tv_sec = wait_us / 1000000;
    ts.tv_nsec = (wait_us % 1000000) * 1000;
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR) {
      for (Lane* l : polled) fail_lane(*l, &PhaseStats::conn_errors, "poll failed");
      return;
    }
    const Clock::time_point got = Clock::now();
    for (std::size_t i = 0; i < fds.size(); ++i) {
      Lane& l = *polled[i];
      const short revents = fds[i].revents;
      if ((revents & POLLOUT) != 0 && !l.conn->flush()) {
        fail_lane(l, &PhaseStats::conn_errors, "connection lost on send");
        continue;
      }
      bool alive = true;
      lines.clear();
      if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        alive = l.conn->read_lines(&lines);
      }
      for (std::string& line : lines) {
        if (l.fifo.empty()) {
          ++l.st->err_lines;
          if (l.st->first_error.empty()) l.st->first_error = "unsolicited: " + line;
          continue;
        }
        const InFlight req = l.fifo.front();
        l.fifo.pop_front();
        if (line.rfind(req.expect, 0) == 0) {
          ++l.st->ok;
          l.st->samples.push_back({since_start(req.due), ms_between(req.due, got),
                                   ms_between(req.sent, got)});
        } else {
          ++l.st->err_lines;
          l.st->samples.push_back({since_start(req.due), kFailed, kFailed});
          if (l.st->first_error.empty()) l.st->first_error = line;
        }
        if (l.responses != nullptr) l.responses->push_back(std::move(line));
      }
      if (!alive) {
        const bool sending_done = got >= stop || l.sent >= l.max_requests;
        if (l.fifo.empty() && (sending_done || !l.conn->has_output())) {
          l.done = true;
        } else {
          fail_lane(l, &PhaseStats::conn_errors, "connection lost on receive");
        }
        continue;
      }
      if (!lines.empty()) l.last_progress = got;
      if (!l.fifo.empty() &&
          std::chrono::duration_cast<std::chrono::microseconds>(got - l.last_progress)
                  .count() > kTimeoutUs) {
        fail_lane(l, &PhaseStats::timeouts, "response timeout");
      }
    }
  }
}

/// The one CPU this process is confined to, or -1 when it may use several.
int pinned_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0 || CPU_COUNT(&set) != 1) {
    return -1;
  }
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) return c;
  }
  return -1;
}

/// CPU time the hypervisor has taken from CPU `cpu` so far (from every CPU
/// when `cpu` < 0), in seconds; 0 where /proc/stat has no steal column.
double cpu_steal_s(int cpu) {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  const std::string want = cpu < 0 ? "cpu" : "cpu" + std::to_string(cpu);
  char line[512];
  double steal = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    char name[32];
    unsigned long long v[8] = {};
    if (std::sscanf(line, "%31s %llu %llu %llu %llu %llu %llu %llu %llu", name,
                    &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 9 &&
        want == name) {
      steal = static_cast<double>(v[7]) / static_cast<double>(::sysconf(_SC_CLK_TCK));
      break;
    }
  }
  std::fclose(f);
  return steal;
}

/// Sends `requests` pipelined at `depth` and returns the responses.
PhaseStats run_script(LineConn& conn, const std::vector<Request>& requests,
                      std::size_t depth, std::vector<std::string>* responses) {
  PhaseStats st;
  std::vector<Lane> lanes(1);
  lanes[0].conn = &conn;
  lanes[0].source = [&](std::size_t i) { return requests[i]; };
  lanes[0].max_requests = requests.size();
  lanes[0].st = &st;
  lanes[0].responses = responses;
  drive(lanes, false, depth, Clock::now(), Clock::time_point::max());
  return st;
}

/// One request, one response (control traffic such as `stats`).
std::string ask(LineConn& conn, const std::string& line, PhaseStats* st) {
  std::vector<std::string> responses;
  const PhaseStats one = run_script(conn, {{line, "ok"}}, 1, &responses);
  st->absorb(one);
  return responses.empty() ? std::string() : responses.front();
}

std::uint64_t field(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(" " + key + "=");
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + key.size() + 2, nullptr, 10);
}

std::vector<std::uint32_t> parse_solve_sets(const std::string& line) {
  std::vector<std::uint32_t> sets;
  const std::size_t at = line.find("sets=");
  if (at == std::string::npos) return sets;
  const char* p = line.c_str() + at + 5;
  while (*p != '\0') {
    char* end = nullptr;
    const unsigned long v = std::strtoul(p, &end, 10);
    if (end == p) break;
    sets.push_back(static_cast<std::uint32_t>(v));
    p = *end == ',' ? end + 1 : end;
  }
  return sets;
}

std::string format1(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f", value);
  return buf;
}

struct Args {
  int port = 0;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string probe_out;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* key) -> const char* {
      const std::string prefix = std::string("--") + key + "=";
      return arg.rfind(prefix, 0) == 0 ? argv[i] + prefix.size() : nullptr;
    };
    if (const char* v = value("port")) a->port = std::atoi(v);
    else if (const char* v = value("seed")) a->seed = std::strtoull(v, nullptr, 10);
    else if (const char* v = value("seconds")) a->seconds = std::atof(v);
    else if (const char* v = value("probe-out")) a->probe_out = v;
    else return false;
  }
  return a->port > 0;
}

int run(const Args& args) {
  ScenarioState state(args.seed);
  const int cpu = pinned_cpu();
  const std::vector<TenantSpec>& tenants = state.tenants;
  Json out;
  PhaseStats control;  // set-up, probe, job, stats polls and verification

  LineConn ctl;
  if (!ctl.connect_to(args.port)) {
    std::fprintf(stderr, "cannot connect to 127.0.0.1:%d\n", args.port);
    return 1;
  }

  // ------------------------------------------------------------ set-up --
  const Clock::time_point setup_start = Clock::now();
  control.absorb(run_script(ctl, state.setup_requests(), 64, nullptr));
  out.num("setup_s", ms_between(setup_start, Clock::now()) / 1000.0);

  // ------------------------------------------------------------- probe --
  if (!args.probe_out.empty()) {
    const std::vector<Request> probe = state.probe_requests();
    std::FILE* f = std::fopen(args.probe_out.c_str(), "w");
    if (f == nullptr) return 1;
    for (std::size_t i = 0; i < probe.size(); ++i) {
      std::vector<std::string> responses;
      const Clock::time_point t0 = Clock::now();
      const PhaseStats one = run_script(ctl, {probe[i]}, 1, &responses);
      const double rt_us = ms_between(t0, Clock::now()) * 1000.0;
      control.absorb(one);
      // One line per request: id, round trip, response (the replay checks
      // its own responses against these).
      std::fprintf(f, "%zu %.3f %s\n", i, rt_us,
                   responses.empty() ? "-" : responses.front().c_str());
    }
    std::fclose(f);
  }

  // --------------------------------------------------------------- job --
  // The mean job time in time the machine gave the processes: the summed
  // job walls less the CPU time the host took meanwhile (kJobReps jobs, so
  // /proc/stat's 10 ms steal resolution is a small share of the sum).
  {
    double wall_s = 0.0;
    double steal_s = 0.0;
    for (std::size_t j = 0; j < kJobReps; ++j) {
      const std::vector<Request> job = job_requests(args.seed, j);
      std::vector<std::string> responses;
      const double steal0 = cpu_steal_s(cpu);
      const Clock::time_point t0 = Clock::now();
      control.absorb(run_script(ctl, job, 16, &responses));
      wall_s += ms_between(t0, Clock::now()) / 1000.0;
      steal_s += cpu_steal_s(cpu) - steal0;
      ask(ctl, "drop " + job_spec(j).name, &control);
    }
    out.num("job_s", (wall_s - steal_s) / static_cast<double>(kJobReps));
    out.num("job_steal_s", steal_s);
  }

  // ------------------------------------------------------------ phases --
  const std::size_t conns = tenants.size();
  std::vector<std::unique_ptr<LineConn>> lanes;
  for (std::size_t c = 0; c < conns; ++c) {
    lanes.push_back(std::make_unique<LineConn>());
    if (!lanes.back()->connect_to(args.port)) return 1;
  }
  const bool traced = !args.probe_out.empty();

  auto tenant_versions = [&]() {
    std::uint64_t total = 0;
    for (const TenantSpec& t : tenants) {
      total += field(ask(ctl, "stats " + t.name, &control), "version");
    }
    return total;
  };

  auto run_phase = [&](bool open, double seconds, PhaseStats* phase) {
    std::vector<PhaseStats> per(conns);
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
    const Clock::time_point stop =
        start + std::chrono::microseconds(static_cast<std::int64_t>(seconds * 1e6));
    std::vector<Lane> phase_lanes(conns);
    for (std::size_t c = 0; c < conns; ++c) {
      phase_lanes[c].conn = lanes[c].get();
      phase_lanes[c].source = [&, c](std::size_t) { return state.next_request(c); };
      phase_lanes[c].rate = tenants[c].open_rate;
      // Lane c sends c/conns of a period after lane 0, so the lanes'
      // schedules interleave instead of arriving in bursts.
      phase_lanes[c].offset_s =
          static_cast<double>(c) / static_cast<double>(conns) / tenants[c].open_rate;
      phase_lanes[c].st = &per[c];
    }
    // The traced run samples the pool backlog while the phase runs, from a
    // second thread (traced runs give per-layer figures only).
    std::uint64_t pending_max = 0;
    PhaseStats polls;
    std::thread poller_thread;
    if (traced && !open) {
      poller_thread = std::thread([&] {
        LineConn poller;
        if (!poller.connect_to(args.port)) return;
        while (Clock::now() < stop) {
          const std::string line = ask(poller, "stats", &polls);
          pending_max = std::max(pending_max, field(line, "pool_pending"));
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      });
    }
    drive(phase_lanes, open, kClosedDepth, start, stop);
    if (poller_thread.joinable()) poller_thread.join();
    control.absorb(polls);
    const double elapsed = ms_between(start, Clock::now()) / 1000.0;
    for (const PhaseStats& p : per) phase->absorb(p);
    return std::make_pair(elapsed, pending_max);
  };

  const double closed_s = args.seconds * 0.5;
  const double open_s = args.seconds * 0.5;

  // The open loop runs first, so its latencies do not depend on what the
  // saturating closed loop leaves behind.
  PhaseStats open;
  const double open_steal_before = cpu_steal_s(cpu);
  run_phase(true, open_s, &open);
  out.num("open_steal_s", cpu_steal_s(cpu) - open_steal_before);

  // Closed loop: kWarmupS unmeasured (page faults and allocator growth of a
  // fresh working set), then the measured phase. rps is per second the
  // machine gave the processes: the phase's wall less the CPU time the
  // host took from their CPU meanwhile.
  PhaseStats warm;
  run_phase(false, kWarmupS, &warm);
  control.absorb(warm);
  const std::string stats_before = ask(ctl, "stats", &control);
  const std::uint64_t versions_before = tenant_versions();
  PhaseStats closed;
  const double closed_steal_before = cpu_steal_s(cpu);
  const auto [closed_elapsed, pending_max] = run_phase(false, closed_s, &closed);
  const double closed_steal = cpu_steal_s(cpu) - closed_steal_before;
  out.num("closed_steal_s", closed_steal);
  const std::string stats_after = ask(ctl, "stats", &control);
  const std::uint64_t versions_after = tenant_versions();
  out.num("rps", static_cast<double>(closed.ok) /
                     std::max(1e-3, closed_elapsed - closed_steal));
  out.num("closed_attempted", static_cast<double>(closed.attempted));
  out.num("closed_ok", static_cast<double>(closed.ok));
  out.num("closed_failed", static_cast<double>(closed.failed()));
  {
    const double requests = static_cast<double>(closed.attempted);
    const auto delta = [&](const char* key) {
      return static_cast<double>(field(stats_after, key) - field(stats_before, key));
    };
    out.num("net_wakeups_per_req", delta("epoll_wakeups") / std::max(1.0, requests));
    out.num("net_pool_pending_max", static_cast<double>(pending_max));
    out.num("dispatch_batched_ratio", delta("batched_requests") / std::max(1.0, requests));
    out.num("dispatch_coalesced_ingest_lines", delta("coalesced_ingest_lines"));
    out.num("fleet_publishes", static_cast<double>(versions_after - versions_before));
  }

  const std::string stats_end = ask(ctl, "stats", &control);
  {
    const double hits = static_cast<double>(field(stats_end, "cache_hits"));
    const double misses = static_cast<double>(field(stats_end, "cache_misses"));
    out.num("solve_cache_hit_ratio", hits / std::max(1.0, hits + misses));
  }
  out.num("open_attempted", static_cast<double>(open.attempted));
  out.num("open_ok", static_cast<double>(open.ok));
  out.num("open_failed", static_cast<double>(open.failed()));
  {
    std::vector<double> all_ms;
    for (const auto& sample : open.samples) all_ms.push_back(sample.ms);
    out.num("open_samples", static_cast<double>(all_ms.size()));
    out.num("p50_ms", quantile(all_ms, 0.50));
    out.num("p99_ms", quantile(all_ms, 0.99));
    // The same quantiles per full kLatencyWindowS window (by due time): a
    // run's figure is the median over its windows, so a few windows hit by
    // a host stall do not set it.
    const auto windows = std::max<std::size_t>(
        1, static_cast<std::size_t>(open_s / kLatencyWindowS));
    std::vector<std::vector<double>> per(windows), per_sent(windows);
    for (const auto& sample : open.samples) {
      const auto w = std::min(windows - 1, static_cast<std::size_t>(
                                               std::max(0.0, sample.due_s) / kLatencyWindowS));
      per[w].push_back(sample.ms);
      per_sent[w].push_back(sample.sent_ms);
    }
    std::vector<double> p50w, p99w, p99_sent_w;
    for (std::size_t w = 0; w < windows; ++w) {
      p50w.push_back(quantile(per[w], 0.50));
      p99w.push_back(quantile(per[w], 0.99));
      p99_sent_w.push_back(quantile(per_sent[w], 0.99));
    }
    out.list("p50_windows_ms", p50w);
    out.list("p99_windows_ms", p99w);
    out.list("p99_sent_windows_ms", p99_sent_w);
  }
  out.num("late_p99_ms", quantile(open.late_ms, 0.99));

  // ------------------------------------------------------------ verify --
  std::string verify_error;
  for (std::size_t t = 0; t < tenants.size() && verify_error.empty(); ++t) {
    const TenantSpec& spec = tenants[t];
    const std::size_t sent = state.streams[t].consumed();
    const std::string stats = ask(ctl, "stats " + spec.name, &control);
    if (field(stats, "edges") != sent) {
      verify_error = spec.name + ": server counted " +
                     std::to_string(field(stats, "edges")) + " edges, sent " +
                     std::to_string(sent);
      break;
    }
    covstream::StreamingOptions options;
    options.eps = kTenantEps;
    options.seed = kTenantSeed;
    covstream::SubsampleSketch twin(options.sketch_params(spec.n, spec.k));
    const std::vector<Pair> edges = stream_prefix(args.seed, t, spec, sent);
    std::vector<covstream::Edge> chunk;
    for (std::size_t i = 0; i < edges.size(); i += 4096) {
      chunk.clear();
      for (std::size_t j = i; j < std::min(edges.size(), i + 4096); ++j) {
        chunk.push_back({edges[j].set, edges[j].elem});
      }
      twin.update_chunk(chunk);
    }
    for (const auto& family : state.families[t]) {
      const std::string got =
          ask(ctl, estimate_request(spec.name, family).line, &control);
      const std::vector<covstream::SetId> ids(family.begin(), family.end());
      const std::string want = std::string(kOkEstimate) + format1(twin.estimate_coverage(ids));
      if (got != want) {
        verify_error = spec.name + ": estimate {" + family_text(family) +
                       "} answered '" + got + "', in-process twin '" + want + "'";
        break;
      }
    }
    if (t == kCoverTenant && verify_error.empty()) {
      const std::string solved = ask(ctl, solve_request(spec.name, spec.k).line, &control);
      const SetLists sets = sets_from_edges(edges, spec.n);
      const double greedy = static_cast<double>(greedy_coverage(sets, spec.k));
      const double ours = static_cast<double>(true_coverage(sets, parse_solve_sets(solved)));
      out.num("cover_ratio", greedy > 0 ? ours / greedy : 0.0);
    }
  }
  if (verify_error.empty() && control.failed() > 0) {
    verify_error = "control request failed: " + control.first_error;
  }
  ask(ctl, "shutdown", &control);

  PhaseStats all = control;
  all.absorb(closed);
  all.absorb(open);
  out.num("attempted", static_cast<double>(all.attempted));
  out.num("failed", static_cast<double>(all.failed()));
  out.num("err_lines", static_cast<double>(all.err_lines));
  out.num("conn_errors", static_cast<double>(all.conn_errors));
  out.num("timeouts", static_cast<double>(all.timeouts));
  out.str("first_error", all.first_error);
  out.str("verify_error", verify_error);
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_load --port=P --seed=S --seconds=T "
                 "[--probe-out=PATH]\n");
    return 2;
  }
  return perfbench::run(args);
}
