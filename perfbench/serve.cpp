// serve-mix: the `dckpt serve` TCP front end (sim::Server around an
// EvalService, the same pair the CLI builds) on loopback, driven open-loop
// by a seeded Poisson schedule.
//
// Request keys follow a Zipf law over 8192 scenarios. The mix is
// closed-form waste/period/risk answers, kind=sim requests whose popular
// keys repeat and hit the cache, and small sims with a fresh seed that are
// always computed. No trace of real serve traffic exists: the 50/30/20
// split and the exponent 1.1 are choices, skewed so that a few hot
// scenarios carry most requests, as util/lru.hpp assumes. Every phase
// starts a fresh server and replays one window of the schedule with its
// arrival times scaled to the offered rate. Phases take the schedule's
// windows in turn, so the search and the repetitions average over request
// content: over ten seeds, the in-process capacity of the first thousand
// requests alone ranged from 4300/s to 7900/s.
//
// A phase of about a thousand requests touches about 600 distinct cache
// entries (every kind is cached, and so is every fresh-seed sim), so the
// default 1024-entry LRU would never fill within one. The service runs
// with `--cache-capacity 256` instead: each phase evicts, and the LRU
// policy decides which popular keys still hit.
//
// The generator keeps at most one request in flight on each of at most
// four connections. The server sheds a heavy request only when its queue
// already holds queue_depth (4) jobs, so this load never sees a busy
// reply; one would count as a failed operation.
//
// ops_per_s: max_qps, the highest offered rate at which a probe keeps its
//   p99 within the latency limit with no failed reply and no growing
//   backlog; found by bisection to 8%, then an up-down staircase
//   in 4% steps whose visited rates give the median.
// p50_ms: latency of uncached sim requests at the reference rate, timed
//   from each request's due time; the median over repetitions spread
//   across the run. Light requests (closed-form and cache hits) answer in
//   about 0.13 ms, mostly the host's wake-up time; they and the tails are
//   reported in the traced run.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <deque>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "model/period.hpp"
#include "model/risk.hpp"
#include "model/scenario.hpp"
#include "model/waste.hpp"
#include "sim/server.hpp"
#include "sim/service.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace dckpt;

constexpr std::size_t kKeySpace = 8192;
constexpr std::size_t kCacheCapacity = 256;  // `dckpt serve --cache-capacity`
constexpr double kZipfExponent = 1.1;
constexpr double kReferenceRate = 1000.0;  // requests/s
constexpr std::size_t kRefReps = 7;        // reference-rate repetitions
constexpr double kRefShare = 0.045;        // of the run, per repetition
constexpr double kSideShare = 0.03;        // low and high rates, each
constexpr double kLatencyLimitMs = 20.0;   // p99 limit for max_qps
constexpr std::size_t kProbeRequests = 1000;
constexpr std::size_t kWindows = 6;        // schedule windows phases rotate
constexpr double kStallSeconds = 20.0;     // no reply for this long: abort

std::string normalized(std::string reply) {
  const std::string hit = "\"cached\":true";
  const auto pos = reply.find(hit);
  if (pos != std::string::npos) {
    reply.replace(pos, hit.size(), "\"cached\":false");
  }
  return reply;
}

bool is_error(const std::string& reply) {
  return reply.find("\"record\":\"eval_error\"") != std::string::npos;
}

sim::EvalServiceOptions service_options() {
  sim::EvalServiceOptions options;
  options.cache_capacity = kCacheCapacity;
  return options;
}

/// What the in-process service answers for the schedule, in order.
struct Reference {
  std::vector<std::string> replies;  ///< normalized
  std::vector<double> handle_ms;
  std::vector<bool> light;           ///< closed-form or cache hit
};

Reference replay_in_process(const ServeSchedule& schedule, std::size_t count) {
  Reference ref;
  sim::EvalService service{service_options()};
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t start = now_ns();
    std::string reply;
    {
      TraceScope span("sim.service.handle_line", i + 1);
      reply = service.handle_line(schedule.lines[i]);
    }
    ref.handle_ms.push_back(static_cast<double>(now_ns() - start) * 1e-6);
    ref.light.push_back(!schedule.heavy[i] ||
                        reply.find("\"cached\":true") != std::string::npos);
    ref.replies.push_back(normalized(std::move(reply)));
  }
  return ref;
}

struct PhaseResult {
  double rate = 0.0;
  std::size_t first = 0;    ///< schedule index of the phase's first request
  std::size_t sent = 0;
  std::size_t succeeded = 0;
  std::size_t failed = 0;   ///< wrong, error (busy included) or unanswered
  double setup_s = 0.0;
  std::vector<double> latency_ms;  ///< per request; NaN when unanswered
  std::vector<double> lag_ms;      ///< send time minus due time
  std::vector<bool> light;         ///< as answered
  std::string stats;               ///< serve_stats record after the phase
};

class Socket {
 public:
  explicit Socket(int port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect() to the server failed");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Socket() { ::close(fd_); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const noexcept { return fd_; }

  void send_line(const std::string& line) {
    const std::string data = line + "\n";
    std::size_t done = 0;
    while (done < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + done, data.size() - done, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send() to the server failed");
      done += static_cast<std::size_t>(n);
    }
  }

  /// Reads what is available; appends complete lines to `lines`.
  bool read_lines(std::vector<std::string>& lines) {
    char buffer[65536];
    const ssize_t n = ::recv(fd_, buffer, sizeof buffer, MSG_DONTWAIT);
    if (n == 0) return false;
    if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    input_.append(buffer, static_cast<std::size_t>(n));
    std::size_t begin = 0;
    for (auto nl = input_.find('\n'); nl != std::string::npos;
         nl = input_.find('\n', begin)) {
      lines.push_back(input_.substr(begin, nl - begin));
      begin = nl + 1;
    }
    input_.erase(0, begin);
    return true;
  }

 private:
  int fd_;
  std::string input_;
};

/// A sim::Server with its poll loop on its own thread; the destructor
/// drains the server and joins the thread.
class RunningServer {
 public:
  explicit RunningServer(sim::EvalService& service)
      : server_(service, sim::ServerOptions{}) {
    if (!server_.start()) throw std::runtime_error("server failed to start");
    loop_ = std::thread([this] { server_.run(); });
  }
  ~RunningServer() {
    server_.request_stop();
    loop_.join();
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  int port() const noexcept { return server_.port(); }

 private:
  sim::Server server_;
  std::thread loop_;  // after server_, which it runs
};

/// Starts a fresh server, sends scheduled requests [first, first + count)
/// at `rate` over `connections` sockets, and collects every reply. Indices
/// into the result are relative to `first`.
PhaseResult run_phase(const ServeSchedule& schedule, const Reference& ref,
                      std::size_t first, std::size_t count, double rate,
                      std::size_t connections) {
  PhaseResult result;
  result.rate = rate;
  result.first = first;
  result.latency_ms.assign(count, std::numeric_limits<double>::quiet_NaN());
  result.lag_ms.assign(count, 0.0);
  result.light.assign(count, true);

  const std::int64_t setup_start = now_ns();
  sim::EvalService service{service_options()};
  auto server = std::make_unique<RunningServer>(service);
  std::vector<std::unique_ptr<Socket>> sockets;
  for (std::size_t c = 0; c < connections; ++c) {
    sockets.push_back(std::make_unique<Socket>(server->port()));
  }
  result.setup_s = seconds_since(setup_start);

  // At most one request in flight per connection, like a pool of
  // non-pipelining clients: a request due while every connection waits
  // for a reply queues in the generator, and that wait counts in its
  // latency. (Pipelined replies would stall behind Nagle's algorithm:
  // the server does not set TCP_NODELAY, so a second reply waits for the
  // client's delayed ACK of the first.)
  constexpr std::size_t kIdle = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> in_flight(connections, kIdle);
  std::deque<std::size_t> waiting;
  std::vector<pollfd> fds(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    fds[c] = pollfd{sockets[c]->fd(), POLLIN, 0};
  }
  const std::int64_t origin = now_ns() + 1'000'000;  // 1 ms lead-in
  const auto due_ns = [&](std::size_t i) {
    const double unit = schedule.unit_due[first + i] - schedule.unit_due[first];
    return origin + static_cast<std::int64_t>(unit / rate * 1e9);
  };
  std::size_t next = 0, answered = 0;
  std::int64_t last_progress = now_ns();
  std::vector<std::string> lines;
  while (answered < count) {
    const std::int64_t now = now_ns();
    for (; next < count && due_ns(next) <= now; ++next) {
      result.lag_ms[next] = static_cast<double>(now - due_ns(next)) * 1e-6;
      waiting.push_back(next);
    }
    for (std::size_t c = 0; c < connections && !waiting.empty(); ++c) {
      if (in_flight[c] != kIdle) continue;
      in_flight[c] = waiting.front();
      waiting.pop_front();
      sockets[c]->send_line(schedule.lines[first + in_flight[c]]);
      ++result.sent;
    }
    const std::int64_t wait_ns =
        next < count ? std::max<std::int64_t>(0, due_ns(next) - now_ns())
                     : 50'000'000;
    timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                     static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready < 0 && errno != EINTR) throw std::runtime_error("ppoll failed");
    for (std::size_t c = 0; ready > 0 && c < connections; ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      lines.clear();
      const bool open = sockets[c]->read_lines(lines);
      const std::int64_t received = now_ns();
      for (auto& reply : lines) {
        if (in_flight[c] == kIdle) break;
        const std::size_t i = in_flight[c];
        in_flight[c] = kIdle;
        ++answered;
        last_progress = received;
        result.latency_ms[i] =
            static_cast<double>(received - due_ns(i)) * 1e-6;
        tracer().record("sim.server.tcp_round_trip", due_ns(i), received,
                        first + i + 1);
        result.light[i] = !schedule.heavy[first + i] ||
                          reply.find("\"cached\":true") != std::string::npos;
        if (!is_error(reply) && normalized(reply) == ref.replies[first + i]) {
          ++result.succeeded;
        } else {
          ++result.failed;
        }
      }
      if (!open) fds[c].fd = -1;  // server closed: remaining stay unanswered
    }
    if (seconds_since(last_progress) > kStallSeconds) break;
  }
  sockets.clear();
  server.reset();  // drained and joined: the service is ours again
  result.failed += count - answered;
  result.stats = service.handle_line("STATS");
  return result;
}

/// A field of the `cache` object of a serve_stats record.
double cache_stat(const std::string& record, const std::string& key) {
  return util::parse_json(record).at("cache").at(key).as_number();
}

std::vector<double> select(const PhaseResult& phase, bool light) {
  std::vector<double> out;
  for (std::size_t i = 0; i < phase.latency_ms.size(); ++i) {
    if (phase.light[i] == light && std::isfinite(phase.latency_ms[i])) {
      out.push_back(phase.latency_ms[i]);
    }
  }
  return out;
}

/// max_qps acceptance: p99 within the limit, no failed reply (a busy reply
/// fails), and the last quarter of the requests no slower than the first
/// quarter allows (a growing backlog).
bool meets_limits(const PhaseResult& phase) {
  if (phase.failed > 0) return false;
  if (quantile(phase.latency_ms, 0.99) > kLatencyLimitMs) return false;
  const std::size_t quarter = phase.latency_ms.size() / 4;
  const std::vector<double> first(phase.latency_ms.begin(),
                                  phase.latency_ms.begin() + quarter);
  const std::vector<double> last(phase.latency_ms.end() - quarter,
                                 phase.latency_ms.end());
  return median(last) <= 2.0 * median(first) + 5.0;
}

/// The closed forms a light request evaluates: period, waste, risk.
double closed_form_us() {
  const auto params = model::base_scenario().at_phi_ratio(0.25);
  double sink = 0.0;
  int i = 0;
  const double seconds = seconds_per_call("model.closed_form", 15, 2000, [&] {
    const auto protocol = static_cast<model::Protocol>(1 + i++ % 3);
    const double period =
        model::optimal_period_closed_form(protocol, params).period;
    sink += model::waste(protocol, params, period);
    sink += model::risk_window(protocol, params);
  });
  return sink == -1.0 ? 0.0 : seconds * 1e6;
}

}  // namespace

ServeSchedule make_serve_schedule(std::uint64_t seed, std::size_t count) {
  static const std::vector<double> cdf = [] {
    std::vector<double> weights(kKeySpace);
    double total = 0.0;
    for (std::size_t k = 0; k < kKeySpace; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
      weights[k] = total;
    }
    for (double& w : weights) w /= total;
    return weights;
  }();
  static const char* const kProtocols[] = {"DoubleNbl", "DoubleBof", "Triple"};
  util::Xoshiro256ss rng(seed ^ 0x5e77e5ULL);
  ServeSchedule schedule;
  double due = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const double u = rng.next_double();
    const auto key = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const std::string scenario =
        std::string(" protocol=") + kProtocols[key % 3] +
        " mtbf=" + std::to_string(3600 + key / 3);
    const double kind = rng.next_double();
    std::string line;
    if (kind < 0.2) {
      line = "EVAL kind=waste" + scenario;
    } else if (kind < 0.35) {
      line = "EVAL kind=period" + scenario;
    } else if (kind < 0.5) {
      line = "EVAL kind=risk" + scenario;
    } else if (kind < 0.8) {
      // Popular keys repeat, so most of these replay from the cache.
      line = "EVAL kind=sim" + scenario + " tbase=20000 trials=32 seed=7";
    } else {
      // A fresh seed per request: always computed, at a fixed cost.
      line = "EVAL kind=sim protocol=Triple mtbf=3600 tbase=20000 trials=128 "
             "seed=" + std::to_string(1000 + i);
    }
    schedule.heavy.push_back(kind >= 0.5);
    schedule.lines.push_back(std::move(line));
    due += -std::log(rng.next_double_open_zero());
    schedule.unit_due.push_back(due);
  }
  return schedule;
}

Outcome run_serve(const RunOptions& options) {
  // The generator, the server loop and the service's worker share one
  // CPU: the parallelism this VM grants moves between about 1 and 4 CPUs
  // over minutes, and with threads spread out max_qps followed it.
  pin_to_one_cpu();
  Outcome out;
  Budget budget(options.seconds);
  const bool traced = tracer().enabled();
  const std::size_t connections = std::min<std::size_t>(4, hardware_threads());
  const double s = options.seconds;
  const auto ref_count =
      static_cast<std::size_t>(kRefShare * s * kReferenceRate);
  const auto side_count =
      static_cast<std::size_t>(kSideShare * s * kReferenceRate);
  const std::size_t window = std::max({kProbeRequests, ref_count, side_count});
  const std::size_t total = kWindows * window;

  const ServeSchedule schedule = make_serve_schedule(options.seed, total);
  const Reference ref = replay_in_process(schedule, total);
  tracer().set_enabled(false);  // spans: reference replay and ref phases

  std::vector<double> setup_samples;
  std::size_t phases = 0;
  const auto run_checked = [&](const std::string& what, std::size_t count,
                               double rate) {
    const std::size_t first = (phases++ % kWindows) * window;
    PhaseResult phase =
        run_phase(schedule, ref, first, count, rate, connections);
    setup_samples.push_back(phase.setup_s);
    out.attempted += count;
    out.failed += phase.failed;
    if (phase.failed > 0 && out.problems.size() < 8) {
      out.problems.push_back("serve " + what + ": " +
                             std::to_string(phase.failed) +
                             " failed or wrong replies");
    }
    return phase;
  };
  // The reference rate runs as kRefReps short phases spread over the run,
  // between max_qps probes, so a slow spell of the host lands in a few of
  // them; the reported percentiles are medians over the repetitions.
  std::vector<PhaseResult> reference;
  const auto reference_rep = [&] {
    tracer().set_enabled(traced);
    reference.push_back(run_checked("ref", ref_count, kReferenceRate));
    tracer().set_enabled(false);
  };
  const PhaseResult low = run_checked("low", side_count, 0.5 * kReferenceRate);
  reference_rep();

  // max_qps: a coarse bracket in 25% steps from the in-process capacity
  // estimate, then an up-down staircase in 4% steps that settles around
  // the highest rate meeting the limits. max_qps is the median rate the
  // staircase visited, steadier under host noise than one bisection's end.
  double handle_s = 0.0;
  for (const double ms : ref.handle_ms) handle_s += ms * 1e-3;
  const double estimate = static_cast<double>(total) / handle_s;
  std::size_t probes = 0;
  bool any_pass = false;
  const auto passes = [&](double rate) {
    if (++probes % 4 == 0 && reference.size() < kRefReps) reference_rep();
    const PhaseResult probe = run_checked("probe", kProbeRequests, rate);
    const bool ok = meets_limits(probe);
    any_pass = any_pass || ok;
    return ok;
  };
  // Time still owed to reference repetitions and the high rate.
  const auto reserve = [&] {
    return 1.0 - (static_cast<double>(kRefReps - reference.size()) *
                      kRefShare +
                  kSideShare + 0.03);
  };
  double lo = 0.0, hi = 0.0;
  double rate = 0.6 * estimate;
  for (int i = 0; i < 8 && (lo == 0.0 || hi == 0.0) &&
                  budget.before(reserve());
       ++i) {
    if (passes(rate)) {
      lo = rate;
      rate *= 1.25;
    } else {
      hi = rate;
      rate /= 1.25;
    }
  }
  rate = lo > 0.0 ? lo : rate;
  while (lo > 0.0 && hi > 0.0 && hi / lo > 1.08 && budget.before(reserve())) {
    const double mid = std::sqrt(lo * hi);
    if (passes(mid)) lo = mid; else hi = mid;
    rate = lo;
  }
  // The staircase: visits after its second reversal count.
  std::vector<double> visited;
  int reversals = 0;
  bool up = true;
  while (budget.before(reserve()) || visited.size() < 4) {
    const bool ok = passes(rate);
    if (ok != up) ++reversals;
    up = ok;
    if (reversals >= 2) visited.push_back(rate);
    rate = ok ? rate * 1.04 : rate / 1.04;
    if (reversals < 2 && !budget.before(reserve())) visited.push_back(rate);
  }
  const double max_qps = median(visited);
  out.check(any_pass, "serve: no offered rate met the limits");
  while (reference.size() < kRefReps) reference_rep();
  const PhaseResult high =
      run_checked("high", side_count, 2.0 * kReferenceRate);

  std::vector<double> p50, light, heavy, lag;
  for (const auto& rep : reference) {
    const auto rep_light = select(rep, true);
    const auto rep_heavy = select(rep, false);
    p50.push_back(quantile(rep_heavy, 0.5));
    light.insert(light.end(), rep_light.begin(), rep_light.end());
    heavy.insert(heavy.end(), rep_heavy.begin(), rep_heavy.end());
    lag.insert(lag.end(), rep.lag_ms.begin(), rep.lag_ms.end());
  }
  if (!traced) {
    out.set("setup_s", median(setup_samples), "s");
    out.set("ops_per_s", max_qps, "1/s");
    out.set("p50_ms", median(p50), "ms");
  } else {
    tracer().set_enabled(true);
    out.set("model.closed_form_us", closed_form_us(), "us");
    std::vector<double> closed, cached, simulated, wait;
    for (std::size_t i = 0; i < total; ++i) {
      if (!schedule.heavy[i]) {
        closed.push_back(ref.handle_ms[i] * 1e3);
      } else if (ref.light[i]) {
        cached.push_back(ref.handle_ms[i] * 1e3);
      } else {
        simulated.push_back(ref.handle_ms[i]);
      }
    }
    for (const auto& rep : reference) {
      for (std::size_t i = 0; i < rep.latency_ms.size(); ++i) {
        if (std::isfinite(rep.latency_ms[i])) {
          wait.push_back(rep.latency_ms[i] - ref.handle_ms[rep.first + i]);
        }
      }
    }
    out.set("sim.service.closed_us", median(closed), "us");
    out.set("sim.service.cached_us", median(cached), "us");
    out.set("sim.service.sim_ms", median(simulated), "ms");
    out.set("sim.service.cache_hit_rate",
            cache_stat(reference.front().stats, "hit_rate"), "ratio");
    out.set("sim.service.evictions",
            cache_stat(reference.front().stats, "evictions"), "count");
    out.set("sim.server.queue_wait_p50_ms", quantile(wait, 0.5), "ms");
    out.set("sim.server.queue_wait_p99_ms", quantile(wait, 0.99), "ms");
    out.set("serve.generator_lag_ms", quantile(lag, 0.99), "ms");
    out.set("serve.light_p50_ms", quantile(light, 0.5), "ms");
    out.set("serve.light_p99_ms", quantile(light, 0.99), "ms");
    out.set("serve.sim_p50_ms", quantile(heavy, 0.5), "ms");
    out.set("serve.sim_p99_ms", quantile(heavy, 0.99), "ms");
    out.set("serve.max_qps", max_qps, "1/s");
    PhaseResult all_ref;  // the reference repetitions together
    for (const auto& rep : reference) {
      all_ref.sent += rep.sent;
      all_ref.succeeded += rep.succeeded;
      all_ref.failed += rep.failed;
    }
    all_ref.lag_ms = lag;
    const std::pair<const char*, const PhaseResult*> sides[] = {
        {"low", &low}, {"ref", &all_ref}, {"high", &high}};
    for (const auto& [name, phase] : sides) {
      const std::string prefix = std::string("serve.") + name + ".";
      out.set(prefix + "sent", static_cast<double>(phase->sent), "count");
      out.set(prefix + "succeeded", static_cast<double>(phase->succeeded),
              "count");
      out.set(prefix + "failed", static_cast<double>(phase->failed), "count");
      out.set(prefix + "lag_ms", quantile(phase->lag_ms, 0.99), "ms");
    }
    // Tracing overhead: the first reference phase again with tracing off.
    tracer().set_enabled(false);
    const PhaseResult& traced_rep = reference.front();
    const PhaseResult untraced =
        run_phase(schedule, ref, traced_rep.first, ref_count, kReferenceRate,
                  connections);
    const double on = quantile(traced_rep.latency_ms, 0.5);
    const double off = quantile(untraced.latency_ms, 0.5);
    out.set("trace.overhead_share", (on - off) / off, "ratio");
    tracer().set_enabled(true);
  }
  const std::pair<const char*, const PhaseResult*> notes[] = {
      {"low", &low}, {"ref", &reference.front()}, {"high", &high}};
  for (const auto& [name, phase] : notes) {
    out.notes.push_back(
        std::string("serve ") + name + " " + std::to_string(phase->rate) +
        "/s: sent " + std::to_string(phase->sent) + ", succeeded " +
        std::to_string(phase->succeeded) + ", failed " +
        std::to_string(phase->failed) + ", lag p99 " +
        std::to_string(quantile(phase->lag_ms, 0.99)) + " ms");
  }
  out.notes.push_back("serve: capacity estimate " + std::to_string(estimate) +
                      "/s, max_qps " + std::to_string(max_qps) + " after " +
                      std::to_string(probes) + " probes; sim p50 " +
                      std::to_string(median(p50)) + " ms over " +
                      std::to_string(reference.size()) + " repetitions");
  return out;
}

}  // namespace perfbench
