// Served phases: the workload's stream through two admission daemons,
// assembled from the public service classes the way rota_served assembles
// them (AdmissionService + FederatedService + ServiceServer), federated over
// unix sockets and driven by ServiceClient connections.
//
// Daemon A holds the workload's supply; daemon B holds supply only at
// peer_site(), where A has none. Single-actor evaluate work at peer_site()
// is rejected by A and forwarded to B through probe, offer and claim.
//
// Open loop: one connection replays the stream at its own arrival rate on
// the daemons' 10-ms protocol tick, with every fourth request a forward; a
// second thread reads the streamed decisions. Every request is timed from
// when it was due, and the sender's own lateness is recorded.
// Closed loop: a few connections, each waiting for its own reply, run the
// stream's prefix against a fresh daemon pair per pass; the decisions per
// second of a pass measure capacity.
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "referee.hpp"
#include "run.hpp"
#include "rota/obs/obs.hpp"
#include "rota/service/client.hpp"
#include "rota/service/federation.hpp"
#include "rota/service/server.hpp"

namespace perfbench {

using namespace rota;
using namespace rota::service;

namespace {

constexpr std::size_t kForwardEvery = 4;     // every 4th open-loop request
constexpr std::size_t kClosedConnections = 2;
constexpr std::size_t kClosedRequests = 2000;  // stream prefix per pass
constexpr int kReadTimeoutMs = 20'000;
constexpr int kWarmupAttempts = 100;

ClientOptions client_options() {
  ClientOptions o;
  o.connect_timeout_ms = 5'000;
  o.read_timeout_ms = kReadTimeoutMs;
  o.reconnect = false;  // a lost connection is a failure, not a redial
  return o;
}

/// One daemon as rota_served assembles it: ledger, service, federation
/// driver, socket front end routed through the federation.
struct Daemon {
  Daemon(ResourceSet supply, const CostModel& phi, const std::string& site,
         cluster::NodeId id, const std::string& client_path,
         const std::string& peer_listen, cluster::NodeId peer_id,
         const std::string& peer_address)
      : ledger(std::move(supply)), service(ledger, phi, ServiceConfig{}) {
    FederationConfig f;
    f.site = site;
    f.transport.local = id;
    f.transport.listen = "unix:" + peer_listen;
    f.transport.peers[peer_id] = "unix:" + peer_address;
    // The first dial of a peer may come before its listener is bound; a
    // short backoff keeps that from costing the default 500 ms of set-up.
    f.transport.reconnect_backoff_ms = 25;
    federation = std::make_unique<FederatedService>(service, f);
    ServerConfig s;
    s.unix_path = client_path;
    server = std::make_unique<ServiceServer>(
        service, s, [this](AdmitRequest r, AdmissionService::ResponseFn done) {
          federation->submit(std::move(r), std::move(done));
        });
  }

  CommitmentLedger ledger;
  AdmissionService service;
  std::unique_ptr<FederatedService> federation;
  std::unique_ptr<ServiceServer> server;
};

std::string socket_base(const RunOptions& opt) {
  static std::atomic<int> next{0};
  return opt.run_dir + "/" + std::to_string(::getpid()) + "-" + std::to_string(++next);
}

/// Daemon A (the workload's supply) and daemon B (peer_site() supply).
class DaemonPair {
 public:
  DaemonPair(const Inputs& in, const Stream& st, const RunOptions& opt)
      : base_(socket_base(opt)),
        a_(st.supply, in.phi, st.supply.types().empty()
                                  ? std::string("l1")
                                  : st.supply.types().front().source().name(),
           0, base_ + "a.sock", base_ + "a.peer", 1, base_ + "b.peer"),
        b_(peer_supply(), in.phi, peer_site().name(), 1, base_ + "b.sock",
           base_ + "b.peer", 0, base_ + "a.peer") {}

  ~DaemonPair() { stop(); }

  const std::string& client_path() const { return a_.server->unix_path(); }

  /// Blocks until one forward completes its round trip to B and back, which
  /// needs both peer sessions up. Forwards sent before that are rejected
  /// once the probe times out, so no load is timed until this returns.
  bool warm_up() {
    ServiceClient client = ServiceClient::connect_unix(client_path(), client_options());
    for (int k = 0; k < kWarmupAttempts; ++k) {
      const AdmitResponse r = client.call(
          forward_request(kWarmupIdBase + k, base_name() + "-warmup-" + std::to_string(k)));
      if (r.verdict == Verdict::kAccepted && r.strategy == "federated") {
        ++warmup_accepts_;
        return true;
      }
    }
    return false;
  }

  /// The daemon shutdown order: federation first, then each server drains
  /// its service. Idempotent.
  void stop() {
    if (stopped_) return;
    stopped_ = true;
    a_.federation->stop();
    b_.federation->stop();
    a_.server->stop();
    b_.server->stop();
    a_.service.drain_and_stop();
    b_.service.drain_and_stop();
  }

  Daemon& a() { return a_; }
  Daemon& b() { return b_; }
  std::uint64_t warmup_accepts() const { return warmup_accepts_; }
  std::string base_name() const { return std::filesystem::path(base_).filename().string(); }

  static constexpr std::uint64_t kWarmupIdBase = 1'000'000'000;

 private:
  std::string base_;
  Daemon a_, b_;
  std::uint64_t warmup_accepts_ = 0;
  bool stopped_ = false;
};

/// What came back for one request of a served phase.
struct Exchange {
  AdmitRequest request;
  Clock::time_point due, sent, received;
  std::optional<AdmitResponse> response;
  int responses = 0;
};

bool forwarded(const Exchange& e) {
  return e.response && e.response->strategy == "federated";
}

/// The accounting and safety checks every served pass ends with, after both
/// daemons stopped: one response per request, none shed, the daemon ledgers
/// agree with the responses, every accepted forward is a peer claim, no
/// degraded accept was refused, and the referee passes both ledgers.
void check_pass(DaemonPair& pair, const Stream& st,
                const std::map<std::string, std::size_t>& stream_index,
                const std::vector<Exchange>& exchanges, const RunOptions& opt, Report& report) {
  std::size_t local_accepts = 0, forward_accepts = pair.warmup_accepts();
  std::set<std::string> accepted_names;
  for (const Exchange& e : exchanges) {
    const std::string id = std::to_string(e.request.id);
    if (e.responses != 1 || !e.response) {
      report.fail("request " + id + " got " + std::to_string(e.responses) + " responses");
      continue;
    }
    if (e.response->id != e.request.id) {
      report.fail("request " + id + " answered with id " + std::to_string(e.response->id));
      continue;
    }
    if (e.response->verdict == Verdict::kOverloaded) {
      report.fail("request " + id + " shed: " + e.response->reason);
      continue;
    }
    if (e.response->verdict != Verdict::kAccepted) continue;
    if (forwarded(e)) {
      ++forward_accepts;
    } else {
      ++local_accepts;
      accepted_names.insert(e.request.computation.name());
    }
  }

  Daemon& a = pair.a();
  Daemon& b = pair.b();
  if (a.ledger.admitted_count() != local_accepts) {
    report.fail("daemon A ledger holds " + std::to_string(a.ledger.admitted_count()) +
                " admissions for " + std::to_string(local_accepts) + " accepted responses");
  }
  const FederationStats fa = a.federation->stats();
  const FederationStats fb = b.federation->stats();
  if (fa.forward_accepts != forward_accepts || fb.peer_claims != forward_accepts ||
      b.ledger.admitted_count() != forward_accepts) {
    report.fail("forward accounting: " + std::to_string(forward_accepts) +
                " accepted forwards, A counts " + std::to_string(fa.forward_accepts) +
                ", B peer claims " + std::to_string(fb.peer_claims) + ", B ledger " +
                std::to_string(b.ledger.admitted_count()));
  }
  const std::uint64_t revalidations = a.service.stats().revalidations_failed +
                                      b.service.stats().revalidations_failed;
  if (revalidations != 0) {
    report.fail(std::to_string(revalidations) + " degraded accepts refused at commit");
  }

  std::vector<ConcurrentPlan> plans_a;
  std::vector<const AdmittedRecord*> records_a;
  for (const AdmittedRecord& r : a.ledger.admitted()) {
    if (!accepted_names.count(r.name)) {
      report.fail("daemon A admitted " + r.name + " without an accepted response");
    }
    plans_a.push_back(r.plan);
    records_a.push_back(&r);
  }
  if (opt.inject == "extra-usage") inject_extra_usage(st.supply, plans_a);
  std::vector<AdmittedPlan> admitted_a;
  for (std::size_t k = 0; k < plans_a.size(); ++k) {
    const AdmittedRecord& r = *records_a[k];
    auto it = stream_index.find(r.name);
    if (it == stream_index.end()) {
      report.fail("daemon A admitted unknown computation " + r.name);
      continue;
    }
    const ConcurrentRequirement& rho = st.requests[it->second].rho;
    admitted_a.push_back(AdmittedPlan{r.name, rho.window(), &plans_a[k], &rho});
  }
  for (const std::string& v : referee(a.ledger.supply(), admitted_a)) {
    report.fail("referee (daemon A): " + v);
  }
  std::vector<AdmittedPlan> admitted_b;
  for (const AdmittedRecord& r : b.ledger.admitted()) {
    admitted_b.push_back(AdmittedPlan{r.name, r.window, &r.plan, nullptr});
  }
  for (const std::string& v : referee(b.ledger.supply(), admitted_b)) {
    report.fail("referee (daemon B): " + v);
  }
}

std::map<std::string, std::size_t> index_by_name(const Stream& st) {
  std::map<std::string, std::size_t> out;
  for (std::size_t i = 0; i < st.computations.size(); ++i) out[st.computations[i].name()] = i;
  return out;
}

struct OpenLoop {
  std::vector<double> local_ms, forward_ms;          // from the due time
  std::vector<double> local_rtt_ms, forward_rtt_ms;  // from the send
  std::vector<double> late_ms;                       // sender lateness
  std::vector<double> queue_us, planning_us, wire_us;
  double encode_us = 0.0, decode_us = 0.0;
  double rate = 0.0;  // requests per second
  std::uint64_t forwards = 0, peer_claims = 0, demotions = 0, frames = 0;
};

/// One stream's open loop, on its own daemon pair, for `seconds`.
OpenLoop open_loop(const Inputs& in, const Stream& st, double seconds, const RunOptions& opt,
                   SpanLog& spans, Report& report) {
  const auto stream_index = index_by_name(st);
  // The stream is replayed in real time: its arrival ticks advance with the
  // daemons' protocol clock, so a request's tick is "now" when it is sent.
  // Forwards ride on top, one in every kForwardEvery requests, in whole
  // rounds sized by the phase's share of the run and capped by the stream.
  const double tick_s = static_cast<double>(net::SocketTransportConfig{}.tick_ms) / 1000.0;
  const double stream_per_tick = static_cast<double>(st.requests.size()) /
                                 static_cast<double>(st.requests.back().at + 1);
  const double gap_s = tick_s / stream_per_tick * (kForwardEvery - 1) / kForwardEvery;
  const std::size_t by_time = static_cast<std::size_t>(seconds / (gap_s * kForwardEvery));
  const std::size_t by_stream = st.computations.size() / (kForwardEvery - 1);
  const std::size_t rounds = std::max<std::size_t>(1, std::min(by_time, by_stream));
  std::vector<Exchange> ex(rounds * kForwardEvery);
  DaemonPair pair(in, st, opt);
  if (!pair.warm_up()) report.fail("open loop: peer sessions did not come up");
  std::size_t next_stream = 0;
  for (std::size_t i = 0; i < ex.size(); ++i) {
    const std::uint64_t id = i + 1;
    if (i % kForwardEvery == kForwardEvery - 1) {
      ex[i].request = forward_request(id, pair.base_name() + "-fwd-" + std::to_string(i));
    } else {
      ex[i].request = stream_request(st, next_stream++, id);
    }
  }

  OpenLoop out;
  out.rate = 1.0 / gap_s;
  if (opt.trace) {
    obs::MetricsRegistry::global().reset();
    obs::enable_metrics(true);
  }
  const auto gap =
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(gap_s));
  try {
    ServiceClient client = ServiceClient::connect_unix(pair.client_path(), client_options());
    std::atomic<bool> reader_failed{false};
    std::string reader_error;
    std::thread reader([&] {
      try {
        for (std::size_t k = 0; k < ex.size(); ++k) {
          std::optional<AdmitResponse> r = client.receive();
          const auto now = Clock::now();
          if (!r) throw std::runtime_error("connection closed");
          if (opt.inject == "drop-response" && k == 0) continue;
          if (r->id == 0 || r->id > ex.size()) throw std::runtime_error("unknown response id");
          Exchange& e = ex[r->id - 1];
          ++e.responses;
          e.received = now;
          e.response = std::move(*r);
        }
      } catch (const std::exception& err) {
        reader_error = err.what();
        reader_failed = true;
      }
    });
    const auto start = Clock::now() + std::chrono::milliseconds(5);
    try {
      for (std::size_t i = 0; i < ex.size() && !reader_failed; ++i) {
        ex[i].due = start + gap * static_cast<long>(i);
        std::this_thread::sleep_until(ex[i].due);
        ex[i].sent = Clock::now();
        client.send(ex[i].request);
      }
    } catch (const std::exception& err) {
      // The reader still collects what was sent, then times out waiting
      // for the rest.
      report.fail(std::string("open loop: send: ") + err.what());
    }
    reader.join();
    if (reader_failed) report.fail("open loop: " + reader_error);
  } catch (const std::exception& err) {
    report.fail(std::string("open loop: ") + err.what());
  }
  report.attempted += ex.size();
  if (opt.trace) {
    obs::enable_metrics(false);
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
    out.frames = snap.counter("transport.sent") + snap.counter("transport.received");
  }
  pair.stop();
  out.forwards = pair.a().federation->stats().forwarded;
  out.peer_claims = pair.b().federation->stats().peer_claims;
  out.demotions = pair.a().service.stats().demotions + pair.b().service.stats().demotions;
  check_pass(pair, st, stream_index, ex, opt, report);

  for (const Exchange& e : ex) {
    if (e.responses != 1 || !e.response) continue;
    const double ms = to_ms(e.received - e.due);
    const double rtt = to_ms(e.received - e.sent);
    out.late_ms.push_back(to_ms(e.sent - e.due));
    if (opt.trace) {
      spans.add(forwarded(e) ? "served.forward" : "served.local", e.sent, e.received, 0,
                e.request.id);
    }
    if (forwarded(e)) {
      out.forward_ms.push_back(ms);
      out.forward_rtt_ms.push_back(rtt);
      continue;
    }
    out.local_ms.push_back(ms);
    out.local_rtt_ms.push_back(rtt);
    const double queue = static_cast<double>(e.response->queue_ns) / 1000.0;
    const double planning = static_cast<double>(e.response->planning_ns) / 1000.0;
    out.queue_us.push_back(queue);
    out.planning_us.push_back(planning);
    out.wire_us.push_back(rtt * 1000.0 - queue - planning);
  }

  if (opt.trace) {
    // The codec on this phase's own requests and responses, timed apart
    // from the request path (the daemon and client run it too, unseen).
    double encode = 0.0, decode = 0.0;
    std::size_t n = 0;
    for (const Exchange& e : ex) {
      if (!e.response) continue;
      const auto t0 = Clock::now();
      const std::string payload = request_payload(e.request);
      const std::string reply = response_payload(*e.response);
      const auto t1 = Clock::now();
      const AdmitRequest parsed = parse_request(payload);
      const auto t2 = Clock::now();
      if (!(parsed == e.request)) {
        report.fail("codec: request " + std::to_string(e.request.id) + " does not round-trip");
      }
      spans.add("service.encode", t0, t1, 0, e.request.id);
      spans.add("service.decode", t1, t2, 0, e.request.id);
      encode += to_us(t1 - t0);
      decode += to_us(t2 - t1);
      ++n;
      (void)reply;
    }
    out.encode_us = n == 0 ? 0.0 : encode / static_cast<double>(n);
    out.decode_us = n == 0 ? 0.0 : decode / static_cast<double>(n);
  }
  return out;
}

struct ClosedPass {
  double seconds = 0.0;
  std::size_t requests = 0;
  std::uint64_t demotions = 0, frames = 0;
};

ClosedPass closed_pass(const Inputs& in, const Stream& st, const RunOptions& opt, bool traced,
                       SpanLog& spans, Report& report) {
  const std::size_t n = std::min(kClosedRequests, st.computations.size());
  std::vector<Exchange> ex(n);
  for (std::size_t i = 0; i < n; ++i) ex[i].request = stream_request(st, i, i + 1);
  DaemonPair pair(in, st, opt);
  if (!pair.warm_up()) report.fail("closed loop: peer sessions did not come up");
  if (traced) {
    obs::MetricsRegistry::global().reset();
    obs::enable_metrics(true);
  }
  ClosedPass out;
  std::atomic<std::size_t> cursor{0};
  std::vector<std::string> errors(kClosedConnections);
  const auto start = Clock::now();
  {
    std::vector<std::thread> loops;
    for (std::size_t c = 0; c < kClosedConnections; ++c) {
      loops.emplace_back([&, c] {
        try {
          ServiceClient client =
              ServiceClient::connect_unix(pair.client_path(), client_options());
          for (std::size_t i = cursor++; i < n; i = cursor++) {
            Exchange& e = ex[i];
            e.sent = Clock::now();
            e.response = client.call(e.request);
            e.received = Clock::now();
            ++e.responses;
            if (traced) {
              spans.add(forwarded(e) ? "served.forward" : "served.local", e.sent,
                        e.received, 0, e.request.id);
            }
          }
        } catch (const std::exception& err) {
          errors[c] = err.what();
        }
      });
    }
    for (auto& t : loops) t.join();
  }
  out.seconds = seconds_since(start);
  report.attempted += n;
  for (const std::string& err : errors) {
    if (!err.empty()) report.fail("closed loop: " + err);
  }
  if (traced) {
    obs::enable_metrics(false);
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
    out.frames = snap.counter("transport.sent") + snap.counter("transport.received");
  }
  pair.stop();
  out.demotions = pair.a().service.stats().demotions + pair.b().service.stats().demotions;
  out.requests = n;
  check_pass(pair, st, index_by_name(st), ex, opt, report);
  return out;
}

}  // namespace

double timed_setup(const RunOptions& opt, Inputs& out, Report& report) {
  std::filesystem::create_directories(opt.run_dir);
  const auto t0 = Clock::now();
  Inputs in = make_inputs(opt.workload, opt.seed);
  DaemonPair pair(in, in.streams.front(), opt);
  const bool up = pair.warm_up();
  const double s = seconds_since(t0);
  if (!up) report.fail("set-up: peer sessions did not come up");
  out = std::move(in);
  return s;
}

void run_served_phases(const Inputs& in, const RunOptions& opt, SpanLog& spans,
                       Report& report) {
  // Open loop: every stream in turn, on a fresh daemon pair each, splitting
  // the phase's share of the run between them.
  std::vector<OpenLoop> open;
  for (const Stream& st : in.streams) {
    spans.set_written(open.empty());
    open.push_back(open_loop(in, st, opt.seconds * kOpenLoopShare / in.streams.size(), opt,
                             spans, report));
  }

  // Closed loop: passes rotate over the streams, a fresh pair per pass.
  std::vector<double> plain_rps, traced_rps;
  std::uint64_t demotions = 0, frames = 0;
  for (const OpenLoop& o : open) {
    demotions += o.demotions;
    frames += o.frames;
  }
  rotate(in.streams.size(), opt.trace, opt.seconds * kClosedLoopShare, opt.trace ? 2 : 1,
         [&](std::size_t k, std::size_t round, bool traced) {
           spans.set_written(traced && round == 0 && k == 0);
           const ClosedPass p = closed_pass(in, in.streams[k], opt, traced, spans, report);
           (traced ? traced_rps : plain_rps).push_back(static_cast<double>(p.requests) / p.seconds);
           demotions += p.demotions;
           frames += p.frames;
         });
  spans.set_written(true);

  // Latency percentiles are taken per stream; the run reports the median
  // stream, like the throughput metrics.
  const auto per_stream = [&](auto member, double p) {
    std::vector<double> v;
    for (const OpenLoop& o : open) v.push_back(quantile(o.*member, p));
    return median(v);
  };
  const auto pooled = [&](auto member) {
    std::vector<double> v;
    for (const OpenLoop& o : open) v.insert(v.end(), (o.*member).begin(), (o.*member).end());
    return v;
  };
  const std::vector<double> late = pooled(&OpenLoop::late_ms);
  std::size_t locals = 0, forwards = 0;
  for (const OpenLoop& o : open) {
    locals += o.local_ms.size();
    forwards += o.forward_ms.size();
  }
  std::cout << "open loop: " << locals << " local and " << forwards << " forwarded over "
            << open.size() << " streams at " << open.front().rate << "/s; sender late p99 "
            << quantile(late, 0.99) << " ms, max " << quantile(late, 1.0)
            << " ms\nclosed loop: " << plain_rps.size() + traced_rps.size()
            << " passes over " << kClosedConnections << " connections\n"
            << "tails (median stream): local p99 " << per_stream(&OpenLoop::local_ms, 0.99)
            << " ms, forward p99 " << per_stream(&OpenLoop::forward_ms, 0.99) << " ms\n";
  const double served_rps = median(plain_rps);
  std::cout << "served (not bounded, see README): local p50 "
            << per_stream(&OpenLoop::local_ms, 0.50) << " ms, closed loop " << served_rps
            << " decisions/s\n";
  if (!opt.trace) {
    report.set("forward_p50_ms", per_stream(&OpenLoop::forward_ms, 0.50), "ms");
    return;
  }
  double encode = 0.0, decode = 0.0;
  std::uint64_t forwarded_total = 0, peer_claims = 0;
  for (const OpenLoop& o : open) {
    encode += o.encode_us / static_cast<double>(open.size());
    decode += o.decode_us / static_cast<double>(open.size());
    forwarded_total += o.forwards;
    peer_claims += o.peer_claims;
  }
  report.set("service.decode_us", decode, "us");
  report.set("service.encode_us", encode, "us");
  report.set("service.queue_us.p99", quantile(pooled(&OpenLoop::queue_us), 0.99), "us");
  report.set("service.planning_us.p50", quantile(pooled(&OpenLoop::planning_us), 0.50), "us");
  report.set("service.planning_us.p99", quantile(pooled(&OpenLoop::planning_us), 0.99), "us");
  report.set("service.wire_us.p50", quantile(pooled(&OpenLoop::wire_us), 0.50), "us");
  report.set("service.demotions", static_cast<double>(demotions), "count");
  report.set("federation.forward_wait_ms",
             quantile(pooled(&OpenLoop::forward_rtt_ms), 0.50) -
                 quantile(pooled(&OpenLoop::local_rtt_ms), 0.50),
             "ms");
  report.set("federation.forwards", static_cast<double>(forwarded_total), "count");
  report.set("federation.peer_claims", static_cast<double>(peer_claims), "count");
  report.set("net.frames", static_cast<double>(frames), "count");
  report.set("load.sender_late_ms.p99", quantile(late, 0.99), "ms");
  report.set("trace.local_p50_ms", per_stream(&OpenLoop::local_ms, 0.50), "ms");
  report.set("trace.local_p99_ms", per_stream(&OpenLoop::local_ms, 0.99), "ms");
  report.set("trace.forward_p99_ms", per_stream(&OpenLoop::forward_ms, 0.99), "ms");
  report.set("trace.served_rps", median(traced_rps), "1/s");
  report.set("trace.overhead.served_pct", 100.0 * (served_rps / median(traced_rps) - 1.0), "%");
}

}  // namespace perfbench
