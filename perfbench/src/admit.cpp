// In-process admission phases: the workload's FCFS stream admitted by
// BatchAdmissionController::admit_batch (at the workload's lane count) and by
// PlanningKernel::decide one request at a time.
//
// Untraced passes time the two public entry points and nothing else. A
// traced pass of admit_batch runs with the program's metrics registry on and
// reads the runtime and plan counters from it; a traced pass of the
// one-at-a-time path performs decide()'s own composition through public
// calls — FeasibilitySnapshot::capture, restricted, PlanningKernel::
// speculate, commit — timing each, and between speculate and commit times
// the logic layer on the same view: the greedy planner (plan_concurrent) and,
// when it rejects a multi-actor requirement, the symbolic cut-point engine.
// Those logic calls repeat work speculate already did, so they are kept out
// of the traced pass's own time.
#include <algorithm>
#include <iostream>

#include "referee.hpp"
#include "run.hpp"
#include "rota/logic/symbolic/feasibility.hpp"
#include "rota/obs/obs.hpp"

namespace perfbench {

using namespace rota;

namespace {

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
  }
  void num(std::int64_t v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    num(static_cast<std::int64_t>(s.size()));
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

// The in-kernel symbolic probe budget (plan/kernel.cpp), mirrored so the
// traced pass times the logic layer on the calls the kernel makes.
constexpr FeasibilityOptions kProbeOptions{/*node_budget=*/20'000, /*max_ticks=*/256};

std::size_t accepted_count(const std::vector<AdmissionDecision>& decisions) {
  std::size_t n = 0;
  for (const auto& d : decisions) n += d.accepted ? 1 : 0;
  return n;
}

bool same_decision(const AdmissionDecision& a, const AdmissionDecision& b) {
  return a.accepted == b.accepted && a.reason == b.reason && a.plan == b.plan;
}

/// Per-request layer timings of traced one-at-a-time passes.
struct DecideTrace {
  std::vector<double> capture_us, restrict_us, speculate_us, commit_us;
  std::vector<double> greedy_us, symbolic_us;
  std::size_t rescues = 0;
  std::vector<double> residual_terms;  // per pass, at its end
};

double untraced_batch_pass(const Inputs& in, const Stream& st,
                           std::vector<AdmissionDecision>& out) {
  BatchAdmissionController ctl(in.phi, st.supply, PlanningPolicy::kAsap, in.lanes);
  const auto t0 = Clock::now();
  out = ctl.admit_batch(st.requests);
  return seconds_since(t0);
}

double untraced_decide_pass(const Stream& st, std::vector<AdmissionDecision>& out) {
  CommitmentLedger ledger(st.supply);
  const PlanningKernel kernel;
  out.clear();
  out.reserve(st.requests.size());
  const auto t0 = Clock::now();
  for (const BatchRequest& r : st.requests) out.push_back(kernel.decide(ledger, r.rho, r.at));
  return seconds_since(t0);
}

/// Runtime and plan counters of traced admit_batch passes, summed.
struct BatchCounters {
  std::uint64_t rounds = 0, speculations = 0, wasted = 0, stale = 0, salvaged = 0;
  std::uint64_t round_ns = 0;  // summed round wall time
};

double traced_batch_pass(const Inputs& in, const Stream& st,
                         std::vector<AdmissionDecision>& out, SpanLog& spans,
                         BatchCounters& counters) {
  BatchAdmissionController ctl(in.phi, st.supply, PlanningPolicy::kAsap, in.lanes);
  obs::MetricsRegistry::global().reset();
  obs::enable_metrics(true);
  const auto t0 = Clock::now();
  out = ctl.admit_batch(st.requests);
  const auto t1 = Clock::now();
  obs::enable_metrics(false);
  spans.add("runtime.admit_batch", t0, t1);
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  counters.rounds += snap.counter("batch.rounds");
  counters.speculations += snap.counter("plan.speculate.count");
  counters.wasted += snap.counter("batch.speculations_wasted");
  counters.stale += snap.counter("plan.commit.stale");
  counters.salvaged += snap.counter("plan.commit.shard_salvaged");
  if (auto it = snap.histograms.find("batch.round_ns"); it != snap.histograms.end()) {
    counters.round_ns += it->second.sum;
  }
  return std::chrono::duration<double>(t1 - t0).count();
}

double traced_decide_pass(const Stream& st, std::vector<AdmissionDecision>& out,
                          SpanLog& spans, DecideTrace& trace, Report& report) {
  CommitmentLedger ledger(st.supply);
  const PlanningKernel kernel;
  out.clear();
  out.reserve(st.requests.size());
  obs::enable_metrics(true);
  const auto pass_start = Clock::now();
  const std::uint64_t pass_id = spans.next_id();
  double busy_s = 0.0;
  for (std::size_t i = 0; i < st.requests.size(); ++i) {
    const BatchRequest& r = st.requests[i];
    const std::uint64_t req = i + 1;
    const std::uint64_t decide_id = spans.next_id();
    const auto t0 = Clock::now();
    const FeasibilitySnapshot snap = FeasibilitySnapshot::capture(ledger);
    const auto t1 = Clock::now();
    const TimeInterval window = effective_window(r.rho, r.at);
    const ResourceSet* view = window.empty() ? nullptr : &snap.restricted(window);
    const auto t2 = Clock::now();
    const PlanResult result = kernel.speculate(r.rho, r.at, snap);
    const auto t3 = Clock::now();

    // Logic layer on the same view (repeats speculate's work; not counted
    // in the pass time).
    if (view != nullptr) {
      const bool clip = window != r.rho.window() ||
                        std::any_of(r.rho.actors().begin(), r.rho.actors().end(),
                                    [&](const ComplexRequirement& a) {
                                      return a.window() != window;
                                    });
      std::optional<ConcurrentRequirement> clipped;
      if (clip) clipped.emplace(clip_requirement(r.rho, window));
      const ConcurrentRequirement& effective = clipped ? *clipped : r.rho;
      const auto g0 = Clock::now();
      const auto greedy = plan_concurrent(*view, effective, PlanningPolicy::kAsap);
      const auto g1 = Clock::now();
      spans.add("logic.greedy", g0, g1, decide_id, req);
      trace.greedy_us.push_back(to_us(g1 - g0));
      if (!greedy && effective.actors().size() > 1) {
        const auto s0 = Clock::now();
        const auto rescued = symbolic_concurrent_plan(*view, effective, r.at, kProbeOptions);
        const auto s1 = Clock::now();
        spans.add("logic.symbolic", s0, s1, decide_id, req);
        trace.symbolic_us.push_back(to_us(s1 - s0));
        if (rescued) ++trace.rescues;
      }
    }

    const auto t4 = Clock::now();
    AdmissionDecision decision;
    if (kernel.commit(result, ledger, decision) != CommitStatus::kCommitted) {
      report.fail("traced decide: request " + std::to_string(i) +
                  " went stale between its own speculate and commit");
    }
    const auto t5 = Clock::now();
    out.push_back(std::move(decision));

    spans.add("plan.capture", t0, t1, decide_id, req);
    if (view != nullptr) spans.add("plan.restrict", t1, t2, decide_id, req);
    spans.add("plan.speculate", t2, t3, decide_id, req);
    spans.add("plan.commit", t4, t5, decide_id, req);
    spans.add("decide", t0, t5, pass_id, req, decide_id);
    trace.capture_us.push_back(to_us(t1 - t0));
    if (view != nullptr) trace.restrict_us.push_back(to_us(t2 - t1));
    trace.speculate_us.push_back(to_us(t3 - t2));
    trace.commit_us.push_back(to_us(t5 - t4));
    busy_s += std::chrono::duration<double>((t3 - t0) + (t5 - t4)).count();
  }
  obs::enable_metrics(false);
  spans.add("decide.pass", pass_start, Clock::now(), 0, 0, pass_id);
  trace.residual_terms.push_back(static_cast<double>(ledger.residual().term_count()));
  return busy_s;
}

/// Records up to a few mismatch lines, counting every mismatching request
/// as one failed operation.
void compare_decisions(const std::vector<AdmissionDecision>& expected,
                       const std::vector<AdmissionDecision>& actual,
                       const std::string& what, Report& report) {
  if (expected.size() != actual.size()) {
    report.fail(what + ": " + std::to_string(actual.size()) + " decisions for " +
                std::to_string(expected.size()) + " requests");
    return;
  }
  std::size_t shown = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (same_decision(expected[i], actual[i])) continue;
    if (shown++ < 3) {
      report.fail(what + ": request " + std::to_string(i) + " decided " +
                  (actual[i].accepted ? "accept" : "reject") + ", FCFS says " +
                  (expected[i].accepted ? "accept" : "reject"));
    } else {
      ++report.failed;
    }
  }
}

void referee_decisions(const Stream& st, const std::vector<AdmissionDecision>& decisions,
                       const RunOptions& opt, Report& report) {
  std::vector<ConcurrentPlan> plans;
  std::vector<std::size_t> index;
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    if (!decisions[i].accepted) continue;
    if (!decisions[i].plan) {
      report.fail("request " + std::to_string(i) + " accepted without a plan");
      continue;
    }
    plans.push_back(*decisions[i].plan);
    index.push_back(i);
  }
  if (opt.inject == "extra-usage") inject_extra_usage(st.supply, plans);
  std::vector<AdmittedPlan> admitted;
  for (std::size_t k = 0; k < plans.size(); ++k) {
    const ConcurrentRequirement& rho = st.requests[index[k]].rho;
    admitted.push_back(AdmittedPlan{rho.name(), rho.window(), &plans[k], &rho});
  }
  for (const std::string& v : referee(st.supply, admitted)) report.fail("referee: " + v);
}

}  // namespace

std::uint64_t decision_fingerprint(const std::vector<AdmissionDecision>& decisions) {
  Fnv1a h;
  for (const AdmissionDecision& d : decisions) {
    h.num(d.accepted ? 1 : 0);
    h.str(d.reason);
    if (!d.plan) continue;
    h.str(d.plan->computation);
    h.num(d.plan->finish);
    for (const ActorPlan& a : d.plan->actors) {
      h.str(a.actor);
      h.num(a.start);
      h.num(a.finish);
      for (Tick c : a.cut_points) h.num(c);
      for (const auto& [type, fn] : a.usage) {
        h.str(type.to_string());
        for (const Segment& s : fn.segments()) {
          h.num(s.interval.start());
          h.num(s.interval.end());
          h.num(s.value);
        }
      }
    }
  }
  return h.value();
}

void run_admit_phases(const Inputs& in, const RunOptions& opt, SpanLog& spans,
                      Report& report) {
  const std::size_t streams = in.streams.size();
  // Per stream: the first admit_batch decisions (the FCFS reference every
  // later pass must reproduce) and every pass's seconds.
  struct PerStream {
    std::vector<AdmissionDecision> first;
    std::uint64_t print = 0;
    std::vector<double> batch_plain, batch_traced, decide_plain, decide_traced;
  };
  std::vector<PerStream> per(streams);
  BatchCounters counters;
  DecideTrace trace;

  // Every stream's first plain pass is checked, so each phase visits every
  // stream at least once (a plain and a traced pass in a traced run). The
  // per-layer figures come from each stream's first traced pass; spans are
  // written for stream 0's.
  const std::size_t min_passes = streams * (opt.trace ? 2 : 1);
  std::vector<AdmissionDecision> decisions;
  rotate(streams, opt.trace, opt.seconds * kBatchShare, min_passes,
         [&](std::size_t k, std::size_t round, bool traced) {
    const Stream& st = in.streams[k];
    PerStream& ps = per[k];
    spans.set_written(traced && round == 0 && k == 0);
    if (traced) {
      BatchCounters later;
      ps.batch_traced.push_back(
          traced_batch_pass(in, st, decisions, spans, round == 0 ? counters : later));
    } else {
      ps.batch_plain.push_back(untraced_batch_pass(in, st, decisions));
    }
    report.attempted += st.requests.size();
    if (round == 0 && !traced) {
      ps.first = decisions;
      if (opt.inject == "swap-decision" && k == 0) {
        for (std::size_t i = 0; i + 1 < ps.first.size(); ++i) {
          if (ps.first[i].accepted != ps.first[i + 1].accepted) {
            std::swap(ps.first[i], ps.first[i + 1]);
            break;
          }
        }
      }
      ps.print = decision_fingerprint(ps.first);
    } else if (decision_fingerprint(decisions) != ps.print) {
      compare_decisions(ps.first, decisions,
                        "stream " + std::to_string(k) + " admit_batch visit " +
                            std::to_string(round),
                        report);
    }
  });

  rotate(streams, opt.trace, opt.seconds * kDecideShare, min_passes,
         [&](std::size_t k, std::size_t round, bool traced) {
    const Stream& st = in.streams[k];
    PerStream& ps = per[k];
    spans.set_written(traced && round == 0 && k == 0);
    if (traced) {
      DecideTrace later;
      ps.decide_traced.push_back(
          traced_decide_pass(st, decisions, spans, round == 0 ? trace : later, report));
    } else {
      ps.decide_plain.push_back(untraced_decide_pass(st, decisions));
    }
    report.attempted += st.requests.size();
    const std::string where = "stream " + std::to_string(k);
    if (round == 0 && !traced) {
      // The batch pipeline promises the sequential FCFS decisions, request
      // for request.
      compare_decisions(decisions, ps.first,
                        where + " FCFS parity (admit_batch vs decide)", report);
      referee_decisions(st, decisions, opt, report);
    } else if (decision_fingerprint(decisions) != ps.print) {
      compare_decisions(ps.first, decisions, where + " decide visit " + std::to_string(round),
                        report);
    }
  });
  spans.set_written(true);

  // Throughput of a stream is its size over its fastest pass: on a shared
  // host, interference only ever slows a pass, and whole stretches of a run
  // can be slowed, so the least-disturbed pass is the steadiest measure of
  // the program. The run reports the median stream.
  const auto median_rps = [&](auto member) {
    std::vector<double> rps;
    for (std::size_t k = 0; k < streams; ++k) {
      const std::vector<double>& times = per[k].*member;
      if (!times.empty()) {
        rps.push_back(static_cast<double>(in.streams[k].requests.size()) /
                      *std::min_element(times.begin(), times.end()));
      }
    }
    return median(rps);
  };
  std::size_t admitted = 0;
  for (std::size_t k = 0; k < streams; ++k) {
    const std::size_t accepted = accepted_count(per[k].first);
    admitted += accepted;
    std::cout << "stream " << k << ": " << in.streams[k].requests.size() << " requests, "
              << accepted << " accepted, " << per[k].batch_plain.size() + per[k].batch_traced.size()
              << " admit_batch and " << per[k].decide_plain.size() + per[k].decide_traced.size()
              << " decide passes, fingerprint " << std::hex << per[k].print << std::dec << "\n";
  }
  const double admit_rps = median_rps(&PerStream::batch_plain);
  const double decide_rps = median_rps(&PerStream::decide_plain);
  std::cout << "throughput (not bounded, see README): admit_batch " << admit_rps
            << " req/s, decide " << decide_rps << " req/s\n";
  if (!opt.trace) {
    report.set("admitted", static_cast<double>(admitted), "count");
    return;
  }

  const double traced_admit_rps = median_rps(&PerStream::batch_traced);
  const double traced_decide_rps = median_rps(&PerStream::decide_traced);
  const double n = static_cast<double>(in.request_count());
  report.set("plan.capture_us", mean(trace.capture_us), "us");
  report.set("plan.restrict_us", mean(trace.restrict_us), "us");
  report.set("plan.speculate_us.p50", quantile(trace.speculate_us, 0.50), "us");
  report.set("plan.speculate_us.p99", quantile(trace.speculate_us, 0.99), "us");
  report.set("plan.commit_us", mean(trace.commit_us), "us");
  report.set("plan.stale", static_cast<double>(counters.stale), "count");
  report.set("plan.salvaged", static_cast<double>(counters.salvaged), "count");
  report.set("logic.greedy_us", mean(trace.greedy_us), "us");
  report.set("logic.symbolic_us.p50", quantile(trace.symbolic_us, 0.50), "us");
  report.set("logic.symbolic_us.p99", quantile(trace.symbolic_us, 0.99), "us");
  report.set("logic.symbolic_calls", static_cast<double>(trace.symbolic_us.size()), "count");
  report.set("logic.rescue_yield",
             trace.symbolic_us.empty()
                 ? 0.0
                 : static_cast<double>(trace.rescues) /
                       static_cast<double>(trace.symbolic_us.size()),
             "ratio");
  report.set("runtime.rounds", static_cast<double>(counters.rounds), "count");
  report.set("runtime.round_us",
             counters.rounds == 0 ? 0.0
                                  : static_cast<double>(counters.round_ns) / 1000.0 /
                                        static_cast<double>(counters.rounds),
             "us");
  report.set("runtime.speculations_per_request", static_cast<double>(counters.speculations) / n,
             "ratio");
  report.set("runtime.wasted_share",
             counters.speculations == 0
                 ? 0.0
                 : static_cast<double>(counters.wasted) /
                       static_cast<double>(counters.speculations),
             "ratio");
  report.set("admission.residual_terms", median(trace.residual_terms), "count");
  report.set("trace.admit_rps", traced_admit_rps, "1/s");
  report.set("trace.decide_rps", traced_decide_rps, "1/s");
  report.set("trace.overhead.admit_pct", 100.0 * (admit_rps / traced_admit_rps - 1.0), "%");
  report.set("trace.overhead.decide_pct", 100.0 * (decide_rps / traced_decide_rps - 1.0), "%");
}

}  // namespace perfbench
