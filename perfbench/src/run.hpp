// One benchmark run: its options and the phases it is made of.
#pragma once

#include <string>

#include "common.hpp"
#include "inputs.hpp"
#include "spans.hpp"

namespace perfbench {

struct RunOptions {
  Workload workload = Workload::kAdmitContended;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Fault the benchmark's own checks must catch: "extra-usage" (one tick
  /// of extra usage in one admitted plan), "swap-decision" (two batch
  /// decisions swapped) or "drop-response" (one served response dropped).
  std::string inject;
  std::string run_dir;  // sockets and the trace file go here
};

/// Share of --seconds each measured phase gets.
inline constexpr double kBatchShare = 0.3;
inline constexpr double kDecideShare = 0.3;
inline constexpr double kOpenLoopShare = 0.3;
inline constexpr double kClosedLoopShare = 0.1;

/// Runs passes over the streams in turn, until `seconds` are spent and at
/// least `min_passes` ran: `pass(stream, round, traced)`, where `round`
/// counts the visits to that stream. A traced run gives each visit a plain
/// pass and then a traced one, so every comparison between the two is made
/// on the same inputs.
template <typename Pass>
void rotate(std::size_t streams, bool trace, double seconds, std::size_t min_passes,
            Pass&& pass) {
  const std::size_t step = trace ? 2 : 1;
  const auto start = Clock::now();
  for (std::size_t p = 0; p < min_passes || seconds_since(start) < seconds; ++p) {
    pass(p / step % streams, p / (step * streams), trace && p % step == 1);
  }
}

/// In-process admission of the workload's stream: BatchAdmissionController
/// ::admit_batch and PlanningKernel::decide, checked against the referee and
/// against each other (FCFS parity).
void run_admit_phases(const Inputs& in, const RunOptions& opt, SpanLog& spans,
                      Report& report);

/// The streams served by two federated daemons over unix sockets: an
/// open-loop real-time replay with a forwarded share, and closed-loop
/// capacity passes.
void run_served_phases(const Inputs& in, const RunOptions& opt, SpanLog& spans,
                       Report& report);

/// Set-up as a user pays it: build the inputs, start both daemons and wait
/// until a forward round trip succeeds. Returns the seconds it took, and the
/// inputs through `out`.
double timed_setup(const RunOptions& opt, Inputs& out, Report& report);

/// FNV-1a over the decision log (verdict, reason and plan of each request).
std::uint64_t decision_fingerprint(const std::vector<rota::AdmissionDecision>& decisions);

}  // namespace perfbench
