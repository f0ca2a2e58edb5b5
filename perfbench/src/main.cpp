// rota_perfbench: the one ROTA benchmark. run.py builds it and runs
//
//   rota_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Every workload runs the same phases on its own inputs: set-up (timed
// several times), in-process admission (admit_batch and one-at-a-time
// decide), and the stream served by two federated daemons (open loop, then
// closed loop). With --trace 0 the last line of standard output is a JSON
// object with the end-to-end metrics; with --trace 1 it carries the
// per-layer metrics of a traced run, and a Chrome trace of the benchmark's
// spans is written to the run directory.
//
// --fingerprint prints the FNV-1a fingerprint of the workload's admit_batch
// decisions and exits. --inject MODE plants a fault the checks must catch
// (see RunOptions::inject); the run then reports correct=false.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "run.hpp"

namespace {

using namespace perfbench;

constexpr int kSetups = 3;  // set-ups per run; setup_s is their median

int usage() {
  std::cerr << "usage: rota_perfbench --workload admit-contended|admit-ample"
               " --seed N --seconds S --trace 0|1 [--run-dir DIR]"
               " [--inject extra-usage|swap-decision|drop-response] [--fingerprint]\n";
  return 2;
}

void print_json(const Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void print_table(const Report& report) {
  std::printf("%-36s %16s  %s\n", "metric", "value", "unit");
  for (const auto& m : report.metrics) {
    std::printf("%-36s %16.4f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int fingerprint(const RunOptions& opt) {
  const Inputs in = make_inputs(opt.workload, opt.seed);
  for (std::size_t k = 0; k < in.streams.size(); ++k) {
    const Stream& st = in.streams[k];
    rota::BatchAdmissionController ctl(in.phi, st.supply, rota::PlanningPolicy::kAsap,
                                       in.lanes);
    const auto decisions = ctl.admit_batch(st.requests);
    std::size_t accepted = 0;
    for (const auto& d : decisions) accepted += d.accepted ? 1 : 0;
    std::printf("%s seed %llu stream %zu: %zu requests, %zu accepted, fingerprint %016llx\n",
                workload_name(opt.workload), static_cast<unsigned long long>(opt.seed), k,
                decisions.size(), accepted,
                static_cast<unsigned long long>(decision_fingerprint(decisions)));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  opt.run_dir = ".bench_build/run";
  bool have_workload = false, print_fingerprint = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) std::exit(usage());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        const auto w = parse_workload(value());
        if (!w) return usage();
        opt.workload = *w;
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        opt.trace = value() != "0";
      } else if (arg == "--run-dir") {
        opt.run_dir = value();
      } else if (arg == "--inject") {
        opt.inject = value();
        if (opt.inject != "extra-usage" && opt.inject != "swap-decision" &&
            opt.inject != "drop-response") {
          return usage();
        }
      } else if (arg == "--fingerprint") {
        print_fingerprint = true;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (!have_workload || !(opt.seconds > 0)) return usage();
  if (print_fingerprint) return fingerprint(opt);

  try {
    std::cout << "workload " << workload_name(opt.workload) << ", seed " << opt.seed
              << ", " << opt.seconds << " s, " << (opt.trace ? "traced" : "untraced") << "\n";
    Report report;
    SpanLog spans;
    Inputs in;
    std::vector<double> setups;
    for (int k = 0; k < kSetups; ++k) setups.push_back(timed_setup(opt, in, report));
    std::cout << "inputs: " << in.streams.size() << " streams, " << in.request_count()
              << " requests; set-up " << median(setups) << " s (median of " << kSetups
              << ")\n";

    run_admit_phases(in, opt, spans, report);
    run_served_phases(in, opt, spans, report);
    if (!opt.trace) report.set("setup_s", median(setups), "s");

    for (const auto& m : report.metrics) {
      if (!std::isfinite(m.value)) report.problems.push_back("metric " + m.name + " is not finite");
    }
    if (opt.trace) {
      print_table(report);
      const std::string path = opt.run_dir + "/trace-" + workload_name(opt.workload) + "-" +
                               std::to_string(opt.seed) + ".json";
      if (spans.write_chrome(path)) {
        std::cout << "chrome trace: " << path << " (" << spans.size() << " spans recorded)\n";
      } else {
        report.problems.push_back("could not write " + path);
      }
    }
    for (std::size_t i = 0; i < report.problems.size() && i < 20; ++i) {
      std::cout << "CHECK FAILED: " << report.problems[i] << "\n";
    }
    if (report.problems.size() > 20) {
      std::cout << "CHECK FAILED: ... " << report.problems.size() - 20 << " more\n";
    }
    print_json(report);
    return report.correct() ? 0 : 1;
  } catch (const std::exception& err) {
    std::cerr << "rota_perfbench: " << err.what() << "\n";
    return 3;
  }
}
