#include "inputs.hpp"

#include "rota/workload/generator.hpp"

namespace perfbench {

using namespace rota;

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "admit-contended") return Workload::kAdmitContended;
  if (name == "admit-ample") return Workload::kAdmitAmple;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kAdmitContended: return "admit-contended";
    case Workload::kAdmitAmple: return "admit-ample";
  }
  return "?";
}

namespace {

void add_arrivals(Stream& out, const CostModel& phi, WorkloadGenerator& gen, Tick horizon) {
  for (Arrival& a : gen.make_arrivals(horizon)) {
    out.requests.push_back(BatchRequest{make_concurrent_requirement(phi, a.computation), a.at});
    out.computations.push_back(std::move(a.computation));
  }
}

// The e15 shape: 8 locations, thin base supply fragmented by churned peer
// terms, arrivals far beyond capacity — about 9 in 10 requests rejected.
Stream make_contended(const CostModel& phi, std::uint64_t seed) {
  Stream out;
  WorkloadConfig config;
  config.seed = seed;
  config.num_locations = 8;
  config.mean_interarrival = 0.15;
  config.laxity = 1.03;
  config.cpu_rate = 2;
  config.network_rate = 2;
  WorkloadGenerator gen(config, phi);
  const Tick horizon = 600;
  out.supply = gen.base_supply(TimeInterval(0, horizon));
  const ChurnTrace churn = gen.make_churn(horizon, 8.0, 8.0, 1);
  for (const auto& e : churn.events()) out.supply.add(e.term);
  add_arrivals(out, phi, gen, horizon);
  return out;
}

// 3–6-actor computations on generous supply and laxity: most requests are
// accepted, so every accept writes the ledger and stales batch speculations.
Stream make_ample(const CostModel& phi, std::uint64_t seed) {
  Stream out;
  WorkloadConfig config;
  config.seed = seed;
  config.num_locations = 8;
  config.actors_min = 3;
  config.actors_max = 6;
  config.mean_interarrival = 0.2;
  config.laxity = 3.0;
  config.cpu_rate = 65;
  config.network_rate = 65;
  WorkloadGenerator gen(config, phi);
  const Tick horizon = 800;
  out.supply = gen.base_supply(TimeInterval(0, horizon));
  add_arrivals(out, phi, gen, horizon);
  return out;
}

}  // namespace

std::size_t Inputs::request_count() const {
  std::size_t n = 0;
  for (const Stream& s : streams) n += s.requests.size();
  return n;
}

Inputs make_inputs(Workload workload, std::uint64_t seed) {
  Inputs in;
  in.workload = workload;
  in.seed = seed;
  for (std::size_t k = 0; k < kStreams; ++k) {
    const std::uint64_t sub = seed * 16 + k;
    switch (workload) {
      case Workload::kAdmitContended: in.streams.push_back(make_contended(in.phi, sub)); break;
      case Workload::kAdmitAmple: in.streams.push_back(make_ample(in.phi, sub)); break;
    }
  }
  return in;
}

const Location& peer_site() {
  static const Location site("perf-peer");
  return site;
}

ResourceSet peer_supply() {
  ResourceSet supply;
  supply.add(100, TimeInterval(0, 200'000), LocatedType::cpu(peer_site()));
  return supply;
}

service::AdmitRequest forward_request(std::uint64_t id, const std::string& name) {
  service::AdmitRequest request;
  request.id = id;
  request.budget_us = kServedBudgetUs;
  ActorComputation actor =
      ActorComputationBuilder(name + ".a0", peer_site()).evaluate(5).ready().build();
  request.computation = DistributedComputation(name, {actor}, 0, 100'000);
  return request;
}

service::AdmitRequest stream_request(const Stream& stream, std::size_t index,
                                     std::uint64_t id) {
  service::AdmitRequest request;
  request.id = id;
  request.at = stream.requests[index].at;
  request.budget_us = kServedBudgetUs;
  request.computation = stream.computations[index];
  return request;
}

}  // namespace perfbench
