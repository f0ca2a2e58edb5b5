// Workload inputs, generated from the run's seed alone: the same seed gives
// the same supply and the same FCFS request stream.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "rota/computation/cost_model.hpp"
#include "rota/runtime/batch_controller.hpp"
#include "rota/service/codec.hpp"

namespace perfbench {

enum class Workload { kAdmitContended, kAdmitAmple };

std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload w);

/// One independent instance of a workload: a supply and an FCFS request
/// stream against it.
struct Stream {
  rota::ResourceSet supply;  // the admitting site's supply (daemon A when served)
  std::vector<rota::DistributedComputation> computations;  // FCFS order
  std::vector<rota::BatchRequest> requests;  // computations[i] derived, with arrival
};

/// A run's inputs: kStreams independent streams, stream k drawn from seed
/// `seed * 16 + k`. A stream's cost is heavy-tailed (one request whose
/// symbolic probe runs to its node budget can cost more than the other
/// thousands together), so the throughput metrics are medians over streams.
struct Inputs {
  Workload workload = Workload::kAdmitContended;
  std::uint64_t seed = 0;
  rota::CostModel phi;
  // admit_batch planning lanes. One: on a shared host, a lane that loses its
  // cpu stalls the committer, and 2-lane passes spread twice as wide.
  std::size_t lanes = 1;
  std::vector<Stream> streams;

  std::size_t request_count() const;
};

inline constexpr std::size_t kStreams = 9;

Inputs make_inputs(Workload workload, std::uint64_t seed);

/// The location no workload's own supply covers: single-actor work there is
/// rejected by daemon A and forwarded to daemon B, whose supply lives there.
const rota::Location& peer_site();

/// Daemon B's supply: ample cpu at peer_site() over the whole run.
rota::ResourceSet peer_supply();

/// Request `i` of the open-loop forward share: single-actor evaluate work at
/// peer_site() with a window far longer than any run.
rota::service::AdmitRequest forward_request(std::uint64_t id, const std::string& name);

/// A stream computation as a daemon request.
rota::service::AdmitRequest stream_request(const Stream& stream, std::size_t index,
                                           std::uint64_t id);

/// Planning budget every served request carries: large enough that no
/// request is shed for running out of it.
inline constexpr std::uint64_t kServedBudgetUs = 10'000'000;

}  // namespace perfbench
