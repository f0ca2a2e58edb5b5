// The admission referee: replays admitted plans onto dense per-tick profiles
// (rota::fuzz::DenseFn — one value per tick, no segment calculus) and checks
// what every admission must guarantee, independently of the planner that
// produced the plans:
//
//   capacity — summed usage never exceeds supply, per located type and tick;
//   demand   — every phase's demand is consumed between its cut points;
//   window   — every start, finish and unit of usage lies inside the
//              computation's window, and cut points are ordered within it.
#pragma once

#include <string>
#include <vector>

#include "rota/computation/requirement.hpp"
#include "rota/logic/planner.hpp"

namespace perfbench {

struct AdmittedPlan {
  std::string name;
  rota::TimeInterval window;  // the computation's window
  const rota::ConcurrentPlan* plan = nullptr;
  /// The requirement the plan answers; null when it is not known to the
  /// caller (peer claims are materialized at the peer), and then the demand
  /// check is skipped for this plan.
  const rota::ConcurrentRequirement* rho = nullptr;
};

/// Every violation found (empty when the plans are sound).
std::vector<std::string> referee(const rota::ResourceSet& supply,
                                 const std::vector<AdmittedPlan>& admitted);

/// Fault injection for the benchmark's own test: adds one unit of usage for
/// one tick to one plan, at a tick and type where the admitted plans already
/// use all of the supply (so only the capacity check can object), or past
/// the plan's finish when no such tick exists. Returns false when there is
/// no plan with usage to modify.
bool inject_extra_usage(const rota::ResourceSet& supply,
                        std::vector<rota::ConcurrentPlan>& plans);

}  // namespace perfbench
