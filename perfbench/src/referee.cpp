#include "referee.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "rota/fuzz/reference.hpp"

namespace perfbench {

using namespace rota;
using fuzz::DenseFn;

namespace {

constexpr Tick kMaxDomain = 4'000'000;  // ticks per located type

struct Domain {
  Tick lo = 0, hi = 1;
  void cover(const TimeInterval& iv) {
    lo = std::min(lo, iv.start());
    hi = std::max(hi, iv.end());
  }
};

Domain domain_of(const ResourceSet& supply, const std::vector<const ConcurrentPlan*>& plans) {
  Domain d;
  for (const LocatedType& type : supply.types()) {
    for (const Segment& s : supply.availability(type).segments()) d.cover(s.interval);
  }
  for (const ConcurrentPlan* plan : plans) {
    for (const ActorPlan& a : plan->actors) {
      for (const auto& [type, fn] : a.usage) {
        for (const Segment& s : fn.segments()) d.cover(s.interval);
      }
    }
  }
  return d;
}

/// Dense per-type profiles: one DenseFn per located type over one domain.
class DenseTally {
 public:
  explicit DenseTally(Domain d) : d_(d) {}

  void add(const LocatedType& type, const StepFunction& fn) {
    DenseFn& dense = of(type);
    for (const Segment& s : fn.segments()) dense.add(s.interval, s.value);
  }
  DenseFn& of(const LocatedType& type) {
    auto it = fns_.find(type);
    if (it == fns_.end()) it = fns_.emplace(type, DenseFn(d_.lo, d_.hi)).first;
    return it->second;
  }
  const DenseFn* find(const LocatedType& type) const {
    auto it = fns_.find(type);
    return it == fns_.end() ? nullptr : &it->second;
  }
  const std::map<LocatedType, DenseFn>& fns() const { return fns_; }

 private:
  Domain d_;
  std::map<LocatedType, DenseFn> fns_;
};

DenseTally dense_supply(const ResourceSet& supply, Domain d) {
  DenseTally t(d);
  for (const LocatedType& type : supply.types()) t.add(type, supply.availability(type));
  return t;
}

DenseTally dense_usage(const std::vector<const ConcurrentPlan*>& plans, Domain d) {
  DenseTally t(d);
  for (const ConcurrentPlan* plan : plans) {
    for (const ActorPlan& a : plan->actors) {
      for (const auto& [type, fn] : a.usage) t.add(type, fn);
    }
  }
  return t;
}

/// Quantity of one actor's usage of `type` over [from, to), tick by tick.
Quantity consumed(const ActorPlan& a, const LocatedType& type, Tick from, Tick to) {
  auto it = a.usage.find(type);
  if (it == a.usage.end() || from >= to) return 0;
  DenseFn dense(from, to);
  for (const Segment& s : it->second.segments()) {
    const Tick lo = std::max(from, s.interval.start());
    const Tick hi = std::min(to, s.interval.end());
    if (lo < hi) dense.add(TimeInterval(lo, hi), s.value);
  }
  Quantity q = 0;
  for (Tick t = from; t < to; ++t) q += dense.at(t);
  return q;
}

void check_actor(const AdmittedPlan& adm, const ActorPlan& a,
                 const ComplexRequirement* req, std::vector<std::string>& out) {
  const auto where = [&] { return adm.name + "/" + a.actor; };
  const TimeInterval& w = adm.window;
  if (a.start < w.start() || a.finish > w.end() || a.start > a.finish) {
    std::ostringstream s;
    s << where() << ": plan [" << a.start << ", " << a.finish
      << ") outside window [" << w.start() << ", " << w.end() << ")";
    out.push_back(s.str());
  }
  for (const auto& [type, fn] : a.usage) {
    for (const Segment& seg : fn.segments()) {
      if (seg.interval.start() < a.start || seg.interval.end() > a.finish) {
        std::ostringstream s;
        s << where() << ": usage of " << type.to_string() << " on ["
          << seg.interval.start() << ", " << seg.interval.end()
          << ") outside its plan [" << a.start << ", " << a.finish << ")";
        out.push_back(s.str());
      }
      if (seg.value < 0) out.push_back(where() + ": negative usage");
    }
  }
  if (req == nullptr) return;
  const std::vector<Phase>& phases = req->phases();
  if (a.cut_points.size() + 1 != phases.size()) {
    out.push_back(where() + ": cut-point count does not match the phase count");
    return;
  }
  std::vector<Tick> bounds;
  bounds.push_back(a.start);
  bounds.insert(bounds.end(), a.cut_points.begin(), a.cut_points.end());
  bounds.push_back(a.finish);
  if (!std::is_sorted(bounds.begin(), bounds.end())) {
    out.push_back(where() + ": cut points out of order");
    return;
  }
  for (std::size_t p = 0; p < phases.size(); ++p) {
    for (const auto& [type, quantity] : phases[p].demand.amounts()) {
      const Quantity got = consumed(a, type, bounds[p], bounds[p + 1]);
      if (got < quantity) {
        std::ostringstream s;
        s << where() << ": phase " << p << " consumes " << got << " of "
          << quantity << " " << type.to_string() << " in [" << bounds[p]
          << ", " << bounds[p + 1] << ")";
        out.push_back(s.str());
      }
    }
  }
}

}  // namespace

std::vector<std::string> referee(const ResourceSet& supply,
                                 const std::vector<AdmittedPlan>& admitted) {
  std::vector<std::string> out;
  std::vector<const ConcurrentPlan*> plans;
  plans.reserve(admitted.size());
  for (const AdmittedPlan& a : admitted) plans.push_back(a.plan);
  const Domain d = domain_of(supply, plans);
  if (d.hi - d.lo > kMaxDomain) {
    out.push_back("referee: domain of " + std::to_string(d.hi - d.lo) +
                  " ticks is too wide to replay densely");
    return out;
  }

  const DenseTally have = dense_supply(supply, d);
  const DenseTally used = dense_usage(plans, d);
  for (const auto& [type, use] : used.fns()) {
    const DenseFn* cap = have.find(type);
    for (Tick t = d.lo; t < d.hi; ++t) {
      const Rate u = use.at(t);
      const Rate c = cap == nullptr ? 0 : cap->at(t);
      if (u > c) {
        std::ostringstream s;
        s << "capacity: " << type.to_string() << " at tick " << t << " uses " << u
          << " of supply " << c;
        out.push_back(s.str());
        break;  // one report per type
      }
    }
  }

  for (const AdmittedPlan& adm : admitted) {
    const ConcurrentPlan& plan = *adm.plan;
    if (adm.rho != nullptr && plan.actors.size() != adm.rho->actors().size()) {
      out.push_back(adm.name + ": plan covers " + std::to_string(plan.actors.size()) +
                    " of " + std::to_string(adm.rho->actors().size()) + " actors");
      continue;
    }
    for (const ActorPlan& a : plan.actors) {
      const ComplexRequirement* req = nullptr;
      if (adm.rho != nullptr) {
        for (const ComplexRequirement& r : adm.rho->actors()) {
          if (r.actor() == a.actor) req = &r;
        }
        if (req == nullptr) {
          out.push_back(adm.name + ": plan for unknown actor " + a.actor);
          continue;
        }
      }
      check_actor(adm, a, req, out);
    }
  }
  return out;
}

bool inject_extra_usage(const ResourceSet& supply, std::vector<ConcurrentPlan>& plans) {
  std::vector<const ConcurrentPlan*> views;
  for (const ConcurrentPlan& p : plans) views.push_back(&p);
  const Domain d = domain_of(supply, views);
  const DenseTally have = dense_supply(supply, d);
  const DenseTally used = dense_usage(views, d);
  for (ConcurrentPlan& plan : plans) {
    for (ActorPlan& a : plan.actors) {
      for (auto& [type, fn] : a.usage) {
        const DenseFn* cap = have.find(type);
        const DenseFn* use = used.find(type);
        for (const Segment& seg : fn.segments()) {
          for (Tick t = seg.interval.start(); t < seg.interval.end(); ++t) {
            if (use->at(t) >= (cap == nullptr ? 0 : cap->at(t))) {
              fn.add(TimeInterval(t, t + 1), 1);
              return true;
            }
          }
        }
      }
    }
  }
  for (ConcurrentPlan& plan : plans) {
    for (ActorPlan& a : plan.actors) {
      if (a.usage.empty()) continue;
      a.usage.begin()->second.add(TimeInterval(a.finish, a.finish + 1), 1);
      return true;
    }
  }
  return false;
}

}  // namespace perfbench
