#include "profiles/profile.h"

#include <algorithm>

namespace gsalert::profiles {

bool Conjunction::eval(const EventContext& ctx) const {
  return std::all_of(preds.begin(), preds.end(),
                     [&](const Predicate& p) { return p.eval(ctx); });
}

bool Profile::matches(const EventContext& ctx) const {
  return std::any_of(dnf.begin(), dnf.end(),
                     [&](const Conjunction& c) { return c.eval(ctx); });
}

}  // namespace gsalert::profiles
