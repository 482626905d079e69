// A profile: the user's standing interest, a Boolean combination of
// predicates normalized to disjunctive normal form. The DNF form is what
// the equality-preferred index consumes; the original text is the wire
// format (profiles travel as text and are re-parsed, which keeps the wire
// schema independent of the matcher's internal representation).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "profiles/predicate.h"

namespace gsalert::profiles {

using ProfileId = std::uint64_t;

/// One conjunction of the DNF: all predicates must hold.
struct Conjunction {
  std::vector<Predicate> preds;

  bool eval(const EventContext& ctx) const;
};

struct Profile {
  ProfileId id = 0;
  std::string text;                 // canonical/source text
  std::vector<Conjunction> dnf;     // disjunction of conjunctions

  /// Naive full evaluation (the baseline the index is benchmarked
  /// against in experiment E9).
  bool matches(const EventContext& ctx) const;
};

}  // namespace gsalert::profiles
