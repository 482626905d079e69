// A single attribute-value predicate — the unit of the paper's macro
// profile language. "Values" in the broader sense of §5: plain values,
// wildcards, ID lists (IN), and filter queries (~) that reuse the
// collection retrieval language.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "profiles/event_context.h"
#include "retrieval/query.h"

namespace gsalert::profiles {

enum class Op : std::uint8_t {
  kEq = 1,        // attr = value
  kNeq,           // attr != value
  kWildcard,      // attr = value-with-*-or-?
  kNotWildcard,   // negation pushed down by DNF conversion
  kIn,            // attr IN [v1, v2, ...]
  kNotIn,
  kQuery,         // doc ~ "retrieval query" — any event document matches
  kNotQuery,
};

/// True for the operators produced by De Morgan push-down; the
/// predicate-sharing table caches only positive forms and flips the
/// cached answer for these (both macro- and doc-level negatives are
/// exact complements of their positive twin — see Predicate::eval).
bool is_negative_op(Op op);

/// The positive twin of an operator (identity for positive operators).
Op positive_op(Op op);

struct Predicate {
  Op op = Op::kEq;
  std::string attribute;
  std::string value;                 // kEq/kNeq/kWildcard/kNotWildcard
  std::vector<std::string> values;   // kIn/kNotIn
  retrieval::QueryPtr query;         // kQuery/kNotQuery

  /// True when this predicate is evaluated against event documents rather
  /// than the macro attribute set.
  bool is_doc_level() const;

  /// True when the equality-preferred index can hash this predicate
  /// (macro-level equality).
  bool is_hashable_eq() const {
    return op == Op::kEq && !is_doc_level();
  }

  /// Full evaluation against an event.
  bool eval(const EventContext& ctx) const;

  /// Logical negation (for De Morgan push-down).
  Predicate negated() const;

  /// Canonical text, parseable back (values quoted as needed). Serves as
  /// the structural-identity key for the predicate-sharing table, so two
  /// predicates with equal str() must be semantically interchangeable.
  std::string str() const;
};

/// Canonical sharing key for a residual predicate: the str() of its
/// positive form. A negative predicate keys to its positive twin (its
/// answer is the exact complement), so e.g. `doc ~ "x"` and
/// `NOT doc ~ "x"` occupy one table entry and one evaluation per event.
std::string shared_predicate_key(const Predicate& pred);

}  // namespace gsalert::profiles
