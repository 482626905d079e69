#include "retrieval/query.h"

#include <algorithm>
#include <cassert>

#include "common/strings.h"

namespace gsalert::retrieval {

Query::Query(QueryKind kind, std::string attribute, std::string value,
             std::vector<QueryPtr> children)
    : kind_(kind),
      attribute_(std::move(attribute)),
      value_(std::move(value)),
      children_(std::move(children)) {}

QueryPtr Query::term(std::string attribute, std::string term) {
  return QueryPtr(new Query(QueryKind::kTerm, std::move(attribute),
                            to_lower(term), {}));
}

QueryPtr Query::wildcard(std::string attribute, std::string pattern) {
  return QueryPtr(new Query(QueryKind::kWildcard, std::move(attribute),
                            to_lower(pattern), {}));
}

QueryPtr Query::conj(std::vector<QueryPtr> children) {
  assert(!children.empty());
  if (children.size() == 1) return children.front();
  return QueryPtr(new Query(QueryKind::kAnd, "", "", std::move(children)));
}

QueryPtr Query::disj(std::vector<QueryPtr> children) {
  assert(!children.empty());
  if (children.size() == 1) return children.front();
  return QueryPtr(new Query(QueryKind::kOr, "", "", std::move(children)));
}

QueryPtr Query::negate(QueryPtr child) {
  assert(child != nullptr);
  return QueryPtr(new Query(QueryKind::kNot, "", "", {std::move(child)}));
}

namespace {
bool attribute_matches(const docmodel::Document& doc,
                       const std::string& attribute, const std::string& value,
                       bool wildcard) {
  if (attribute == kTextAttribute) {
    for (const auto& t : doc.terms) {
      if (wildcard ? wildcard_match(value, t) : t == value) return true;
    }
    return false;
  }
  // Metadata values match lowercased, compared in place.
  for (const auto& [attr, val] : doc.metadata.entries()) {
    if (attr != attribute) continue;
    if (wildcard ? wildcard_match_lower(value, val)
                 : equals_lower(val, value)) {
      return true;
    }
  }
  return false;
}
}  // namespace

bool Query::matches(const docmodel::Document& doc) const {
  switch (kind_) {
    case QueryKind::kTerm:
      return attribute_matches(doc, attribute_, value_, /*wildcard=*/false);
    case QueryKind::kWildcard:
      return attribute_matches(doc, attribute_, value_, /*wildcard=*/true);
    case QueryKind::kAnd:
      return std::all_of(children_.begin(), children_.end(),
                         [&](const QueryPtr& c) { return c->matches(doc); });
    case QueryKind::kOr:
      return std::any_of(children_.begin(), children_.end(),
                         [&](const QueryPtr& c) { return c->matches(doc); });
    case QueryKind::kNot:
      return !children_.front()->matches(doc);
  }
  return false;
}

std::string Query::str() const {
  switch (kind_) {
    case QueryKind::kTerm:
    case QueryKind::kWildcard:
      return attribute_ + ":" + value_;
    case QueryKind::kAnd:
    case QueryKind::kOr: {
      std::string out = "(";
      const char* sep = "";
      for (const auto& c : children_) {
        out += sep;
        out += c->str();
        sep = kind_ == QueryKind::kAnd ? " AND " : " OR ";
      }
      out += ")";
      return out;
    }
    case QueryKind::kNot:
      return "NOT " + children_.front()->str();
  }
  return "";
}

}  // namespace gsalert::retrieval
