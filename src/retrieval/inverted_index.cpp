#include "retrieval/inverted_index.h"

#include <algorithm>
#include <set>

#include "common/strings.h"

namespace gsalert::retrieval {

namespace {
void insert_sorted(PostingList& list, DocumentId id) {
  const auto it = std::lower_bound(list.begin(), list.end(), id);
  if (it == list.end() || *it != id) list.insert(it, id);
}
}  // namespace

void InvertedIndex::index_value(const std::string& attribute,
                                std::string_view value, DocumentId id) {
  insert_sorted(postings_[attribute][to_lower(value)], id);
}

void InvertedIndex::add_document(
    const docmodel::Document& doc,
    const std::vector<std::string>& indexed_attributes) {
  insert_sorted(universe_, doc.id);
  for (const auto& term : doc.terms) {
    index_value(std::string{kTextAttribute}, term, doc.id);
  }
  for (const auto& attr : indexed_attributes) {
    for (const auto& value : doc.metadata.all(attr)) {
      index_value(attr, value, doc.id);
    }
  }
}

void InvertedIndex::build(const docmodel::DataSet& data,
                          const std::vector<std::string>& indexed_attributes) {
  postings_.clear();
  universe_.clear();
  for (const auto& doc : data.docs()) {
    add_document(doc, indexed_attributes);
  }
}

PostingList intersect(const PostingList& a, const PostingList& b) {
  PostingList out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

PostingList unite(const PostingList& a, const PostingList& b) {
  PostingList out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

PostingList subtract(const PostingList& universe, const PostingList& a) {
  PostingList out;
  std::set_difference(universe.begin(), universe.end(), a.begin(), a.end(),
                      std::back_inserter(out));
  return out;
}

PostingList InvertedIndex::execute(const Query& query) const {
  switch (query.kind()) {
    case QueryKind::kTerm: {
      const auto attr_it = postings_.find(query.attribute());
      if (attr_it == postings_.end()) return {};
      const auto term_it = attr_it->second.find(query.value());
      if (term_it == attr_it->second.end()) return {};
      return term_it->second;
    }
    case QueryKind::kWildcard: {
      const auto attr_it = postings_.find(query.attribute());
      if (attr_it == postings_.end()) return {};
      PostingList out;
      for (const auto& [term, list] : attr_it->second) {
        if (wildcard_match(query.value(), term)) out = unite(out, list);
      }
      return out;
    }
    case QueryKind::kAnd: {
      PostingList out = execute(*query.children().front());
      for (std::size_t i = 1; i < query.children().size() && !out.empty();
           ++i) {
        out = intersect(out, execute(*query.children()[i]));
      }
      return out;
    }
    case QueryKind::kOr: {
      PostingList out;
      for (const auto& child : query.children()) {
        out = unite(out, execute(*child));
      }
      return out;
    }
    case QueryKind::kNot:
      return subtract(universe_, execute(*query.children().front()));
  }
  return {};
}

}  // namespace gsalert::retrieval
