// Per-collection inverted index: (attribute, term) -> sorted posting list.
// Replaces Greenstone's MG/MGPP indexers (DESIGN.md §4). Supports the
// Boolean query AST with set algebra on postings; wildcard terms scan the
// per-attribute lexicon.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "docmodel/document.h"
#include "retrieval/query.h"

namespace gsalert::retrieval {

using PostingList = std::vector<DocumentId>;  // sorted, unique

class InvertedIndex {
 public:
  /// Build from a data set. `indexed_attributes` selects which metadata
  /// attributes are searchable; full text is always indexed under "text".
  void build(const docmodel::DataSet& data,
             const std::vector<std::string>& indexed_attributes);

  /// Incrementally add one document (same attribute selection as build).
  void add_document(const docmodel::Document& doc,
                    const std::vector<std::string>& indexed_attributes);

  /// Execute a Boolean query; returns sorted unique document ids.
  PostingList execute(const Query& query) const;

  /// All documents in the index (the universe for NOT).
  const PostingList& universe() const { return universe_; }

  std::size_t doc_count() const { return universe_.size(); }

 private:
  void index_value(const std::string& attribute, std::string_view value,
                   DocumentId id);

  // attribute -> (term -> postings). The term map is ordered so wildcard
  // scans with a fixed prefix could be range-limited; we keep the simple
  // full scan, which the lexicon sizes here never make hot.
  std::unordered_map<std::string, std::map<std::string, PostingList>>
      postings_;
  PostingList universe_;
};

/// Posting-list set algebra (exposed for tests and for the profile index).
PostingList intersect(const PostingList& a, const PostingList& b);
PostingList unite(const PostingList& a, const PostingList& b);
PostingList subtract(const PostingList& universe, const PostingList& a);

}  // namespace gsalert::retrieval
