// The view of an event that profiles are evaluated against.
//
// Macro-level attributes (paper §5) form a fixed universe derived from the
// event: host, collection, ref, type, origin_host, origin_ref. Every other
// attribute referenced by a profile is micro-level and evaluated against
// the event's documents (their metadata, or their terms for "text").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "docmodel/event.h"
#include "retrieval/engine.h"

namespace gsalert::profiles {

/// Names of the macro-level attributes.
bool is_macro_attribute(std::string_view attribute);

class EventContext {
 public:
  static EventContext from(const docmodel::Event& event);

  /// Value of a macro attribute ("" if the attribute is not macro-level).
  const std::string& macro(std::string_view attribute) const;

  const std::vector<docmodel::Document>& docs() const { return *docs_; }
  const docmodel::Event& event() const { return *event_; }

  /// Attach the collection's retrieval engine (paper §5: the filter reuses
  /// "the system's own retrieval functionalities"). When present, query
  /// predicates are answered from the inverted index instead of scanning
  /// the event's documents — only valid when the engine indexes the
  /// documents the event carries (i.e. at the event's own host, for
  /// un-renamed events).
  void set_engine(const retrieval::Engine* engine) {
    engine_ = engine;
    // Cached query answers are engine-specific; drop them on a swap.
    search_cache_.clear();
    scan_cache_.clear();
  }
  const retrieval::Engine* engine() const { return engine_; }

  /// engine()->search(query), cached by canonical query text: N profiles
  /// sharing a filter query cost one index search per event. Only valid
  /// while engine() is non-null.
  const retrieval::PostingList& cached_search(
      const retrieval::Query& query) const;

  /// Engine-less filter-query path: does any of the event's documents
  /// match? Cached by canonical query text like cached_search.
  bool any_doc_matches(const retrieval::Query& query) const;

  std::uint64_t query_cache_hits() const { return query_cache_hits_; }

  /// The event's macro attributes translated into `interner`'s symbol
  /// space, computed once per event (pairs whose attribute or value the
  /// interner has never seen are dropped — no profile can match them).
  /// This is what makes an equality probe one integer hash: the strings
  /// are hashed here, never in the probe loop.
  const std::vector<std::pair<std::uint32_t, std::uint32_t>>& macro_symbols(
      const StringInterner& interner) const;

  /// Per-event micro index over the documents: attribute -> lowercase
  /// value -> present. Built lazily on the first doc-level predicate and
  /// amortized across all candidate evaluations for this event ("equality
  /// preferred" applied at the micro level too). Includes metadata,
  /// "text" terms and the pseudo-attribute "doc_id".
  struct DocIndex {
    std::unordered_map<std::string,
                       std::unordered_map<std::string, std::vector<DocumentId>>>
        values;
  };
  const DocIndex& doc_index() const;

 private:
  std::vector<std::pair<std::string, std::string>> attrs_;
  const std::vector<docmodel::Document>* docs_ = nullptr;
  const docmodel::Event* event_ = nullptr;
  const retrieval::Engine* engine_ = nullptr;
  mutable std::shared_ptr<const DocIndex> doc_index_;

  // Query-result caches, keyed by canonical query text (Query::str()).
  mutable std::unordered_map<std::string, retrieval::PostingList>
      search_cache_;
  mutable std::unordered_map<std::string, bool> scan_cache_;
  mutable std::uint64_t query_cache_hits_ = 0;

  // Macro attrs in symbol space, valid for one (interner, size) state;
  // the size guard re-translates after the interner learned new strings.
  mutable std::vector<std::pair<std::uint32_t, std::uint32_t>> macro_syms_;
  mutable const StringInterner* sym_owner_ = nullptr;
  mutable std::size_t sym_owner_size_ = 0;
};

}  // namespace gsalert::profiles
