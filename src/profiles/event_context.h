// The view of an event that profiles are evaluated against.
//
// Macro-level attributes (paper §5) form a fixed universe derived from the
// event: host, collection, ref, type, origin_host, origin_ref. Every other
// attribute referenced by a profile is micro-level and evaluated against
// the event's documents (their metadata, or their terms for "text").
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "docmodel/event.h"
#include "retrieval/engine.h"

namespace gsalert::profiles {

/// The macro-level attributes, in the order EventContext keeps their
/// values.
inline constexpr std::array<std::string_view, 6> kMacroAttributes = {
    "host", "collection", "ref", "type", "origin_host", "origin_ref"};
inline constexpr std::size_t kMacroCount = kMacroAttributes.size();

bool is_macro_attribute(std::string_view attribute);

class EventContext {
 public:
  /// One metadata entry of an event document, viewed in place.
  struct DocValue {
    std::string_view attribute;
    std::string_view value;
  };

  /// The context views `event` (documents included), which must outlive
  /// any doc-level evaluation; the macro values are lowercased copies.
  static EventContext from(const docmodel::Event& event);

  /// Value of a macro attribute ("" if the attribute is not macro-level).
  const std::string& macro(std::string_view attribute) const;
  /// The macro values, lowercased, in kMacroAttributes order.
  const std::array<std::string, kMacroCount>& macros() const {
    return macros_;
  }

  const std::vector<docmodel::Document>& docs() const { return *docs_; }

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

  /// The documents' metadata entries named `attribute`, sorted by
  /// lowercased value: binary searches in a view of every entry, sorted
  /// by attribute then lowercased value and built on the first call in
  /// one allocation.
  std::span<const DocValue> doc_values(std::string_view attribute) const;

 private:
  std::array<std::string, kMacroCount> macros_;
  const std::vector<docmodel::Document>* docs_ = nullptr;
  const retrieval::Engine* engine_ = nullptr;
  mutable std::vector<DocValue> doc_values_;
  mutable bool doc_values_built_ = false;

  // Query-result caches, keyed by canonical query text (Query::str()).
  mutable std::unordered_map<std::string, retrieval::PostingList>
      search_cache_;
  mutable std::unordered_map<std::string, bool> scan_cache_;
  mutable std::uint64_t query_cache_hits_ = 0;
};

}  // namespace gsalert::profiles
