#include "profiles/event_context.h"

#include <algorithm>

#include "common/strings.h"

namespace gsalert::profiles {

namespace {
const std::string kEmpty;
}  // namespace

bool is_macro_attribute(std::string_view attribute) {
  return std::find(kMacroAttributes.begin(), kMacroAttributes.end(),
                   attribute) != kMacroAttributes.end();
}

EventContext EventContext::from(const docmodel::Event& event) {
  EventContext ctx;
  ctx.docs_ = &event.docs;
  // Values are lowercased so matching is case-insensitive end to end
  // (predicate values are lowercased by the parser).
  ctx.macros_ = {to_lower(event.collection.host),
                 to_lower(event.collection.name),
                 to_lower(event.collection.str()),
                 docmodel::event_type_name(event.type),
                 to_lower(event.physical_origin.host),
                 to_lower(event.physical_origin.str())};
  return ctx;
}

std::span<const EventContext::DocValue> EventContext::doc_values(
    std::string_view attribute) const {
  if (!doc_values_built_) {
    std::size_t n = 0;
    for (const docmodel::Document& doc : *docs_) n += doc.metadata.size();
    doc_values_.reserve(n);
    for (const docmodel::Document& doc : *docs_) {
      for (const auto& [attr, value] : doc.metadata.entries()) {
        doc_values_.push_back(DocValue{attr, value});
      }
    }
    std::sort(doc_values_.begin(), doc_values_.end(),
              [](const DocValue& a, const DocValue& b) {
                return a.attribute != b.attribute
                           ? a.attribute < b.attribute
                           : compare_lower(a.value, b.value) < 0;
              });
    doc_values_built_ = true;
  }
  const auto [first, last] = std::equal_range(
      doc_values_.begin(), doc_values_.end(), DocValue{attribute, {}},
      [](const DocValue& a, const DocValue& b) {
        return a.attribute < b.attribute;
      });
  return {first, last};
}

const retrieval::PostingList& EventContext::cached_search(
    const retrieval::Query& query) const {
  const auto [it, fresh] = search_cache_.try_emplace(query.str());
  if (fresh) {
    it->second = engine_->search(query);
  } else {
    ++query_cache_hits_;
  }
  return it->second;
}

bool EventContext::any_doc_matches(const retrieval::Query& query) const {
  const auto [it, fresh] = scan_cache_.try_emplace(query.str());
  if (fresh) {
    it->second = std::any_of(docs_->begin(), docs_->end(),
                             [&](const docmodel::Document& d) {
                               return query.matches(d);
                             });
  } else {
    ++query_cache_hits_;
  }
  return it->second;
}

const std::string& EventContext::macro(std::string_view attribute) const {
  for (std::size_t i = 0; i < kMacroCount; ++i) {
    if (kMacroAttributes[i] == attribute) return macros_[i];
  }
  return kEmpty;
}

}  // namespace gsalert::profiles
