#include "profiles/event_context.h"

#include <algorithm>
#include <array>

#include "common/strings.h"

namespace gsalert::profiles {

namespace {
constexpr std::array<std::string_view, 6> kMacroAttributes = {
    "host", "collection", "ref", "type", "origin_host", "origin_ref"};
const std::string kEmpty;
}  // namespace

bool is_macro_attribute(std::string_view attribute) {
  for (std::string_view m : kMacroAttributes) {
    if (m == attribute) return true;
  }
  return false;
}

EventContext EventContext::from(const docmodel::Event& event) {
  EventContext ctx;
  ctx.event_ = &event;
  ctx.docs_ = &event.docs;
  // Values are lowercased so matching is case-insensitive end to end
  // (predicate values are lowercased by the parser).
  ctx.attrs_ = {
      {"host", to_lower(event.collection.host)},
      {"collection", to_lower(event.collection.name)},
      {"ref", to_lower(event.collection.str())},
      {"type", docmodel::event_type_name(event.type)},
      {"origin_host", to_lower(event.physical_origin.host)},
      {"origin_ref", to_lower(event.physical_origin.str())},
  };
  return ctx;
}

const EventContext::DocIndex& EventContext::doc_index() const {
  if (doc_index_ == nullptr) {
    auto index = std::make_shared<DocIndex>();
    for (const docmodel::Document& doc : *docs_) {
      index->values["doc_id"][std::to_string(doc.id)].push_back(doc.id);
      for (const auto& [attr, value] : doc.metadata.entries()) {
        index->values[attr][to_lower(value)].push_back(doc.id);
      }
      for (const auto& term : doc.terms) {
        auto& list = index->values["text"][term];
        if (list.empty() || list.back() != doc.id) list.push_back(doc.id);
      }
    }
    doc_index_ = std::move(index);
  }
  return *doc_index_;
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

const std::vector<std::pair<std::uint32_t, std::uint32_t>>&
EventContext::macro_symbols(const StringInterner& interner) const {
  if (sym_owner_ == &interner && sym_owner_size_ == interner.size()) {
    return macro_syms_;
  }
  macro_syms_.clear();
  for (const auto& [attr, value] : attrs_) {
    const std::uint32_t a = interner.find(attr);
    if (a == StringInterner::kNoSymbol) continue;
    const std::uint32_t v = interner.find(value);
    if (v == StringInterner::kNoSymbol) continue;
    macro_syms_.emplace_back(a, v);
  }
  sym_owner_ = &interner;
  sym_owner_size_ = interner.size();
  return macro_syms_;
}

const std::string& EventContext::macro(std::string_view attribute) const {
  for (const auto& [attr, value] : attrs_) {
    if (attr == attribute) return value;
  }
  return kEmpty;
}

}  // namespace gsalert::profiles
