#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "docmodel/event.h"
#include "profiles/event_context.h"
#include "profiles/index.h"
#include "profiles/parser.h"

namespace gsalert::profiles {
namespace {

using docmodel::Document;
using docmodel::Event;
using docmodel::EventType;

Event sample_event() {
  Event e;
  e.id = {"Hamilton", 1};
  e.type = EventType::kCollectionRebuilt;
  e.collection = {"Hamilton", "D"};
  e.physical_origin = {"London", "E"};
  Document d1;
  d1.id = 101;
  d1.metadata.add("title", "Digital Library Alerting");
  d1.metadata.add("creator", "Hinze");
  d1.terms = {"alerting", "digital", "library"};
  Document d2;
  d2.id = 102;
  d2.metadata.add("title", "Music Retrieval");
  d2.metadata.add("creator", "Smith");
  d2.terms = {"music", "retrieval"};
  e.docs = {d1, d2};
  return e;
}

bool profile_matches(const std::string& text, const Event& event) {
  auto p = parse_profile(text);
  EXPECT_TRUE(p.ok()) << text << ": "
                      << (p.ok() ? "" : p.error().str());
  const EventContext ctx = EventContext::from(event);
  return p.ok() && p.value().matches(ctx);
}

// ---------- EventContext ---------------------------------------------------

TEST(EventContextTest, MacroAttributesDerived) {
  const Event e = sample_event();
  const EventContext ctx = EventContext::from(e);
  EXPECT_EQ(ctx.macro("host"), "hamilton");
  EXPECT_EQ(ctx.macro("collection"), "d");
  EXPECT_EQ(ctx.macro("ref"), "hamilton.d");
  EXPECT_EQ(ctx.macro("type"), "collection_rebuilt");
  EXPECT_EQ(ctx.macro("origin_host"), "london");
  EXPECT_EQ(ctx.macro("origin_ref"), "london.e");
  EXPECT_EQ(ctx.macro("creator"), "");  // not macro-level
  EXPECT_EQ(ctx.docs().size(), 2u);
}

TEST(EventContextTest, MacroAttributeClassification) {
  EXPECT_TRUE(is_macro_attribute("host"));
  EXPECT_TRUE(is_macro_attribute("type"));
  EXPECT_FALSE(is_macro_attribute("creator"));
  EXPECT_FALSE(is_macro_attribute("doc_id"));
}

// ---------- parser ------------------------------------------------------------

TEST(ProfileParserTest, SimpleEquality) {
  auto p = parse_profile("host = Hamilton");
  ASSERT_TRUE(p.ok());
  ASSERT_EQ(p.value().dnf.size(), 1u);
  ASSERT_EQ(p.value().dnf[0].preds.size(), 1u);
  const Predicate& pred = p.value().dnf[0].preds[0];
  EXPECT_EQ(pred.op, Op::kEq);
  EXPECT_EQ(pred.attribute, "host");
  EXPECT_EQ(pred.value, "hamilton");  // lowercased
}

TEST(ProfileParserTest, WildcardDetected) {
  auto p = parse_profile("collection = new-*");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().dnf[0].preds[0].op, Op::kWildcard);
}

TEST(ProfileParserTest, InList) {
  auto p = parse_profile("doc_id IN [101, 205, 307]");
  ASSERT_TRUE(p.ok());
  const Predicate& pred = p.value().dnf[0].preds[0];
  EXPECT_EQ(pred.op, Op::kIn);
  EXPECT_EQ(pred.values,
            (std::vector<std::string>{"101", "205", "307"}));
}

TEST(ProfileParserTest, QueryPredicate) {
  auto p = parse_profile("doc ~ \"title:digital AND alerting\"");
  ASSERT_TRUE(p.ok());
  const Predicate& pred = p.value().dnf[0].preds[0];
  EXPECT_EQ(pred.op, Op::kQuery);
  ASSERT_NE(pred.query, nullptr);
}

TEST(ProfileParserTest, QuotedValuesKeepSpaces) {
  auto p = parse_profile("title = \"digital library\"");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().dnf[0].preds[0].value, "digital library");
}

TEST(ProfileParserTest, DnfOfDisjunction) {
  auto p = parse_profile("host = a OR host = b OR host = c");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().dnf.size(), 3u);
}

TEST(ProfileParserTest, DnfDistributesAndOverOr) {
  auto p = parse_profile("(host = a OR host = b) AND (type = x OR type = y)");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().dnf.size(), 4u);
  for (const auto& conj : p.value().dnf) {
    EXPECT_EQ(conj.preds.size(), 2u);
  }
}

TEST(ProfileParserTest, NegationPushedToPredicates) {
  auto p = parse_profile("NOT (host = a AND type = x)");
  ASSERT_TRUE(p.ok());
  // De Morgan: NOT a OR NOT x -> two conjunctions of one negated pred.
  ASSERT_EQ(p.value().dnf.size(), 2u);
  EXPECT_EQ(p.value().dnf[0].preds[0].op, Op::kNeq);
  EXPECT_EQ(p.value().dnf[1].preds[0].op, Op::kNeq);
}

TEST(ProfileParserTest, DoubleNegationCancels) {
  auto p = parse_profile("NOT NOT host = a");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().dnf[0].preds[0].op, Op::kEq);
}

TEST(ProfileParserTest, NegatedInBecomesNotIn) {
  auto p = parse_profile("NOT collection IN [a, b]");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().dnf[0].preds[0].op, Op::kNotIn);
}

TEST(ProfileParserTest, ComplexityCapEnforced) {
  // Each AND term multiplies conjunctions by 2: 2^8 = 256 > 128 cap.
  std::string text = "(a = 1 OR a = 2)";
  for (int i = 0; i < 7; ++i) text += " AND (a = 1 OR a = 2)";
  EXPECT_FALSE(parse_profile(text).ok());
}

TEST(ProfileParserTest, Errors) {
  EXPECT_FALSE(parse_profile("").ok());
  EXPECT_FALSE(parse_profile("host").ok());
  EXPECT_FALSE(parse_profile("host =").ok());
  EXPECT_FALSE(parse_profile("host = a AND").ok());
  EXPECT_FALSE(parse_profile("host IN a").ok());
  EXPECT_FALSE(parse_profile("host IN [a").ok());
  EXPECT_FALSE(parse_profile("doc ~ unquoted").ok());
  EXPECT_FALSE(parse_profile("doc ~ \"(broken\"").ok());
  EXPECT_FALSE(parse_profile("host = \"unterminated").ok());
  EXPECT_FALSE(parse_profile("host = a extra").ok());
  EXPECT_FALSE(parse_profile("host & a").ok());
}

// ---------- predicate evaluation ----------------------------------------------

TEST(PredicateEvalTest, MacroEqualityAndInequality) {
  const Event e = sample_event();
  EXPECT_TRUE(profile_matches("host = Hamilton", e));
  EXPECT_FALSE(profile_matches("host = London", e));
  EXPECT_TRUE(profile_matches("host != London", e));
  EXPECT_FALSE(profile_matches("host != Hamilton", e));
}

TEST(PredicateEvalTest, MacroWildcard) {
  const Event e = sample_event();
  EXPECT_TRUE(profile_matches("host = Ham*", e));
  EXPECT_FALSE(profile_matches("host = Lon*", e));
  EXPECT_TRUE(profile_matches("ref = hamilton.*", e));
}

TEST(PredicateEvalTest, MacroInList) {
  const Event e = sample_event();
  EXPECT_TRUE(profile_matches("collection IN [c, d, e]", e));
  EXPECT_FALSE(profile_matches("collection IN [x, y]", e));
  EXPECT_TRUE(profile_matches("NOT collection IN [x, y]", e));
}

TEST(PredicateEvalTest, TypePredicate) {
  const Event e = sample_event();
  EXPECT_TRUE(profile_matches("type = collection_rebuilt", e));
  EXPECT_FALSE(profile_matches("type = collection_deleted", e));
}

TEST(PredicateEvalTest, OriginAttributesSeeThePhysicalSource) {
  const Event e = sample_event();
  // The renamed origin is Hamilton.D but the physical origin London.E
  // remains addressable — the hybrid routing invariant.
  EXPECT_TRUE(profile_matches("origin_host = London", e));
  EXPECT_TRUE(profile_matches("host = Hamilton AND origin_ref = London.E", e));
}

TEST(PredicateEvalTest, DocIdentityWatchThis) {
  const Event e = sample_event();
  EXPECT_TRUE(profile_matches("doc_id IN [101]", e));
  EXPECT_TRUE(profile_matches("doc_id = 102", e));
  EXPECT_FALSE(profile_matches("doc_id IN [999]", e));
  EXPECT_TRUE(profile_matches("NOT doc_id IN [999]", e));
  EXPECT_FALSE(profile_matches("NOT doc_id IN [101]", e));
}

TEST(PredicateEvalTest, DocMetadataPredicates) {
  const Event e = sample_event();
  EXPECT_TRUE(profile_matches("creator = hinze", e));
  EXPECT_TRUE(profile_matches("creator = Hinze", e));  // case-insensitive
  EXPECT_FALSE(profile_matches("creator = unknown", e));
  EXPECT_TRUE(profile_matches("title = \"music retrieval\"", e));
  EXPECT_TRUE(profile_matches("title = digital*", e));
}

TEST(PredicateEvalTest, DocTextTerms) {
  const Event e = sample_event();
  EXPECT_TRUE(profile_matches("text = alerting", e));
  EXPECT_TRUE(profile_matches("text = retriev*", e));
  EXPECT_FALSE(profile_matches("text = quantum", e));
}

TEST(PredicateEvalTest, DocQueryPredicate) {
  const Event e = sample_event();
  EXPECT_TRUE(profile_matches("doc ~ \"creator:hinze AND alerting\"", e));
  EXPECT_FALSE(profile_matches("doc ~ \"creator:hinze AND music\"", e));
  EXPECT_TRUE(profile_matches("NOT doc ~ \"creator:nobody\"", e));
}

TEST(PredicateEvalTest, DocLevelNegationMeansNoDocument) {
  const Event e = sample_event();
  // Some doc has creator != hinze (doc 2), but the negative predicate
  // requires NO doc to match the positive form.
  EXPECT_FALSE(profile_matches("creator != hinze", e));
  Event only_smith = e;
  only_smith.docs.erase(only_smith.docs.begin());
  EXPECT_TRUE(profile_matches("creator != hinze", only_smith));
}

TEST(PredicateEvalTest, EmptyDocListFailsPositiveDocPredicates) {
  Event e = sample_event();
  e.docs.clear();
  EXPECT_FALSE(profile_matches("creator = hinze", e));
  EXPECT_TRUE(profile_matches("NOT creator = hinze", e));
  EXPECT_TRUE(profile_matches("host = hamilton", e));  // macro unaffected
}

TEST(PredicateEvalTest, MixedMacroAndMicro) {
  const Event e = sample_event();
  EXPECT_TRUE(profile_matches(
      "host = Hamilton AND creator = hinze AND doc ~ \"digital\"", e));
  EXPECT_FALSE(profile_matches(
      "host = Hamilton AND creator = hinze AND doc ~ \"opera\"", e));
  EXPECT_TRUE(profile_matches(
      "host = X OR (collection = D AND text = music)", e));
}

TEST(PredicateEvalTest, EngineBackedQueryAgreesWithDocScan) {
  // §5 index path: the same query predicate, answered from the collection
  // index, must agree with the per-document evaluation.
  const Event e = sample_event();
  docmodel::Collection coll;
  coll.config.name = "X";
  coll.config.host = "Hamilton";
  coll.config.indexed_attributes = {"title", "creator"};
  for (const auto& d : e.docs) coll.data.add(d);
  retrieval::Engine engine;
  engine.build(coll);

  for (const char* text :
       {"doc ~ \"creator:hinze AND alerting\"", "doc ~ \"creator:hinze AND music\"",
        "NOT doc ~ \"creator:nobody\"", "doc ~ \"retriev* OR quantum\"",
        "doc ~ \"title:music\""}) {
    auto p = parse_profile(text);
    ASSERT_TRUE(p.ok()) << text;
    EventContext scan_ctx = EventContext::from(e);
    EventContext engine_ctx = EventContext::from(e);
    engine_ctx.set_engine(&engine);
    EXPECT_EQ(p.value().matches(scan_ctx), p.value().matches(engine_ctx))
        << text;
  }
}

// ---------- index -----------------------------------------------------------------

// match() reports profiles unique but in first-match order (the epoch
// dedup removed the sort pass); oracle comparisons are set-based.
std::vector<ProfileId> sorted(std::vector<ProfileId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(ProfileIndexTest, AddMatchRemove) {
  ProfileIndex index;
  auto p1 = parse_profile("host = hamilton");
  auto p2 = parse_profile("host = london");
  p1.value().id = 1;
  p2.value().id = 2;
  ASSERT_TRUE(index.add(std::move(p1).take()));
  ASSERT_TRUE(index.add(std::move(p2).take()));
  EXPECT_EQ(index.profile_count(), 2u);

  const Event e = sample_event();
  const EventContext ctx = EventContext::from(e);
  EXPECT_EQ(index.match(ctx), (std::vector<ProfileId>{1}));

  ASSERT_TRUE(index.remove(1));
  EXPECT_TRUE(index.match(ctx).empty());
  EXPECT_FALSE(index.remove(1).is_ok());
  EXPECT_FALSE(index.contains(1));
  EXPECT_TRUE(index.contains(2));
}

TEST(ProfileIndexTest, RejectsZeroAndDuplicateIds) {
  ProfileIndex index;
  auto p = parse_profile("host = x");
  p.value().id = 0;
  EXPECT_FALSE(index.add(p.value()));
  p.value().id = 5;
  EXPECT_TRUE(index.add(p.value()));
  EXPECT_FALSE(index.add(p.value()));
}

TEST(ProfileIndexTest, MultiConjunctionProfileReportedOnce) {
  ProfileIndex index;
  auto p = parse_profile("host = hamilton OR collection = d");
  p.value().id = 7;
  ASSERT_TRUE(index.add(std::move(p).take()));
  const Event e = sample_event();
  // Both conjunctions match; the profile must be reported exactly once.
  EXPECT_EQ(index.match(EventContext::from(e)),
            (std::vector<ProfileId>{7}));
}

TEST(ProfileIndexTest, ZeroEqConjunctionsAlwaysCandidates) {
  ProfileIndex index;
  auto p = parse_profile("host = ham*");  // wildcard: no hashable equality
  p.value().id = 3;
  ASSERT_TRUE(index.add(std::move(p).take()));
  const Event e = sample_event();
  MatchStats stats;
  EXPECT_EQ(index.match(EventContext::from(e), &stats),
            (std::vector<ProfileId>{3}));
  EXPECT_EQ(stats.eq_probe_hits, 0u);
  EXPECT_EQ(stats.candidates, 1u);
}

TEST(ProfileIndexTest, EqualityPruningSkipsResiduals) {
  ProfileIndex index;
  // 50 profiles on other hosts with an expensive residual; only one can
  // become a candidate for our event.
  for (ProfileId id = 1; id <= 50; ++id) {
    auto p = parse_profile("host = other" + std::to_string(id) +
                           " AND doc ~ \"alerting\"");
    p.value().id = id;
    ASSERT_TRUE(index.add(std::move(p).take()));
  }
  auto target = parse_profile("host = hamilton AND doc ~ \"alerting\"");
  target.value().id = 99;
  ASSERT_TRUE(index.add(std::move(target).take()));

  MatchStats stats;
  const Event e = sample_event();
  EXPECT_EQ(index.match(EventContext::from(e), &stats),
            (std::vector<ProfileId>{99}));
  EXPECT_EQ(stats.candidates, 1u);      // pruning worked
  EXPECT_EQ(stats.residual_evals, 1u);  // only the query predicate of #99
}

TEST(ProfileIndexTest, RepeatedEqualityPredicateCountsBoth) {
  ProfileIndex index;
  auto p = parse_profile("host = hamilton AND host = hamilton");
  p.value().id = 4;
  ASSERT_TRUE(index.add(std::move(p).take()));
  const Event e = sample_event();
  EXPECT_EQ(index.match(EventContext::from(e)),
            (std::vector<ProfileId>{4}));
}

TEST(ProfileIndexTest, ContradictoryEqualitiesNeverMatch) {
  ProfileIndex index;
  auto p = parse_profile("host = hamilton AND host = london");
  p.value().id = 4;
  ASSERT_TRUE(index.add(std::move(p).take()));
  EXPECT_TRUE(index.match(EventContext::from(sample_event())).empty());
}

TEST(ProfileIndexTest, ConjunctionIsFiledUnderItsMostSpecificKey) {
  ProfileIndex index;
  ProfileId id = 0;
  const auto add = [&](const std::string& text) {
    auto p = parse_profile(text);
    p.value().id = ++id;
    ASSERT_TRUE(index.add(std::move(p).take()));
  };
  // The ref = hamilton.d cluster: three ref watches and two rebuild
  // watches of the event's collection, interleaved.
  add("ref = hamilton.d");
  add("ref = hamilton.d AND type = collection_rebuilt");
  add("ref = hamilton.d");
  add("type = collection_rebuilt AND ref = hamilton.d");
  add("ref = hamilton.d");
  // Rebuild watches of 40 other collections: filed under their refs, so
  // the event walks none of them.
  for (int i = 0; i < 40; ++i) {
    add("type = collection_rebuilt AND ref = london.c" + std::to_string(i));
  }
  MatchStats stats;
  const std::vector<ProfileId> hits =
      index.match(EventContext::from(sample_event()), &stats);
  // The cluster in insertion order, whatever order its keys were written.
  EXPECT_EQ(hits, (std::vector<ProfileId>{1, 2, 3, 4, 5}));
  EXPECT_EQ(stats.eq_probe_hits, 5u);  // the ref = hamilton.d cluster only
  EXPECT_EQ(stats.candidates, 5u);

  // A type-only watch is filed under type, so the event walks that
  // cluster too, and the other keys of a conjunction are checked.
  add("type = collection_rebuilt");
  add("ref = hamilton.d AND type = collection_built");
  add("host = hamilton AND origin_ref = london.e AND type = collection_rebuilt");
  MatchStats more;
  EXPECT_EQ(sorted(index.match(EventContext::from(sample_event()), &more)),
            (std::vector<ProfileId>{1, 2, 3, 4, 5, 46, 48}));
  EXPECT_EQ(more.eq_probe_hits, 8u);  // ref cluster 6, origin_ref 1, type 1
  EXPECT_EQ(more.candidates, 7u);
}

TEST(ProfileIndexTest, RemovalUnlinksSharedBuckets) {
  ProfileIndex index;
  for (ProfileId id = 1; id <= 3; ++id) {
    auto p = parse_profile("host = hamilton");
    p.value().id = id;
    ASSERT_TRUE(index.add(std::move(p).take()));
  }
  ASSERT_TRUE(index.remove(2));
  EXPECT_EQ(index.match(EventContext::from(sample_event())),
            (std::vector<ProfileId>{1, 3}));
  EXPECT_EQ(index.conjunction_count(), 2u);
}

TEST(ProfileIndexTest, SlotReuseAfterRemoval) {
  ProfileIndex index;
  auto p1 = parse_profile("host = hamilton");
  p1.value().id = 1;
  ASSERT_TRUE(index.add(std::move(p1).take()));
  ASSERT_TRUE(index.remove(1));
  auto p2 = parse_profile("host = london");
  p2.value().id = 2;
  ASSERT_TRUE(index.add(std::move(p2).take()));
  // The reused slot must not leak the old predicate set.
  EXPECT_TRUE(index.match(EventContext::from(sample_event())).empty());
}

// ---------- predicate sharing + per-event memoization -------------------------

TEST(ProfileIndexSharingTest, SharedResidualEvaluatedOncePerEvent) {
  ProfileIndex index;
  // 20 profiles with the same eq predicate and the same residual query:
  // the residual dedupes to ONE shared predicate, evaluated once per
  // event; the other 19 candidates are answered from the memo.
  for (ProfileId id = 1; id <= 20; ++id) {
    auto p = parse_profile("host = hamilton AND doc ~ \"alerting\"");
    p.value().id = id;
    ASSERT_TRUE(index.add(std::move(p).take()));
  }
  EXPECT_EQ(index.shared_predicate_count(), 1u);

  MatchStats stats;
  const auto hits = index.match(EventContext::from(sample_event()), &stats);
  EXPECT_EQ(hits.size(), 20u);
  EXPECT_EQ(stats.candidates, 20u);
  EXPECT_EQ(stats.residual_evals, 1u);
  EXPECT_EQ(stats.predicate_cache_misses, 1u);
  EXPECT_EQ(stats.predicate_cache_hits, 19u);
  EXPECT_EQ(stats.distinct_residuals, 1u);
  // Interning contract: the probe loop hashes no strings at all.
  EXPECT_EQ(stats.eq_probe_string_hashes, 0u);
}

TEST(ProfileIndexSharingTest, NegatedInSharesPositiveTwinMemo) {
  ProfileIndex index;
  auto pos = parse_profile("doc_id IN [101, 105]");
  auto neg = parse_profile("NOT doc_id IN [101, 105]");
  pos.value().id = 1;
  neg.value().id = 2;
  ASSERT_TRUE(index.add(std::move(pos).take()));
  ASSERT_TRUE(index.add(std::move(neg).take()));
  // Both forms collapse onto one stored (positive) predicate.
  ASSERT_EQ(index.shared_predicate_count(), 1u);

  // Event touching doc 101: the positive profile matches, the negative
  // must NOT — even though its answer comes from the cached positive.
  MatchStats stats;
  EXPECT_EQ(index.match(EventContext::from(sample_event()), &stats),
            (std::vector<ProfileId>{1}));
  EXPECT_EQ(stats.residual_evals, 1u);
  EXPECT_EQ(stats.predicate_cache_hits, 1u);

  // Event not touching those docs: the answers flip, still one eval.
  Event other = sample_event();
  for (auto& d : other.docs) d.id += 600;
  MatchStats stats2;
  EXPECT_EQ(index.match(EventContext::from(other), &stats2),
            (std::vector<ProfileId>{2}));
  EXPECT_EQ(stats2.residual_evals, 1u);
  EXPECT_EQ(stats2.predicate_cache_hits, 1u);
}

TEST(ProfileIndexSharingTest, NegatedQuerySharesMemoWithAndWithoutEngine) {
  ProfileIndex index;
  auto pos = parse_profile("doc ~ \"creator:hinze\"");
  auto neg = parse_profile("NOT doc ~ \"creator:hinze\"");
  pos.value().id = 1;
  neg.value().id = 2;
  ASSERT_TRUE(index.add(std::move(pos).take()));
  ASSERT_TRUE(index.add(std::move(neg).take()));
  ASSERT_EQ(index.shared_predicate_count(), 1u);

  const Event e = sample_event();  // doc 101 has creator "Hinze"

  // Engine-less path: the query predicate scans the event's documents.
  {
    EventContext ctx = EventContext::from(e);
    MatchStats stats;
    EXPECT_EQ(index.match(ctx, &stats), (std::vector<ProfileId>{1}));
    EXPECT_EQ(stats.residual_evals, 1u);
    EXPECT_EQ(stats.predicate_cache_hits, 1u);
  }

  // Engine-backed path (§5): same answers from the inverted index.
  docmodel::Collection coll;
  coll.config.name = "X";
  coll.config.host = "Hamilton";
  coll.config.indexed_attributes = {"title", "creator"};
  for (const auto& d : e.docs) coll.data.add(d);
  retrieval::Engine engine;
  engine.build(coll);
  {
    EventContext ctx = EventContext::from(e);
    ctx.set_engine(&engine);
    MatchStats stats;
    EXPECT_EQ(index.match(ctx, &stats), (std::vector<ProfileId>{1}));
    EXPECT_EQ(stats.residual_evals, 1u);
    EXPECT_EQ(stats.predicate_cache_hits, 1u);
    // Matching the SAME context again: the per-event predicate memo is
    // epoch-invalidated, but the query-result cache still holds the
    // posting list — the re-evaluation becomes a query cache hit.
    MatchStats again;
    EXPECT_EQ(index.match(ctx, &again), (std::vector<ProfileId>{1}));
    EXPECT_EQ(again.residual_evals, 1u);
    EXPECT_GE(again.query_cache_hits, 1u);
  }
}

TEST(ProfileIndexSharingTest, QueryResultCacheSharedAcrossDistinctPredicates) {
  ProfileIndex index;
  // Different attributes make these distinct shared predicates, but they
  // carry the same filter query — the second rides the ctx query cache.
  auto p1 = parse_profile("doc ~ \"creator:hinze\"");
  auto p2 = parse_profile("extra ~ \"creator:hinze\" AND host = hamilton");
  p1.value().id = 1;
  p2.value().id = 2;
  ASSERT_TRUE(index.add(std::move(p1).take()));
  ASSERT_TRUE(index.add(std::move(p2).take()));
  EXPECT_EQ(index.shared_predicate_count(), 2u);

  const Event e = sample_event();
  EventContext ctx = EventContext::from(e);
  MatchStats stats;
  // First-match order: eq-probe candidates (profile 2) precede zero-eq
  // conjunctions (profile 1).
  EXPECT_EQ(index.match(ctx, &stats), (std::vector<ProfileId>{2, 1}));
  EXPECT_EQ(stats.residual_evals, 2u);     // two distinct predicates...
  EXPECT_EQ(stats.query_cache_hits, 1u);   // ...one document scan
}

// ---------- remove/re-add churn: no leaks, no corruption ----------------------

TEST(ProfileIndexChurnTest, TenThousandRemoveReAddCyclesStayBounded) {
  // A fixed catalogue mixing shared eq keys, shared residuals and unique
  // predicates; the population recycles these texts so steady-state
  // resource counts must be flat no matter how much churn happened.
  std::vector<std::string> catalogue;
  for (int i = 0; i < 40; ++i) {
    switch (i % 4) {
      case 0:
        catalogue.push_back("host = hamilton AND doc ~ \"alerting\"");
        break;
      case 1:
        catalogue.push_back("collection = d AND type != collection_deleted");
        break;
      case 2:
        catalogue.push_back("host = h" + std::to_string(i) +
                            " AND doc ~ \"term" + std::to_string(i) + "\"");
        break;
      default:
        catalogue.push_back("creator = c" + std::to_string(i) +
                            " OR host = hamilton");
        break;
    }
  }

  ProfileIndex index;
  struct Entry {
    Profile profile;
    std::size_t slot;  // catalogue slot, so re-adds preserve composition
  };
  std::vector<Entry> oracle;
  ProfileId next_id = 1;
  auto add_from_catalogue = [&](std::size_t slot) {
    auto parsed = parse_profile(catalogue[slot % catalogue.size()]);
    ASSERT_TRUE(parsed.ok());
    parsed.value().id = next_id++;
    oracle.push_back(Entry{parsed.value(), slot % catalogue.size()});
    ASSERT_TRUE(index.add(std::move(parsed).take()));
  };
  for (std::size_t i = 0; i < 200; ++i) add_from_catalogue(i);

  const std::size_t preds0 = index.shared_predicate_count();
  const std::size_t arena0 = index.arena_live_entries();
  const std::size_t conj0 = index.conjunction_count();
  const std::size_t syms0 = index.interned_symbol_count();

  Rng rng{20260806};
  const Event probe = sample_event();
  for (int cycle = 0; cycle < 10000; ++cycle) {
    const std::size_t victim = rng.index(oracle.size());
    const std::size_t slot = oracle[victim].slot;
    ASSERT_TRUE(index.remove(oracle[victim].profile.id));
    oracle.erase(oracle.begin() + static_cast<std::ptrdiff_t>(victim));
    add_from_catalogue(slot);  // same text back, fresh id
    if (cycle % 500 == 0) {
      const EventContext ctx = EventContext::from(probe);
      std::vector<ProfileId> naive;
      for (const Entry& entry : oracle) {
        if (entry.profile.matches(ctx)) naive.push_back(entry.profile.id);
      }
      ASSERT_EQ(sorted(index.match(ctx)), sorted(naive))
          << "cycle=" << cycle;
    }
  }

  // Identical population multiset -> identical live resource counts:
  // churn must not leak shared predicates, postings or conjunction slots.
  EXPECT_EQ(index.profile_count(), 200u);
  EXPECT_EQ(index.shared_predicate_count(), preds0);
  EXPECT_EQ(index.arena_live_entries(), arena0);
  EXPECT_EQ(index.conjunction_count(), conj0);
  // Interning is append-only but bounded by the catalogue's vocabulary.
  EXPECT_EQ(index.interned_symbol_count(), syms0);

  // Drain to a tenth of the population: live postings shrink sharply,
  // which must trip the compaction policy and keep the arena proportional
  // to what is live (policy contract: never more than half dead past the
  // 64-entry floor).
  while (oracle.size() > 20) {
    ASSERT_TRUE(index.remove(oracle.back().profile.id));
    oracle.pop_back();
  }
  EXPECT_GT(index.compaction_count(), 0u);
  EXPECT_LE(index.arena_size(),
            std::max<std::size_t>(63, 2 * index.arena_live_entries()));
  // And the drained index still answers correctly.
  const EventContext ctx = EventContext::from(probe);
  std::vector<ProfileId> naive;
  for (const Entry& entry : oracle) {
    if (entry.profile.matches(ctx)) naive.push_back(entry.profile.id);
  }
  EXPECT_EQ(sorted(index.match(ctx)), sorted(naive));
}

// ---------- property: doc-level EQ / IN / wildcard ---------------------------

// Reference for doc-level EQ, IN and wildcard predicates: the per-event
// index the matcher once built, attribute -> values, holding every
// metadata value lowercased, the raw terms under "text" and the decimal
// ids under "doc_id" (metadata attributes literally named "text" or
// "doc_id" land in the same sets).
using ReferenceDocIndex = std::map<std::string, std::set<std::string>>;

ReferenceDocIndex reference_doc_index(const Event& e) {
  ReferenceDocIndex index;
  for (const Document& d : e.docs) {
    index["doc_id"].insert(std::to_string(d.id));
    for (const auto& [attr, value] : d.metadata.entries()) {
      index[attr].insert(to_lower(value));
    }
    for (const std::string& term : d.terms) index["text"].insert(term);
  }
  return index;
}

bool reference_eval(const Predicate& p, const ReferenceDocIndex& index) {
  bool any = false;
  const auto it = index.find(p.attribute);
  if (it != index.end()) {
    const std::set<std::string>& values = it->second;
    switch (positive_op(p.op)) {
      case Op::kEq:
        any = values.contains(p.value);
        break;
      case Op::kIn:
        any = std::any_of(p.values.begin(), p.values.end(),
                          [&](const std::string& v) {
                            return values.contains(v);
                          });
        break;
      case Op::kWildcard:
        any = std::any_of(values.begin(), values.end(),
                          [&](const std::string& v) {
                            return wildcard_match(p.value, v);
                          });
        break;
      default:
        ADD_FAILURE() << "not a doc-level EQ/IN/wildcard: " << p.str();
    }
  }
  return is_negative_op(p.op) ? !any : any;
}

TEST(DocLevelSemanticsProperty, EvalAgreesWithReferenceIndex) {
  // Attributes repeat within a document, and metadata may use the names
  // "text" and "doc_id" (or differ from a profile's only by case).
  static const std::vector<std::string> attrs{
      "creator", "creator", "title", "text", "doc_id", "Creator", "subject"};
  static const std::vector<std::string> values{
      "Hinze", "hinze", "HINZE", "Smith-Jones", "lee", "", "7", "007",
      "M\xC3\xBCller", "Alerting", "digital library"};
  static const std::vector<std::string> terms{"alerting", "Alerting",
                                              "music", "7", "library"};
  static const std::vector<std::string> pred_attrs{
      "creator", "title", "text", "doc_id", "subject", "Creator"};
  static const std::vector<std::string> pred_values{
      "hinze", "Hinze", "smith-jones", "lee", "", "7", "007", "0", "00",
      "+7", "12", "18446744073709551623", "m\xC3\xBCller", "M\xC3\xBCller",
      "alerting", "Alerting", "music", "digital library"};
  static const std::vector<std::string> patterns{
      "hin*", "*ing", "?usic", "*", "al*ing", "Al*", "m*ller", "*-*", "1?",
      "digital*", ""};
  static const std::vector<Op> ops{Op::kEq,       Op::kNeq, Op::kWildcard,
                                   Op::kNotWildcard, Op::kIn, Op::kNotIn};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng{seed};
    for (int round = 0; round < 40; ++round) {
      Event e;
      e.id = {"Hamilton", static_cast<std::uint64_t>(round) + 1};
      e.collection = {"Hamilton", "D"};
      e.physical_origin = e.collection;
      const int ndocs = static_cast<int>(rng.uniform_int(0, 4));
      for (int i = 0; i < ndocs; ++i) {
        Document d;
        d.id = static_cast<DocumentId>(rng.uniform_int(0, 12));
        const int nmeta = static_cast<int>(rng.uniform_int(0, 5));
        for (int m = 0; m < nmeta; ++m) {
          d.metadata.add(attrs[rng.index(attrs.size())],
                         values[rng.index(values.size())]);
        }
        const int nterms = static_cast<int>(rng.uniform_int(0, 4));
        for (int t = 0; t < nterms; ++t) {
          d.terms.push_back(terms[rng.index(terms.size())]);
        }
        e.docs.push_back(d);
      }
      const EventContext ctx = EventContext::from(e);
      const ReferenceDocIndex index = reference_doc_index(e);
      for (int k = 0; k < 30; ++k) {
        Predicate p;
        p.op = ops[rng.index(ops.size())];
        p.attribute = pred_attrs[rng.index(pred_attrs.size())];
        switch (positive_op(p.op)) {
          case Op::kWildcard:
            p.value = patterns[rng.index(patterns.size())];
            break;
          case Op::kIn: {
            const int n = static_cast<int>(rng.uniform_int(1, 3));
            for (int v = 0; v < n; ++v) {
              p.values.push_back(pred_values[rng.index(pred_values.size())]);
            }
            break;
          }
          default:
            p.value = pred_values[rng.index(pred_values.size())];
        }
        ASSERT_TRUE(p.is_doc_level());
        EXPECT_EQ(p.eval(ctx), reference_eval(p, index))
            << p.str() << " seed=" << seed << " round=" << round;
      }
    }
  }
}

// ---------- property: index == naive, over random profiles/events --------------

struct FuzzParam {
  std::uint64_t seed;
};

class IndexEquivalenceFuzz : public ::testing::TestWithParam<FuzzParam> {};

std::string random_profile_text(Rng& rng) {
  static const std::vector<std::string> hosts{"hamilton", "london", "berlin",
                                              "waikato"};
  static const std::vector<std::string> colls{"a", "b", "c", "d", "e"};
  static const std::vector<std::string> types{
      "collection_built", "collection_rebuilt", "collection_deleted"};
  static const std::vector<std::string> creators{"hinze", "buchanan",
                                                 "smith", "lee"};
  static const std::vector<std::string> terms{"alerting", "retrieval",
                                              "music", "library"};
  auto host = [&rng] { return hosts[rng.index(hosts.size())]; };
  auto ref = [&rng, &host] {
    return host() + "." + colls[rng.index(colls.size())];
  };
  // An equality on macro attribute `attr` (kMacroAttributes order).
  auto macro_eq = [&](std::size_t attr) -> std::string {
    switch (attr) {
      case 0:
        return "host = " + host();
      case 1:
        return "collection = " + colls[rng.index(colls.size())];
      case 2:
        return "ref = " + ref();
      case 3:
        return "type = " + types[rng.index(types.size())];
      case 4:
        return "origin_host = " + host();
      default:
        return "origin_ref = " + ref();
    }
  };
  auto pred = [&]() -> std::string {
    switch (rng.uniform_int(0, 10)) {
      case 0:
      case 1:
      case 2:
        return macro_eq(rng.index(kMacroCount));
      case 3:
        return "creator = " + creators[rng.index(creators.size())];
      case 4:
        return "host = " + host().substr(0, 3) + "*";
      case 5:
        return "collection IN [" + colls[rng.index(colls.size())] + ", " +
               colls[rng.index(colls.size())] + "]";
      case 6:
        // Micro-level filter query against event documents, reusing the
        // retrieval language (§5) — exercises the residual query path.
        return "doc ~ \"creator:" + creators[rng.index(creators.size())] +
               (rng.chance(0.4)
                    ? " OR text:" + terms[rng.index(terms.size())]
                    : "") +
               "\"";
      case 7:
        return "term = " + terms[rng.index(terms.size())];
      case 8:
        return "title = " + terms[rng.index(terms.size())].substr(0, 3) +
               "*";
      case 9:
        return "origin_ref != " + ref();
      default:
        return "doc_id IN [" + std::to_string(rng.uniform_int(100, 110)) +
               "]";
    }
  };
  // 2-3 equalities on different macro attributes, so the access key and
  // the other keys both decide; sometimes one of them is repeated, or
  // contradicted by a second value for the same attribute.
  auto eq_conjunction = [&]() -> std::string {
    std::array<std::size_t, kMacroCount> attrs{0, 1, 2, 3, 4, 5};
    std::shuffle(attrs.begin(), attrs.end(), rng.engine());
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 3));
    std::vector<std::string> preds;
    for (std::size_t i = 0; i < n; ++i) preds.push_back(macro_eq(attrs[i]));
    const double twist = rng.uniform();
    if (twist < 0.2) {
      preds.push_back(preds[rng.index(n)]);  // repeated
    } else if (twist < 0.4) {
      preds.push_back(macro_eq(attrs[rng.index(n)]));  // maybe contradictory
    }
    std::shuffle(preds.begin(), preds.end(), rng.engine());
    std::string text = preds[0];
    for (std::size_t i = 1; i < preds.size(); ++i) text += " AND " + preds[i];
    return text;
  };
  std::string text = rng.chance(0.3) ? eq_conjunction() : pred();
  const int extra = static_cast<int>(rng.uniform_int(0, 3));
  for (int i = 0; i < extra; ++i) {
    const char* conn = rng.chance(0.5) ? " AND " : " OR ";
    std::string next = rng.chance(0.2) ? "(" + eq_conjunction() + ")" : pred();
    if (rng.chance(0.2)) next = "NOT " + next;
    if (rng.chance(0.25)) {
      next = "(" + next + (rng.chance(0.5) ? " OR " : " AND ") + pred() +
             ")";
    }
    text += conn + next;
  }
  return text;
}

// `text` with each letter's case flipped at random: metadata arrives in
// whatever case its collection used, and matching must fold it.
std::string mixed_case(Rng& rng, std::string text) {
  for (char& c : text) {
    if (rng.chance(0.3)) {
      c = static_cast<char>(std::islower(static_cast<unsigned char>(c))
                                ? std::toupper(static_cast<unsigned char>(c))
                                : std::tolower(static_cast<unsigned char>(c)));
    }
  }
  return text;
}

Event random_event(Rng& rng) {
  static const std::vector<std::string> hosts{"Hamilton", "London", "Berlin",
                                              "Waikato"};
  static const std::vector<std::string> colls{"A", "B", "C", "D", "E"};
  static const std::vector<std::string> creators{"hinze", "buchanan",
                                                 "smith", "lee"};
  Event e;
  e.id = {hosts[rng.index(hosts.size())], 1};
  e.type = static_cast<EventType>(rng.uniform_int(1, 3));
  e.collection = {hosts[rng.index(hosts.size())],
                  colls[rng.index(colls.size())]};
  e.physical_origin = e.collection;
  if (rng.chance(0.3)) {
    // Renamed at a super-collection host: the origin attributes name the
    // physical source, often on another host.
    e.physical_origin = {hosts[rng.index(hosts.size())],
                         colls[rng.index(colls.size())]};
    e.via = {e.physical_origin.str()};
  }
  static const std::vector<std::string> terms{"alerting", "retrieval",
                                              "music", "library"};
  const int ndocs = static_cast<int>(rng.uniform_int(0, 3));
  for (int i = 0; i < ndocs; ++i) {
    Document d;
    d.id = static_cast<DocumentId>(rng.uniform_int(100, 110));
    d.metadata.add("creator",
                   mixed_case(rng, creators[rng.index(creators.size())]));
    d.metadata.add("title", mixed_case(rng, terms[rng.index(terms.size())]));
    const int nterms = static_cast<int>(rng.uniform_int(1, 3));
    for (int t = 0; t < nterms; ++t) {
      d.terms.push_back(terms[rng.index(terms.size())]);
    }
    e.docs.push_back(d);
  }
  return e;
}

TEST_P(IndexEquivalenceFuzz, IndexAgreesWithNaiveEvaluation) {
  Rng rng{GetParam().seed};
  std::vector<Profile> profiles;
  ProfileIndex index;
  for (ProfileId id = 1; id <= 200; ++id) {
    auto parsed = parse_profile(random_profile_text(rng));
    ASSERT_TRUE(parsed.ok()) << parsed.error().str();
    parsed.value().id = id;
    profiles.push_back(parsed.value());
    ASSERT_TRUE(index.add(std::move(parsed).take()));
  }
  for (int round = 0; round < 50; ++round) {
    const Event e = random_event(rng);
    const EventContext ctx = EventContext::from(e);
    std::vector<ProfileId> naive;
    for (const Profile& p : profiles) {
      if (p.matches(ctx)) naive.push_back(p.id);
    }
    EXPECT_EQ(sorted(index.match(ctx)), sorted(naive))
        << "seed=" << GetParam().seed << " round=" << round;
  }
}

TEST_P(IndexEquivalenceFuzz, EquivalenceHoldsUnderChurn) {
  Rng rng{GetParam().seed ^ 0xABCDEF};
  std::vector<Profile> profiles;
  ProfileIndex index;
  ProfileId next_id = 1;
  for (int round = 0; round < 30; ++round) {
    // Add a few profiles.
    for (int i = 0; i < 10; ++i) {
      auto parsed = parse_profile(random_profile_text(rng));
      ASSERT_TRUE(parsed.ok());
      parsed.value().id = next_id++;
      profiles.push_back(parsed.value());
      ASSERT_TRUE(index.add(std::move(parsed).take()));
    }
    // Remove a random subset.
    for (int i = 0; i < 4 && !profiles.empty(); ++i) {
      const std::size_t victim = rng.index(profiles.size());
      ASSERT_TRUE(index.remove(profiles[victim].id));
      profiles.erase(profiles.begin() +
                     static_cast<std::ptrdiff_t>(victim));
    }
    const Event e = random_event(rng);
    const EventContext ctx = EventContext::from(e);
    std::vector<ProfileId> naive;
    for (const Profile& p : profiles) {
      if (p.matches(ctx)) naive.push_back(p.id);
    }
    EXPECT_EQ(sorted(index.match(ctx)), sorted(naive)) << "round=" << round;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, IndexEquivalenceFuzz,
    ::testing::Values(FuzzParam{1}, FuzzParam{2}, FuzzParam{3}, FuzzParam{17},
                      FuzzParam{42}, FuzzParam{1337}, FuzzParam{9999},
                      FuzzParam{123456}),
    [](const ::testing::TestParamInfo<FuzzParam>& info) {
      return "seed_" + std::to_string(info.param.seed);
    });

// Replay hook: GSALERT_PROFILES_SEED=<n> re-runs the oracle with the seed
// a failing run printed, so any mismatch is a one-env-var repro. Also
// asserts the generator itself is deterministic (same seed -> same
// profiles and events).
TEST(IndexEquivalenceReplay, EnvSeedReplaysDeterministically) {
  std::uint64_t seed = 7;
  if (const char* env = std::getenv("GSALERT_PROFILES_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  std::vector<std::string> first_texts;
  std::vector<std::vector<ProfileId>> first_matches;
  for (int pass = 0; pass < 2; ++pass) {
    Rng rng{seed};
    std::vector<Profile> profiles;
    ProfileIndex index;
    std::vector<std::string> texts;
    std::vector<std::vector<ProfileId>> matches;
    for (ProfileId id = 1; id <= 120; ++id) {
      texts.push_back(random_profile_text(rng));
      auto parsed = parse_profile(texts.back());
      ASSERT_TRUE(parsed.ok()) << texts.back();
      parsed.value().id = id;
      profiles.push_back(parsed.value());
      ASSERT_TRUE(index.add(std::move(parsed).take()));
    }
    for (int round = 0; round < 30; ++round) {
      const Event e = random_event(rng);
      const EventContext ctx = EventContext::from(e);
      std::vector<ProfileId> naive;
      for (const Profile& p : profiles) {
        if (p.matches(ctx)) naive.push_back(p.id);
      }
      EXPECT_EQ(sorted(index.match(ctx)), sorted(naive))
          << "seed=" << seed << " round=" << round
          << " (replay: GSALERT_PROFILES_SEED=" << seed << ")";
      matches.push_back(std::move(naive));
    }
    if (pass == 0) {
      first_texts = std::move(texts);
      first_matches = std::move(matches);
    } else {
      EXPECT_EQ(first_texts, texts);
      EXPECT_EQ(first_matches, matches);
    }
  }
}

}  // namespace
}  // namespace gsalert::profiles
