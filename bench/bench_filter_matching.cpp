// E9: filtering throughput of the equality-preferred index (paper §5,
// Fabret-style) vs naive per-profile evaluation, swept over the profile
// population. Shape target: the index wins by orders of magnitude at
// scale because equality hash-joins prune almost all conjunctions.
//
// Ablation: BM_IndexMatch vs BM_NaiveMatch is precisely "predicate index
// on/off" from DESIGN.md §3.
//
// Sharing-ratio sweep (BM_SharedQueryMatch): a population where a
// `dup` fraction of subscribers watch one of a handful of popular
// filter queries — the workload the predicate-sharing layer targets
// (matching cost should scale with *distinct* predicates, not
// subscribers). Args are (profiles, duplicate-query percent).
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <vector>

#include "common/rng.h"
#include "docmodel/event.h"
#include "obs/latency.h"
#include "obs/metrics_registry.h"
#include "profiles/event_context.h"
#include "profiles/index.h"
#include "profiles/parser.h"
#include "workload/generators.h"
#include "workload/metrics.h"

using namespace gsalert;

namespace {

struct MatchWorld {
  std::vector<profiles::Profile> population;
  profiles::ProfileIndex index;
  std::vector<docmodel::Event> events;

  explicit MatchWorld(int n_profiles) {
    Rng rng{42};
    workload::ProfileGen pgen{rng};
    std::vector<std::string> hosts;
    std::vector<CollectionRef> colls;
    std::vector<workload::MetadataSchema> schemas;
    // A population shaped like the public Greenstone server list: many
    // hosts, several collections each, zipf-skewed user interest.
    for (int h = 0; h < 50; ++h) {
      hosts.push_back("Host" + std::to_string(h));
      schemas.push_back(workload::MetadataSchema::for_host(hosts.back(), 42));
      for (int c = 0; c < 10; ++c) {
        std::string name = "C";
        name += std::to_string(c);
        colls.push_back(CollectionRef{hosts.back(), std::move(name)});
      }
    }
    for (int i = 0; i < n_profiles; ++i) {
      auto parsed =
          profiles::parse_profile(pgen.make_profile(hosts, colls, schemas));
      parsed.value().id = static_cast<profiles::ProfileId>(i + 1);
      population.push_back(parsed.value());
      (void)index.add(std::move(parsed).take());
    }
    // A stream of events over the same hosts/collections.
    workload::CollectionGenConfig cconf;
    for (int e = 0; e < 64; ++e) {
      const std::size_t h = rng.index(hosts.size());
      workload::CollectionGen cgen{rng, schemas[h], cconf};
      docmodel::Event event;
      event.id = {hosts[h], static_cast<std::uint64_t>(e)};
      event.type = docmodel::EventType::kCollectionRebuilt;
      std::string coll = "C";
      coll += std::to_string(rng.uniform_int(0, 9));
      event.collection = CollectionRef{hosts[h], std::move(coll)};
      event.physical_origin = event.collection;
      event.build_version = 2;
      for (int d = 0; d < 3; ++d) {
        event.docs.push_back(
            cgen.make_document(static_cast<DocumentId>(e * 10 + d)));
      }
      events.push_back(std::move(event));
    }
  }
};

void BM_IndexMatch(benchmark::State& state) {
  MatchWorld world{static_cast<int>(state.range(0))};
  std::size_t e = 0;
  std::size_t total = 0;
  for (auto _ : state) {
    const profiles::EventContext ctx =
        profiles::EventContext::from(world.events[e]);
    auto hits = world.index.match(ctx);
    total += hits.size();
    benchmark::DoNotOptimize(hits);
    e = (e + 1) % world.events.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["matches/event"] =
      static_cast<double>(total) / static_cast<double>(state.iterations());
}

void BM_NaiveMatch(benchmark::State& state) {
  MatchWorld world{static_cast<int>(state.range(0))};
  std::size_t e = 0;
  std::size_t total = 0;
  for (auto _ : state) {
    const profiles::EventContext ctx =
        profiles::EventContext::from(world.events[e]);
    std::vector<profiles::ProfileId> hits;
    for (const auto& p : world.population) {
      if (p.matches(ctx)) hits.push_back(p.id);
    }
    total += hits.size();
    benchmark::DoNotOptimize(hits);
    e = (e + 1) % world.events.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["matches/event"] =
      static_cast<double>(total) / static_cast<double>(state.iterations());
}

// --- sharing-ratio sweep ----------------------------------------------------
//
// Every profile is "type != collection_deleted AND doc ~ <Q>": the type
// rider is a residual every subscriber shares, and Q is either one of 8
// popular queries (probability dup%) or a long-tail personal query.
// Equality pruning cannot help (no hashable equality), so the whole
// population reaches residual evaluation on every event — the worst case
// the ISSUE's predicate-sharing layer is built for.
struct SharedQueryWorld {
  std::vector<profiles::Profile> population;
  profiles::ProfileIndex index;
  std::vector<docmodel::Event> events;

  SharedQueryWorld(int n_profiles, int dup_pct) {
    Rng rng{4242};
    const std::vector<std::string> pool = {
        "text:term1 OR text:term2", "text:term3",
        "title:title-alpha0",       "creator:creator-beta1",
        "text:term5 AND text:term1", "text:term8",
        "title:title-gamma2 OR text:term4", "text:term13"};
    for (int i = 0; i < n_profiles; ++i) {
      std::string query;
      if (rng.chance(static_cast<double>(dup_pct) / 100.0)) {
        query = pool[rng.index(pool.size())];
      } else {
        // Long-tail personal query, unique per subscriber.
        query = "creator:u" + std::to_string(i);
      }
      auto parsed = profiles::parse_profile(
          "type != collection_deleted AND doc ~ \"" + query + "\"");
      parsed.value().id = static_cast<profiles::ProfileId>(i + 1);
      population.push_back(parsed.value());
      (void)index.add(std::move(parsed).take());
    }
    workload::MetadataSchema schema =
        workload::MetadataSchema::for_host("Host0", 42);
    workload::CollectionGenConfig cconf;
    for (int e = 0; e < 32; ++e) {
      workload::CollectionGen cgen{rng, schema, cconf};
      docmodel::Event event;
      event.id = {"Host0", static_cast<std::uint64_t>(e)};
      event.type = docmodel::EventType::kCollectionRebuilt;
      event.collection = CollectionRef{"Host0", "C0"};
      event.physical_origin = event.collection;
      event.build_version = 2;
      for (int d = 0; d < 3; ++d) {
        event.docs.push_back(
            cgen.make_document(static_cast<DocumentId>(e * 10 + d)));
      }
      events.push_back(std::move(event));
    }
  }
};

void report_match_stats(benchmark::State& state,
                        const profiles::MatchStats& stats, std::size_t total) {
  const double iters = static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations());
  state.counters["matches/event"] = static_cast<double>(total) / iters;
  state.counters["candidates/event"] =
      static_cast<double>(stats.candidates) / iters;
  state.counters["residual_evals/event"] =
      static_cast<double>(stats.residual_evals) / iters;
  state.counters["predicate_cache_hits/event"] =
      static_cast<double>(stats.predicate_cache_hits) / iters;
  state.counters["query_cache_hits/event"] =
      static_cast<double>(stats.query_cache_hits) / iters;
  state.counters["distinct_residuals"] =
      static_cast<double>(stats.distinct_residuals);
  state.counters["eq_probe_string_hashes"] =
      static_cast<double>(stats.eq_probe_string_hashes);
}

void BM_SharedQueryMatch(benchmark::State& state) {
  SharedQueryWorld world{static_cast<int>(state.range(0)),
                         static_cast<int>(state.range(1))};
  std::size_t e = 0;
  std::size_t total = 0;
  profiles::MatchStats stats;
  for (auto _ : state) {
    const profiles::EventContext ctx =
        profiles::EventContext::from(world.events[e]);
    auto hits = world.index.match(ctx, &stats);
    total += hits.size();
    benchmark::DoNotOptimize(hits);
    e = (e + 1) % world.events.size();
  }
  report_match_stats(state, stats, total);
}

void BM_SharedQueryNaive(benchmark::State& state) {
  SharedQueryWorld world{static_cast<int>(state.range(0)),
                         static_cast<int>(state.range(1))};
  std::size_t e = 0;
  std::size_t total = 0;
  for (auto _ : state) {
    const profiles::EventContext ctx =
        profiles::EventContext::from(world.events[e]);
    std::vector<profiles::ProfileId> hits;
    for (const auto& p : world.population) {
      if (p.matches(ctx)) hits.push_back(p.id);
    }
    total += hits.size();
    benchmark::DoNotOptimize(hits);
    e = (e + 1) % world.events.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["matches/event"] =
      static_cast<double>(total) / static_cast<double>(state.iterations());
}

}  // namespace

BENCHMARK(BM_IndexMatch)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_NaiveMatch)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_SharedQueryMatch)
    ->Args({1000, 0})
    ->Args({1000, 50})
    ->Args({1000, 90})
    ->Args({10000, 0})
    ->Args({10000, 50})
    ->Args({10000, 90})
    ->Args({100000, 0})
    ->Args({100000, 50})
    ->Args({100000, 90});
BENCHMARK(BM_SharedQueryNaive)->Args({10000, 90});

namespace {

// Canonical BENCH_filter_matching.json with the latency.* schema every
// bench ships (the raw google-benchmark report goes to GBENCH_*.json).
// e2e for this CPU-only bench IS per-event match time, measured over a
// fixed-seed pass so the sentinel has a stable baseline.
void write_canonical_json() {
  obs::MetricsRegistry reg;
  obs::LatencyBreakdown breakdown;
  MatchWorld world{10000};
  constexpr int kReps = 8;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const docmodel::Event& event : world.events) {
      const profiles::EventContext ctx =
          profiles::EventContext::from(event);
      const auto t0 = std::chrono::steady_clock::now();
      auto hits = world.index.match(ctx);
      const auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(hits);
      const double us =
          std::chrono::duration<double, std::micro>(t1 - t0).count();
      breakdown.match_cpu_us.record(us);
      breakdown.e2e_ms.record(us / 1000.0);
    }
  }
  breakdown.export_to(reg);
  workload::write_bench_json("filter_matching", reg);
}

}  // namespace

// Like BENCHMARK_MAIN(), but defaults --benchmark_out to
// GBENCH_filter_matching.json (the raw google-benchmark report) and
// always writes the canonical BENCH_filter_matching.json afterwards. An
// explicit --benchmark_out on the command line wins.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=GBENCH_filter_matching.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_canonical_json();
  return 0;
}
