// Journal recovery cost: replay time and bytes against log size, with
// and without snapshot + compaction. The durability design note
// (docs/DURABILITY.md) claims recovery is linear in the live log and
// that compaction keeps that log — and therefore restart time — bounded
// no matter how long the node ran. This bench shows both curves: the
// never-compacted journal's recovery grows with total history, the
// compacted one stays flat at snapshot-load + a small tail replay.
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "journal/journal.h"
#include "obs/latency.h"
#include "obs/metrics_registry.h"
#include "sim/storage.h"
#include "wire/codec.h"
#include "workload/metrics.h"

using namespace gsalert;

namespace {

constexpr std::uint8_t kSet = 1;
constexpr std::uint8_t kErase = 2;
constexpr int kKeySpace = 64;  // live state stays small; history grows

/// The toy state machine from journal_test: a string -> u64 map.
struct ToyState {
  std::map<std::string, std::uint64_t> kv;

  void apply(std::uint8_t type, wire::Reader& r) {
    if (type == kSet) {
      std::string key = r.str();
      const std::uint64_t value = r.u64();
      if (r.ok()) kv[key] = value;
    } else if (type == kErase) {
      std::string key = r.str();
      if (r.ok()) kv.erase(key);
    }
  }
  /// The one kSet encoder: live appends and snapshots both use it.
  static void put_set(const journal::RecordSink& out, const std::string& key,
                      std::uint64_t value) {
    out.put(kSet, journal::str_wire(key) + 8, [&](wire::Writer& w) {
      w.str(key);
      w.u64(value);
    });
  }
  /// A snapshot is the kSet records that rebuild `kv`.
  void snapshot(const journal::RecordSink& out) const {
    for (const auto& [key, value] : kv) put_set(out, key, value);
  }
};

/// Write `records` update records, committing in event-sized groups.
void produce(journal::Journal& journal, ToyState& state, int records) {
  Rng rng{static_cast<std::uint64_t>(records) * 31 + 7};
  for (int i = 0; i < records; ++i) {
    const std::string key =
        "key" + std::to_string(rng.uniform_int(0, kKeySpace - 1));
    if (rng.chance(0.2)) {
      journal::RecordSink{&journal}.put(
          kErase, journal::str_wire(key),
          [&](wire::Writer& w) { w.str(key); });
      state.kv.erase(key);
    } else {
      ToyState::put_set(&journal, key, static_cast<std::uint64_t>(i));
      state.kv[key] = static_cast<std::uint64_t>(i);
    }
    if (i % 8 == 7) journal.commit();
  }
  journal.commit();
}

struct Measurement {
  double recover_micros = 0;
  std::uint64_t records_replayed = 0;
  std::uint64_t log_bytes = 0;
  std::uint64_t snapshot_bytes = 0;
  bool snapshot_loaded = false;
};

/// Build a journal of `records` history, then time recovery over it.
/// `compact_threshold` 0 = never compact (pure log replay). When
/// `breakdown` is given, the write side's per-commit fsync cost and the
/// measured recovery times are merged into it.
Measurement measure(int records, std::size_t compact_threshold,
                    obs::LatencyBreakdown* breakdown = nullptr) {
  sim::Storage storage;
  journal::JournalPolicy policy;
  policy.compact_threshold_bytes = compact_threshold;
  ToyState writer_state;
  {
    journal::Journal writer{storage, "bench", "bench-node", policy};
    writer.set_snapshot_writer(
        [&](const journal::RecordSink& out) { writer_state.snapshot(out); });
    produce(writer, writer_state, records);
    if (breakdown != nullptr) breakdown->fsync_us.merge(writer.fsync_us());
  }

  Measurement m;
  m.log_bytes = storage.durable_size("bench.log");
  m.snapshot_bytes = storage.durable_size("bench.snap");
  constexpr int kReps = 5;
  for (int rep = 0; rep < kReps; ++rep) {
    ToyState state;
    journal::Journal reader{storage, "bench", "bench-node", policy};
    const auto t0 = std::chrono::steady_clock::now();
    const journal::RecoveryResult result = reader.recover(
        [&](std::uint8_t type, wire::Reader& r, std::uint64_t /*lsn*/) {
          state.apply(type, r);
        });
    const auto t1 = std::chrono::steady_clock::now();
    m.recover_micros +=
        std::chrono::duration<double, std::micro>(t1 - t0).count() / kReps;
    m.records_replayed = result.records_applied;
    m.snapshot_loaded = result.snapshot_loaded;
    if (state.kv != writer_state.kv) {
      std::fprintf(stderr, "recovered state diverged at %d records\n",
                   records);
      std::exit(1);
    }
  }
  return m;
}

}  // namespace

int main() {
  workload::print_table_header(
      "journal recovery — replay cost vs history length",
      "records      mode  log_bytes  snap_bytes  replayed  recover_us");
  obs::MetricsRegistry reg;
  // No notify pipeline here: "end to end" is restart-to-recovered, which
  // is the latency a crashed node's subscribers actually wait out.
  obs::LatencyBreakdown breakdown;
  bool compaction_bounds_recovery = true;
  double compacted_worst = 0;
  double log_worst = 0;
  for (const int records : {100, 1000, 5000, 20000}) {
    for (const bool compacted : {false, true}) {
      const Measurement m =
          measure(records, compacted ? std::size_t{16 * 1024} : 0,
                  &breakdown);
      breakdown.e2e_ms.record(m.recover_micros / 1000.0);
      const char* mode = compacted ? "snapshot" : "log-only";
      const obs::Labels labels{{"records", std::to_string(records)},
                               {"mode", mode}};
      reg.gauge("bench.recover_micros", labels) = m.recover_micros;
      reg.counter("bench.log_bytes", labels) = m.log_bytes;
      reg.counter("bench.snapshot_bytes", labels) = m.snapshot_bytes;
      reg.counter("bench.records_replayed", labels) = m.records_replayed;
      if (compacted) {
        compacted_worst = std::max(compacted_worst, m.recover_micros);
      } else {
        log_worst = std::max(log_worst, m.recover_micros);
      }
      char row[160];
      std::snprintf(row, sizeof(row), "%7d %9s %10llu %11llu %9llu %11.1f",
                    records, mode,
                    static_cast<unsigned long long>(m.log_bytes),
                    static_cast<unsigned long long>(m.snapshot_bytes),
                    static_cast<unsigned long long>(m.records_replayed),
                    m.recover_micros);
      workload::print_row(row);
    }
  }
  // Shape check, not a timing gate (CI machines vary): with 20k records
  // of history over 64 live keys, the compacted journal must replay far
  // fewer records than the raw log — that is the whole mechanism.
  const Measurement raw = measure(20000, 0);
  const Measurement snap = measure(20000, 16 * 1024);
  compaction_bounds_recovery =
      snap.snapshot_loaded && !raw.snapshot_loaded &&
      snap.records_replayed * 10 < raw.records_replayed &&
      snap.log_bytes * 4 < raw.log_bytes;
  std::printf(
      "\nshape check: compaction bounds recovery (replayed %llu vs %llu "
      "records, log %llu vs %llu bytes): %s\n",
      static_cast<unsigned long long>(snap.records_replayed),
      static_cast<unsigned long long>(raw.records_replayed),
      static_cast<unsigned long long>(snap.log_bytes),
      static_cast<unsigned long long>(raw.log_bytes),
      compaction_bounds_recovery ? "yes" : "NO");
  std::printf("worst recover: log-only %.1fus, snapshot %.1fus\n", log_worst,
              compacted_worst);
  reg.counter("bench.compaction_bounds_recovery") =
      compaction_bounds_recovery ? 1 : 0;
  breakdown.export_to(reg);
  workload::write_bench_json("journal_recovery", reg);
  return compaction_bounds_recovery ? 0 : 1;
}
