// Write-ahead journal unit tests: record round-trips, group commit and
// crash visibility, snapshot + compaction equivalence, amortized
// compaction (snapshot writes bounded by log appends, across restarts),
// CRC rejection, CRC32C known answers, recovery idempotence — and the
// torn-write corpus: the durable log truncated at EVERY byte offset and
// flipped at EVERY bit, with recovery required to (a) never crash,
// (b) recover exactly the longest valid record prefix, and (c) never
// resurrect records that were not durable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "journal/crc32c.h"
#include "journal/journal.h"
#include "sim/storage.h"
#include "wire/codec.h"

namespace gsalert::journal {
namespace {

constexpr std::uint8_t kSet = 1;
constexpr std::uint8_t kErase = 2;

/// Toy replayable state machine over the journal: a string -> u64 map.
struct ToyState {
  std::map<std::string, std::uint64_t> kv;

  /// The one kSet encoder: live appends and snapshots both use it.
  static void put_set(const RecordSink& out, const std::string& key,
                      std::uint64_t value) {
    out.put(kSet, str_wire(key) + 8, [&](wire::Writer& w) {
      w.str(key);
      w.u64(value);
    });
  }

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

  /// A snapshot is the kSet records that rebuild `kv`.
  void snapshot(const RecordSink& out) const {
    for (const auto& [key, value] : kv) put_set(out, key, value);
  }
};

/// Harness pairing a Journal with a ToyState.
struct Toy {
  sim::Storage& storage;
  JournalPolicy policy;
  Journal journal;
  ToyState state;

  Toy(sim::Storage& s, JournalPolicy p = {})
      : storage(s), policy(p), journal(s, "toy", "test-node", p) {
    journal.set_snapshot_writer(
        [this](const RecordSink& out) { state.snapshot(out); });
  }

  void set(const std::string& key, std::uint64_t value) {
    ToyState::put_set(&journal, key, value);
    state.kv[key] = value;
  }

  void erase(const std::string& key) {
    RecordSink{&journal}.put(kErase, str_wire(key),
                             [&](wire::Writer& w) { w.str(key); });
    state.kv.erase(key);
  }

  RecoveryResult recover() {
    return journal.recover(
        [this](std::uint8_t type, wire::Reader& r, std::uint64_t /*lsn*/) {
          state.apply(type, r);
        });
  }
};

/// Copy of the durable log image (recovery only ever sees durable bytes).
std::vector<std::byte> durable_log(const sim::Storage& storage,
                                   const std::string& file) {
  const auto span = storage.read(file);
  return {span.begin(), span.end()};
}

/// Fresh storage holding `image` as the durable contents of `file`.
void install_log(sim::Storage& storage, const std::string& file,
                 std::span<const std::byte> image) {
  storage.append(file, image);
  storage.flush(file);
}

TEST(Journal, RoundTripReplaysCommittedRecords) {
  sim::Storage storage;
  {
    Toy writer{storage};
    writer.set("alpha", 1);
    writer.set("beta", 2);
    writer.erase("alpha");
    writer.set("gamma", 3);
    writer.journal.commit();
  }
  Toy reader{storage};
  const RecoveryResult result = reader.recover();
  EXPECT_FALSE(result.snapshot_loaded);
  EXPECT_EQ(result.records_applied, 4u);
  EXPECT_EQ(result.torn_bytes_dropped, 0u);
  const std::map<std::string, std::uint64_t> want{{"beta", 2}, {"gamma", 3}};
  EXPECT_EQ(reader.state.kv, want);
  // Lsns continue past what was recovered — never reused.
  EXPECT_EQ(reader.journal.next_lsn(), 5u);
}

TEST(Journal, UncommittedRecordsDoNotSurviveCrash) {
  sim::Storage storage;
  Rng rng{7};
  {
    Toy writer{storage};
    writer.set("durable", 1);
    writer.journal.commit();
    writer.set("volatile", 2);  // appended, never committed
  }
  storage.on_crash(rng, sim::StorageFaults{});  // honest fsync: tail gone
  Toy reader{storage};
  reader.recover();
  const std::map<std::string, std::uint64_t> want{{"durable", 1}};
  EXPECT_EQ(reader.state.kv, want)
      << "an unacked (uncommitted) record was resurrected";
}

TEST(Journal, SnapshotCompactionEquivalence) {
  // The same operation sequence through an aggressively compacting
  // journal and a never-compacting one must recover identical state.
  sim::Storage compacting_storage;
  sim::Storage plain_storage;
  JournalPolicy tiny;
  tiny.compact_threshold_bytes = 64;  // compact almost every commit
  JournalPolicy never;
  never.compact_threshold_bytes = 0;
  {
    Toy compacting{compacting_storage, tiny};
    Toy plain{plain_storage, never};
    Rng rng{42};
    for (int i = 0; i < 200; ++i) {
      std::string key = "k";
      key += std::to_string(rng.uniform_int(0, 12));
      if (rng.chance(0.25)) {
        compacting.erase(key);
        plain.erase(key);
      } else {
        const auto value = static_cast<std::uint64_t>(i);
        compacting.set(key, value);
        plain.set(key, value);
      }
      if (i % 3 == 0) {
        compacting.journal.commit();
        plain.journal.commit();
      }
    }
    compacting.journal.commit();
    plain.journal.commit();
    EXPECT_GT(compacting.journal.stats().compactions, 0u);
    EXPECT_EQ(plain.journal.stats().compactions, 0u);
    // Compaction's whole point: the log stays near the threshold.
    EXPECT_LT(compacting.journal.log_bytes(), 4u * 64u + 256u);
    EXPECT_GT(plain.journal.log_bytes(), compacting.journal.log_bytes());
  }
  Toy a{compacting_storage, tiny};
  Toy b{plain_storage, never};
  const RecoveryResult ra = a.recover();
  const RecoveryResult rb = b.recover();
  EXPECT_TRUE(ra.snapshot_loaded);
  EXPECT_FALSE(rb.snapshot_loaded);
  EXPECT_EQ(a.state.kv, b.state.kv);
}

TEST(Journal, RejectsCorruptTrailingRecords) {
  sim::Storage storage;
  {
    Toy writer{storage};
    writer.set("good", 1);
    writer.journal.commit();
  }
  // Garbage appended after the valid records (a torn multi-record write
  // whose tail is junk) must be dropped and truncated away.
  const std::vector<std::byte> junk(13, std::byte{0xA5});
  install_log(storage, "toy.log", junk);
  Toy reader{storage};
  const RecoveryResult result = reader.recover();
  EXPECT_EQ(result.records_applied, 1u);
  EXPECT_EQ(result.torn_bytes_dropped, junk.size());
  const std::map<std::string, std::uint64_t> want{{"good", 1}};
  EXPECT_EQ(reader.state.kv, want);
  // The tail was repaired: appends after recovery commit cleanly.
  reader.set("after", 2);
  reader.journal.commit();
  Toy again{storage};
  again.recover();
  EXPECT_EQ(again.state.kv.at("after"), 2u);
}

TEST(Journal, RecoveryIsIdempotent) {
  sim::Storage storage;
  {
    Toy writer{storage, [] {
                 JournalPolicy p;
                 p.compact_threshold_bytes = 96;
                 return p;
               }()};
    for (int i = 0; i < 40; ++i) {
      writer.set("key" + std::to_string(i % 5),
                 static_cast<std::uint64_t>(i));
      writer.journal.commit();
    }
  }
  Toy first{storage};
  const RecoveryResult r1 = first.recover();
  const auto state1 = first.state.kv;

  Toy second{storage};
  const RecoveryResult r2 = second.recover();
  EXPECT_EQ(state1, second.state.kv);
  EXPECT_EQ(r1.snapshot_loaded, r2.snapshot_loaded);
  EXPECT_EQ(r1.snapshot_lsn, r2.snapshot_lsn);
  EXPECT_EQ(r1.last_lsn, r2.last_lsn);
  EXPECT_EQ(r1.records_applied, r2.records_applied);
  EXPECT_EQ(r1.records_skipped, r2.records_skipped);
}

TEST(Journal, StraySnapshotTmpIsIgnoredAndDeleted) {
  sim::Storage storage;
  {
    Toy writer{storage};
    writer.set("x", 1);
    writer.journal.commit();
  }
  // A crash mid-compaction can leave a half-written scratch snapshot.
  const std::vector<std::byte> junk(21, std::byte{0x5A});
  install_log(storage, "toy.snap.tmp", junk);
  Toy reader{storage};
  reader.recover();
  EXPECT_EQ(reader.state.kv.at("x"), 1u);
  EXPECT_FALSE(storage.exists("toy.snap.tmp"));
}

TEST(Journal, CorruptSnapshotFallsBackToLog) {
  sim::Storage storage;
  {
    Toy writer{storage};
    writer.set("a", 1);
    writer.journal.commit();
    writer.journal.compact();
    writer.set("b", 2);
    writer.journal.commit();
  }
  // Flip one bit in the snapshot: its CRC must reject it, and recovery
  // must still come back up on whatever the log alone provides — without
  // crashing and without inventing state.
  auto snap = durable_log(storage, "toy.snap");
  ASSERT_FALSE(snap.empty());
  snap[snap.size() / 2] ^= std::byte{0x10};
  sim::Storage corrupted;
  install_log(corrupted, "toy.snap", snap);
  install_log(corrupted, "toy.log", durable_log(storage, "toy.log"));
  Toy reader{corrupted};
  const RecoveryResult result = reader.recover();
  EXPECT_FALSE(result.snapshot_loaded);
  // "a" lived only in the snapshot (the log was truncated behind it);
  // media corruption may lose it, but post-snapshot records still replay.
  EXPECT_EQ(reader.state.kv.count("b"), 1u);
  EXPECT_EQ(reader.state.kv.count("a"), 0u);
}

// --- amortized compaction ---------------------------------------------------

// Live state that keeps growing must not be rewritten every floor's worth
// of log: each snapshot waits for at least its own size in appended log,
// so snapshot bytes written stay linear in log bytes appended (a fixed
// trigger makes them quadratic in live state).
TEST(JournalCompaction, SnapshotWritesAreAmortizedOverAppendedLog) {
  sim::Storage storage;
  Toy toy{storage};  // default policy: the 64 KiB floor
  const std::size_t floor = toy.policy.compact_threshold_bytes;
  const JournalStats& stats = toy.journal.stats();
  std::uint64_t snapshot_bytes_written = 0;
  std::uint64_t compactions_seen = 0;
  for (int i = 0; i < 100000; ++i) {
    toy.set("key" + std::to_string(i), static_cast<std::uint64_t>(i));
    const std::size_t one_commit = toy.journal.pending_bytes();
    ASSERT_LE(toy.journal.log_bytes(),
              std::max(floor, storage.durable_size("toy.snap")) + one_commit)
        << "record " << i << ": the log outgrew max(floor, snapshot)";
    toy.journal.commit();
    if (stats.compactions > compactions_seen) {
      compactions_seen = stats.compactions;
      snapshot_bytes_written += stats.snapshot_bytes;
    }
  }
  EXPECT_GT(stats.compactions, 1u);
  EXPECT_LE(snapshot_bytes_written, 2 * stats.bytes_appended + floor)
      << stats.compactions << " compactions rewrote the snapshot";
}

// The trigger reads the snapshot already on storage, so it survives a
// restart: a node recovering over a snapshot larger than the floor waits
// for a snapshot-sized log before rewriting it.
TEST(JournalCompaction, RecoveredSnapshotSizeSetsTheNextTrigger) {
  sim::Storage storage;
  std::map<std::string, std::uint64_t> acked;
  {
    Toy writer{storage};
    for (int i = 0; i < 5000; ++i) {
      writer.set("key" + std::to_string(i), static_cast<std::uint64_t>(i));
    }
    writer.journal.compact();
    writer.set("tail", 1);
    writer.journal.commit();
    acked = writer.state.kv;
  }
  Rng rng{5};
  storage.on_crash(rng, sim::StorageFaults{});
  const std::size_t snap = storage.durable_size("toy.snap");
  ASSERT_GT(snap, JournalPolicy{}.compact_threshold_bytes);

  Toy toy{storage};
  ASSERT_TRUE(toy.recover().snapshot_loaded);
  EXPECT_EQ(toy.state.kv, acked);
  std::size_t log_at_compaction = 0;
  for (int i = 0; toy.journal.stats().compactions == 0; ++i) {
    ASSERT_LT(storage.durable_size("toy.log"), snap)
        << "the log outgrew the recovered snapshot without compacting";
    toy.set("new" + std::to_string(i), static_cast<std::uint64_t>(i));
    log_at_compaction = toy.journal.log_bytes();
    toy.journal.commit();
  }
  EXPECT_GE(log_at_compaction, snap)
      << "compacted before the log reached the recovered snapshot's size";
}

// --- CRC32C -----------------------------------------------------------------

/// Bit-at-a-time CRC32C, independent of the library's lookup tables.
std::uint32_t reference_crc32c(std::span<const std::byte> bytes) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::byte b : bytes) {
    crc ^= static_cast<std::uint32_t>(b);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return ~crc;
}

// RFC 3720 §B.4 test vectors, plus the classic "123456789" check value.
TEST(Crc32c, KnownAnswers) {
  const auto ascii = [](std::string_view s) {
    std::vector<std::byte> out;
    for (const char c : s) out.push_back(static_cast<std::byte>(c));
    return out;
  };
  std::vector<std::byte> ascending(32);
  std::vector<std::byte> descending(32);
  for (std::size_t i = 0; i < 32; ++i) {
    ascending[i] = static_cast<std::byte>(i);
    descending[i] = static_cast<std::byte>(31 - i);
  }
  const std::vector<std::pair<std::vector<std::byte>, std::uint32_t>> cases{
      {ascii("123456789"), 0xE3069283u},
      {std::vector<std::byte>(32, std::byte{0x00}), 0x8A9136AAu},
      {std::vector<std::byte>(32, std::byte{0xFF}), 0x62A8AB43u},
      {ascending, 0x46DD794Eu},
      {descending, 0x113FDB5Cu},
  };
  for (const auto& [bytes, want] : cases) {
    EXPECT_EQ(crc32c(bytes), want);
    EXPECT_EQ(reference_crc32c(bytes), want);
  }
  // Integer fields fold little-endian, the bytes wire::Writer emits.
  Crc32c fields;
  fields.u32(0x34333231u);          // "1234"
  fields.u64(0x0000003938373635u);  // "56789" then three zero bytes
  Crc32c text;
  text.update(ascii("123456789"));
  text.update(std::vector<std::byte>(3, std::byte{0x00}));
  EXPECT_EQ(fields.value(), text.value());
}

// Streaming updates over every alignment, length and split point agree
// with the reference — the word-at-a-time kernel and its bytewise tail
// must join seamlessly.
TEST(Crc32c, StreamingUpdatesMatchReference) {
  Rng rng{3720};
  std::vector<std::byte> buffer(64 + 300);
  for (auto& b : buffer) b = static_cast<std::byte>(rng.uniform_int(0, 255));
  for (int trial = 0; trial < 5000; ++trial) {
    const auto start = static_cast<std::size_t>(rng.uniform_int(0, 63));
    const auto len = rng.uniform_int(0, 300);
    const auto split = static_cast<std::size_t>(rng.uniform_int(0, len));
    const std::span<const std::byte> data{buffer.data() + start,
                                          static_cast<std::size_t>(len)};
    Crc32c crc;
    crc.update(data.first(split));
    crc.update(data.subspan(split));
    ASSERT_EQ(crc.value(), reference_crc32c(data))
        << "start " << start << " len " << len << " split " << split;
  }
}

// --- torn-write corpus ------------------------------------------------------

struct Corpus {
  std::vector<std::byte> image;          // full durable log
  std::vector<std::size_t> record_ends;  // byte offset after each record
  std::vector<std::uint64_t> lsns;       // lsn of each record, in order
};

Corpus build_corpus() {
  sim::Storage storage;
  Toy writer{storage};
  for (int i = 0; i < 12; ++i) {
    writer.set("key" + std::to_string(i), static_cast<std::uint64_t>(i));
    if (i % 3 == 2) writer.erase("key" + std::to_string(i - 1));
    writer.journal.commit();
  }
  Corpus corpus;
  corpus.image = durable_log(storage, "toy.log");
  std::size_t offset = 0;
  scan_records(corpus.image,
               [&](std::uint8_t /*type*/, std::span<const std::byte> payload,
                   std::uint64_t lsn) {
                 offset += record_wire_size(payload.size());
                 corpus.record_ends.push_back(offset);
                 corpus.lsns.push_back(lsn);
               });
  return corpus;
}

TEST(JournalTornCorpus, EveryTruncationRecoversLongestValidPrefix) {
  const Corpus corpus = build_corpus();
  ASSERT_GT(corpus.record_ends.size(), 4u);
  for (std::size_t cut = 0; cut <= corpus.image.size(); ++cut) {
    // Complete records entirely below the cut survive; everything after
    // (a record torn mid-frame) must be dropped, never resurrected.
    std::size_t want = 0;
    while (want < corpus.record_ends.size() &&
           corpus.record_ends[want] <= cut) {
      ++want;
    }
    sim::Storage storage;
    install_log(storage, "toy.log",
                std::span<const std::byte>{corpus.image.data(), cut});
    Toy reader{storage};
    std::vector<std::uint64_t> replayed;
    const RecoveryResult result = reader.journal.recover(
        [&](std::uint8_t type, wire::Reader& r, std::uint64_t lsn) {
          replayed.push_back(lsn);
          reader.state.apply(type, r);
        });
    ASSERT_EQ(result.records_applied, want) << "cut at byte " << cut;
    ASSERT_EQ(replayed.size(), want) << "cut at byte " << cut;
    for (std::size_t i = 0; i < want; ++i) {
      ASSERT_EQ(replayed[i], corpus.lsns[i]) << "cut at byte " << cut;
    }
    // The torn tail is truncated: the durable log is exactly the prefix.
    ASSERT_EQ(storage.durable_size("toy.log"),
              want == 0 ? 0 : corpus.record_ends[want - 1])
        << "cut at byte " << cut;
  }
}

TEST(JournalTornCorpus, EveryBitFlipRecoversAPrefixWithoutCrashing) {
  const Corpus corpus = build_corpus();
  for (std::size_t byte = 0; byte < corpus.image.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto image = corpus.image;
      image[byte] ^= std::byte{static_cast<unsigned char>(1 << bit)};
      sim::Storage storage;
      install_log(storage, "toy.log", image);
      Toy reader{storage};
      std::vector<std::uint64_t> replayed;
      reader.journal.recover(
          [&](std::uint8_t type, wire::Reader& r, std::uint64_t lsn) {
            replayed.push_back(lsn);
            reader.state.apply(type, r);
          });
      // CRC32C detects every single-bit error, so the record containing
      // the flipped byte cannot replay; recovery stops at or before it.
      std::size_t flipped_record = 0;
      while (flipped_record < corpus.record_ends.size() &&
             corpus.record_ends[flipped_record] <= byte) {
        ++flipped_record;
      }
      ASSERT_LE(replayed.size(), flipped_record)
          << "byte " << byte << " bit " << bit
          << ": a corrupted record replayed anyway";
      // And what did replay is an exact prefix — no skips, no inventions.
      for (std::size_t i = 0; i < replayed.size(); ++i) {
        ASSERT_EQ(replayed[i], corpus.lsns[i])
            << "byte " << byte << " bit " << bit;
      }
    }
  }
}

TEST(JournalTornCorpus, TornStorageCrashNeverBreaksRecovery) {
  // End to end through the storage fault model: write, crash with a
  // lying fsync, recover, write again — across many seeds, recovery must
  // always succeed and never resurrect an uncommitted record.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng{seed};
    sim::Storage storage;
    sim::StorageFaults faults;
    faults.torn_write = 1.0;
    faults.bit_flip = 0.5;
    std::uint64_t next_value = 1;
    for (int round = 0; round < 4; ++round) {
      Toy toy{storage};
      toy.recover();
      for (const auto& [key, value] : toy.state.kv) {
        // No invented state: every recovered value was actually appended.
        // (A torn append may legally land a pending record in full — an
        // unfsynced write reaching the platter — so `<= committed` would
        // be too strict here; the honest-fsync test covers that bound.)
        ASSERT_LT(value, next_value)
            << "seed " << seed << " round " << round
            << " recovered a value never written to " << key;
      }
      for (int i = 0; i < 6; ++i) {
        std::string key = "k";
        key += std::to_string(next_value % 7);
        toy.set(key, next_value);
        ++next_value;
      }
      toy.journal.commit();
      toy.set("torn", next_value);  // pending at crash time
      ++next_value;
      storage.on_crash(rng, faults);
    }
  }
}

// scan_records is total on arbitrary input (also fuzzed in fuzz_test).
TEST(JournalScan, ArbitraryBytesNeverMatchAsRecords) {
  Rng rng{99};
  for (int i = 0; i < 200; ++i) {
    std::vector<std::byte> junk(
        static_cast<std::size_t>(rng.uniform_int(0, 64)));
    for (auto& b : junk) {
      b = static_cast<std::byte>(rng.uniform_int(0, 255));
    }
    const ScanResult result = scan_records(junk);
    // A CRC-framed record surviving 0..64 random bytes is ~2^-32 — treat
    // any hit as a framing bug.
    EXPECT_EQ(result.records, 0u);
    EXPECT_EQ(result.valid_bytes, 0u);
  }
}

// --- sim::Storage against a reference model ----------------------------------

/// Reference model of sim::Storage: each file as two vectors, the durable
/// image and the pending tail, with crash faults drawn in the same order.
/// Storage keeps one buffer and a durable watermark per file instead; the
/// model pins down the semantics that layout must keep.
struct StorageModel {
  struct File {
    std::vector<std::byte> durable;
    std::vector<std::byte> pending;
    std::size_t last_flush_bytes = 0;
  };

  void append(const std::string& file, std::span<const std::byte> bytes) {
    File& f = files[file];
    f.pending.insert(f.pending.end(), bytes.begin(), bytes.end());
    stats.appends += 1;
    stats.bytes_appended += bytes.size();
  }

  void flush(const std::string& file) {
    const auto it = files.find(file);
    if (it == files.end() || it->second.pending.empty()) return;
    File& f = it->second;
    f.last_flush_bytes = f.pending.size();
    stats.flushes += 1;
    stats.bytes_flushed += f.pending.size();
    f.durable.insert(f.durable.end(), f.pending.begin(), f.pending.end());
    f.pending.clear();
  }

  void truncate(const std::string& file, std::size_t n) {
    const auto it = files.find(file);
    if (it == files.end()) return;
    File& f = it->second;
    if (f.durable.size() > n) f.durable.resize(n);
    f.pending.clear();
    f.last_flush_bytes = 0;
  }

  void rename(const std::string& from, const std::string& to) {
    const auto it = files.find(from);
    if (it == files.end()) return;
    File moved = std::move(it->second);
    files.erase(it);
    files[to] = std::move(moved);
    stats.renames += 1;
  }

  void remove(const std::string& file) { files.erase(file); }

  void on_crash(Rng& rng, const sim::StorageFaults& faults) {
    stats.crashes += 1;
    for (auto& [name, f] : files) {
      bool torn = false;
      if (!f.pending.empty()) {
        std::size_t kept = 0;
        if (faults.torn_write > 0.0 && rng.chance(faults.torn_write)) {
          kept = static_cast<std::size_t>(rng.uniform_int(
              1, static_cast<std::int64_t>(f.pending.size())));
          f.durable.insert(
              f.durable.end(), f.pending.begin(),
              f.pending.begin() + static_cast<std::ptrdiff_t>(kept));
          stats.torn_bytes_kept += kept;
          torn = true;
        }
        stats.pending_bytes_lost += f.pending.size() - kept;
        f.pending.clear();
      }
      if (faults.torn_write > 0.0 && f.last_flush_bytes > 0 &&
          rng.chance(faults.torn_write)) {
        const std::size_t lost = static_cast<std::size_t>(rng.uniform_int(
            1, static_cast<std::int64_t>(
                   std::min(f.last_flush_bytes, f.durable.size()))));
        f.durable.resize(f.durable.size() - lost);
        stats.torn_bytes_lost += lost;
        torn = true;
      }
      if (torn && !f.durable.empty() && faults.bit_flip > 0.0 &&
          rng.chance(faults.bit_flip)) {
        const std::size_t window = std::min<std::size_t>(64, f.durable.size());
        const std::size_t at = f.durable.size() - window + rng.index(window);
        const int bit = static_cast<int>(rng.index(8));
        f.durable[at] ^= static_cast<std::byte>(1u << bit);
        stats.bit_flips += 1;
      }
      f.last_flush_bytes = 0;
    }
  }

  std::map<std::string, File> files;
  sim::StorageStats stats;
};

std::vector<std::uint64_t> stat_fields(const sim::StorageStats& s) {
  return {s.appends,        s.bytes_appended,     s.flushes,
          s.bytes_flushed,  s.renames,            s.crashes,
          s.pending_bytes_lost, s.torn_bytes_lost, s.torn_bytes_kept,
          s.bit_flips};
}

// A seeded random sequence of every Storage operation, with torn writes
// and bit flips raised, must leave Storage indistinguishable from the
// model after each step: the same durable bytes, durable and pending
// sizes, files and stats, and the same next Rng draw (so every fault
// draw stayed aligned).
TEST(StorageModelTest, OneBufferStorageMatchesTwoVectorModel) {
  const sim::StorageFaults faults{.torn_write = 0.5, .bit_flip = 0.5};
  const std::vector<std::string> names{"a.log", "a.snap", "b"};
  std::uint64_t crashes = 0;
  std::uint64_t bit_flips = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng ops{seed};
    Rng storage_rng{seed * 7919};
    Rng model_rng{seed * 7919};
    sim::Storage storage;
    StorageModel model;
    for (int step = 0; step < 300; ++step) {
      const std::string& file = names[ops.index(names.size())];
      switch (ops.uniform_int(0, 6)) {
        case 0:
        case 1: {
          std::vector<std::byte> bytes(ops.index(48));
          for (std::byte& b : bytes) {
            b = static_cast<std::byte>(ops.uniform_int(0, 255));
          }
          storage.append(file, bytes);
          model.append(file, bytes);
          break;
        }
        case 2:
          storage.flush(file);
          model.flush(file);
          break;
        case 3: {
          const auto it = model.files.find(file);
          const std::size_t size =
              it == model.files.end() ? 0 : it->second.durable.size();
          const std::size_t n = ops.index(size + 8);
          storage.truncate(file, n);
          model.truncate(file, n);
          break;
        }
        case 4: {
          const std::string& to = names[ops.index(names.size())];
          storage.rename(file, to);
          model.rename(file, to);
          break;
        }
        case 5:
          storage.remove(file);
          model.remove(file);
          break;
        default:
          storage.on_crash(storage_rng, faults);
          model.on_crash(model_rng, faults);
          break;
      }
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      std::vector<std::string> model_files;
      for (const std::string& name : names) {
        const auto it = model.files.find(name);
        const bool exists = it != model.files.end();
        ASSERT_EQ(storage.exists(name), exists) << name;
        if (!exists) continue;
        model_files.push_back(name);
        const std::span<const std::byte> read = storage.read(name);
        ASSERT_TRUE(std::equal(read.begin(), read.end(),
                               it->second.durable.begin(),
                               it->second.durable.end()))
            << name << ": durable bytes differ";
        ASSERT_EQ(storage.durable_size(name), it->second.durable.size())
            << name;
        ASSERT_EQ(storage.pending_size(name), it->second.pending.size())
            << name;
      }
      ASSERT_EQ(storage.files(), model_files);
      ASSERT_EQ(stat_fields(storage.stats()), stat_fields(model.stats));
      ASSERT_EQ(storage_rng.engine()(), model_rng.engine()());
    }
    crashes += model.stats.crashes;
    bit_flips += model.stats.bit_flips;
  }
  // The sequence reached the fault paths it is meant to cover.
  EXPECT_GT(crashes, 100u);
  EXPECT_GT(bit_flips, 10u);
}

}  // namespace
}  // namespace gsalert::journal
