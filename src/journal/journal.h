// Append-only write-ahead journal over sim::Storage, with group-commit
// batching, periodic snapshot + compaction, and replay-on-restart.
//
// Record framing (all little-endian, encoded with wire::Writer):
//
//   u32  magic        'GSJL'
//   u32  payload_len
//   u64  lsn          strictly increasing, never reused
//   u8   type         owner-defined record type
//   ...  payload      payload_len bytes
//   u32  crc32c       over (payload_len, lsn, type, payload)
//
// Files on the owning node's Storage, named from the journal name:
//
//   <name>.log        the record stream; appends buffer in the storage's
//                     pending tail, commit() flushes them in one fsync
//                     (group commit — one durable write per sim event,
//                     however many records the handler produced)
//   <name>.snap       one snapshot record (same framing, type 255) whose
//                     lsn says which log prefix it covers; its payload is
//                     a stream of the owner's own records, each framed
//                     u8 type | u32 len | payload (see RecordSink)
//   <name>.snap.tmp   compaction scratch; ignored and deleted by recovery
//
// Compaction: when the durable log reaches max(policy floor, size of the
// current <name>.snap), the owner's snapshot writer emits its full state
// as records into <name>.snap.tmp, which is flushed, atomically renamed
// over <name>.snap, and only then is the log truncated. Because a rewrite waits
// until the log has grown to the snapshot it replaces, re-copying old
// state costs at most one snapshot byte per log byte appended, and replay
// after a restart covers at most one snapshot's worth of log (or the
// floor) plus one commit. A crash at ANY point in that sequence recovers:
// the old snapshot + full log before the rename, the new snapshot + a log
// whose records are all covered (and skipped by lsn) after it.
//
// Recovery: replay the snapshot's records if its CRC holds, then scan the
// log for the longest valid record prefix — stopping at the first bad
// magic, bad length, CRC mismatch, or non-increasing lsn — replaying
// records whose lsn exceeds the snapshot's. Both go through the owner's
// one replay callback, so each owner has a single decoder for its state.
// The invalid tail is truncated so future appends never interleave with
// garbage. Recovery is idempotent: running it twice over the same storage
// yields the same state and the same RecoveryResult.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>

#include "common/histogram.h"
#include "common/types.h"
#include "obs/profiler.h"
#include "sim/storage.h"
#include "wire/codec.h"

namespace gsalert::obs {
class MetricsRegistry;
}  // namespace gsalert::obs

namespace gsalert::journal {

inline constexpr std::uint32_t kMagic = 0x4C4A5347u;  // "GSJL"
inline constexpr std::uint8_t kSnapshotType = 255;
inline constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 1;
inline constexpr std::size_t kTrailerBytes = 4;
/// Snapshot entry header: u8 type | u32 payload_len.
inline constexpr std::size_t kEntryHeaderBytes = 1 + 4;

/// Encoded size of a length-prefixed string inside a record payload.
constexpr std::size_t str_wire(std::string_view s) { return 4 + s.size(); }

/// Total framed size of a record with `payload` payload bytes — callers
/// reserve this (plus their payload) so journal writes never reallocate
/// mid-encode (the perf budget counts Writer grows).
constexpr std::size_t record_wire_size(std::size_t payload) {
  return kHeaderBytes + payload + kTrailerBytes;
}

struct JournalPolicy {
  /// Floor of the compaction trigger: commit() compacts (snapshot +
  /// truncate) once the durable log reaches max(this, current snapshot
  /// size). 0 disables size-triggered compaction.
  std::size_t compact_threshold_bytes = 64 * 1024;
};

struct JournalStats {
  std::uint64_t appends = 0;
  std::uint64_t bytes_appended = 0;
  std::uint64_t commits = 0;         // fsyncs (group commits)
  std::uint64_t compactions = 0;
  std::uint64_t snapshot_bytes = 0;  // size of the latest snapshot record
  std::uint64_t recoveries = 0;
  std::uint64_t records_replayed = 0;
  std::uint64_t records_skipped = 0;     // covered by the snapshot
  std::uint64_t torn_bytes_dropped = 0;  // invalid tails truncated away
};

struct RecoveryResult {
  bool snapshot_loaded = false;
  std::uint64_t snapshot_lsn = 0;
  std::uint64_t last_lsn = 0;  // highest lsn recovered (snapshot or log)
  std::uint64_t records_applied = 0;
  std::uint64_t records_skipped = 0;
  std::uint64_t torn_bytes_dropped = 0;
};

/// Result of walking a byte buffer as a record stream.
struct ScanResult {
  std::uint64_t records = 0;
  std::size_t valid_bytes = 0;  // length of the longest valid prefix
  std::uint64_t first_lsn = 0;
  std::uint64_t last_lsn = 0;
};

/// Walk `bytes` as framed records, invoking `fn` for each valid one and
/// stopping at the first invalid frame. Total on arbitrary input — this
/// is the decoder the fuzz harness drives.
ScanResult scan_records(
    std::span<const std::byte> bytes,
    const std::function<void(std::uint8_t type,
                             std::span<const std::byte> payload,
                             std::uint64_t lsn)>& fn = nullptr);

/// Walk `bytes` as snapshot entries (u8 type | u32 len | payload),
/// invoking `fn` for each whole one. Returns true only when the entries
/// cover the buffer exactly. Total on arbitrary input.
bool scan_entries(
    std::span<const std::byte> bytes,
    const std::function<void(std::uint8_t type,
                             std::span<const std::byte> payload)>& fn =
        nullptr);

class RecordSink;

class Journal {
 public:
  /// Applies one record, from the log or from the snapshot (whose
  /// records all carry the snapshot's lsn).
  using ReplayFn = std::function<void(std::uint8_t type, wire::Reader& payload,
                                      std::uint64_t lsn)>;
  /// Emits the owner's full durable state as records.
  using SnapshotWriter = std::function<void(const RecordSink&)>;

  /// `name` prefixes the storage file names; `node` labels spans and
  /// metrics with the owning node.
  Journal(sim::Storage& storage, std::string name, std::string node,
          JournalPolicy policy = {});

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Group commit: one fsync covering every append since the last commit.
  /// May trigger compaction afterwards. No-op when clean.
  void commit();

  /// Owner callback that emits full durable state for compaction.
  /// Compaction is skipped (the log grows without bound) until this set.
  void set_snapshot_writer(SnapshotWriter fn) {
    snapshot_writer_ = std::move(fn);
  }

  /// Clock used to timestamp spans; defaults to SimTime::zero() so
  /// storage-only unit tests need no network.
  void set_clock(std::function<SimTime()> clock) { clock_ = std::move(clock); }

  /// Force a snapshot + log truncation now (commit() auto-compacts when
  /// the log reaches max(policy floor, snapshot size)).
  void compact();

  /// Replay the snapshot's records (if it is valid), then the longest
  /// valid log prefix past the snapshot's lsn; truncate any invalid tail.
  /// RecoveryResult::records_applied counts log records only.
  RecoveryResult recover(const ReplayFn& replay);

  std::uint64_t next_lsn() const { return next_lsn_; }
  std::uint64_t snapshot_lsn() const { return snapshot_lsn_; }
  /// Durable + pending log bytes (the growth the soak test bounds).
  std::size_t log_bytes() const;
  /// Bytes appended but not yet fsynced — the journal backlog a stalled
  /// group commit would lose. Feeds the per-node health scoreboard.
  std::size_t pending_bytes() const;
  /// Wall-clock microseconds per group commit. Like match CPU, kept out
  /// of collect_metrics (wall time would break seed-replay determinism);
  /// workload::Scenario merges it into the Outcome's LatencyBreakdown.
  const Histogram& fsync_us() const { return fsync_us_; }

  const JournalStats& stats() const { return stats_; }

  /// Export under journal.*{node=...} (see docs/OBSERVABILITY.md).
  void collect_metrics(obs::MetricsRegistry& registry) const;

 private:
  friend class RecordSink;

  /// Start framing one record in the reused frame buffer, reserved for
  /// `payload_size` payload bytes; the caller encodes the payload into
  /// the returned Writer, then end_record() seals it and appends it to
  /// the log (buffered, not durable, until commit()).
  wire::Writer& begin_record(std::uint8_t type, std::size_t payload_size);
  void end_record();
  void maybe_compact();
  SimTime now() const { return clock_ ? clock_() : SimTime::zero(); }

  sim::Storage& storage_;
  std::string name_;
  std::string node_;
  JournalPolicy policy_;
  std::string log_;
  std::string snap_;
  std::string tmp_;
  std::uint64_t next_lsn_ = 1;
  std::uint64_t snapshot_lsn_ = 0;
  bool dirty_ = false;
  // recover() is feeding records to the owner; appending now would grow
  // the log buffer the replay is reading (Storage::read spans).
  bool replaying_ = false;
  // Every live record is framed here, then copied once into the log.
  wire::Writer frame_;
  SnapshotWriter snapshot_writer_;
  std::function<SimTime()> clock_;
  JournalStats stats_;
  Histogram fsync_us_;
};

/// Where an owner's records go: appended to the live log, or written as
/// entries of a snapshot (or profile-migration) image. Each record type
/// has one encoder that writes through a RecordSink, so the log and the
/// snapshot carry the same record bytes and one replay switch decodes
/// both.
class RecordSink {
 public:
  /// The live log; a null journal drops records (owner not yet on a
  /// network).
  // NOLINTNEXTLINE(google-explicit-constructor)
  RecordSink(Journal* log) : log_(log) {}
  /// An image: each record becomes one u8 type | u32 len | payload entry.
  explicit RecordSink(wire::Writer& image) : image_(&image) {}

  /// Emit one record; `encode(wire::Writer&)` writes its payload.
  /// `payload_size` is the payload's exact size, which the log reserves
  /// so the hot path never grows a Writer. A log record is encoded
  /// straight into the journal's reused frame buffer.
  template <typename Fn>
  void put(std::uint8_t type, std::size_t payload_size, Fn&& encode) const {
    if (image_ != nullptr) {
      image_->u8(type);
      const std::size_t len_at = image_->size();
      image_->u32(0);
      encode(*image_);
      image_->patch_u32(len_at, static_cast<std::uint32_t>(
                                    image_->size() - len_at - 4));
      return;
    }
    if (log_ == nullptr) return;
    GSALERT_PROFILE("journal.append");
    encode(log_->begin_record(type, payload_size));
    log_->end_record();
  }
  /// A record whose payload is one u64 (counters, ids, sequence numbers).
  void put_u64(std::uint8_t type, std::uint64_t value) const {
    put(type, 8, [&](wire::Writer& w) { w.u64(value); });
  }

 private:
  Journal* log_ = nullptr;
  wire::Writer* image_ = nullptr;
};

}  // namespace gsalert::journal
