#include "journal/journal.h"

#include <cassert>
#include <chrono>
#include <cstring>
#include <utility>

#include "journal/crc32c.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace gsalert::journal {

namespace {

std::uint32_t read_u32(std::span<const std::byte> bytes, std::size_t at) {
  std::uint32_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}

std::uint64_t read_u64(std::span<const std::byte> bytes, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}

/// Start a record in the empty `frame`: the header, with the payload
/// length left zero. The payload follows, then seal().
void write_header(wire::Writer& frame, std::uint8_t type, std::uint64_t lsn) {
  frame.u32(kMagic);
  frame.u32(0);
  frame.u64(lsn);
  frame.u8(type);
}

/// Patch the payload length into a begun record and append its CRC, which
/// covers the contiguous (payload_len, lsn, type, payload) bytes.
void seal(wire::Writer& frame) {
  frame.patch_u32(4, static_cast<std::uint32_t>(frame.size() - kHeaderBytes));
  frame.u32(crc32c(std::span<const std::byte>{frame.buffer()}.subspan(4)));
}

}  // namespace

ScanResult scan_records(
    std::span<const std::byte> bytes,
    const std::function<void(std::uint8_t, std::span<const std::byte>,
                             std::uint64_t)>& fn) {
  ScanResult result;
  std::size_t pos = 0;
  std::uint64_t prev_lsn = 0;
  while (bytes.size() - pos >= kHeaderBytes + kTrailerBytes) {
    if (read_u32(bytes, pos) != kMagic) break;
    const std::uint32_t len = read_u32(bytes, pos + 4);
    const std::uint64_t lsn = read_u64(bytes, pos + 8);
    const std::uint8_t type = static_cast<std::uint8_t>(bytes[pos + 16]);
    const std::size_t total = record_wire_size(len);
    if (len > bytes.size() - pos - kHeaderBytes - kTrailerBytes) break;
    const std::span<const std::byte> payload = bytes.subspan(pos + kHeaderBytes, len);
    Crc32c crc;
    crc.u32(len);
    crc.u64(lsn);
    crc.u8(type);
    crc.update(payload);
    if (crc.value() != read_u32(bytes, pos + kHeaderBytes + len)) break;
    // LSNs only move forward; a repeat or regression means the tail was
    // overwritten or spliced — treat it as corruption.
    if (lsn <= prev_lsn) break;
    prev_lsn = lsn;
    if (result.records == 0) result.first_lsn = lsn;
    result.records += 1;
    result.last_lsn = lsn;
    if (fn) fn(type, payload, lsn);
    pos += total;
  }
  result.valid_bytes = pos;
  return result;
}

bool scan_entries(
    std::span<const std::byte> bytes,
    const std::function<void(std::uint8_t, std::span<const std::byte>)>& fn) {
  std::size_t pos = 0;
  while (bytes.size() - pos >= kEntryHeaderBytes) {
    const std::uint32_t len = read_u32(bytes, pos + 1);
    if (len > bytes.size() - pos - kEntryHeaderBytes) return false;
    if (fn) {
      fn(static_cast<std::uint8_t>(bytes[pos]),
         bytes.subspan(pos + kEntryHeaderBytes, len));
    }
    pos += kEntryHeaderBytes + len;
  }
  return pos == bytes.size();
}

Journal::Journal(sim::Storage& storage, std::string name, std::string node,
                 JournalPolicy policy)
    : storage_(storage),
      name_(std::move(name)),
      node_(std::move(node)),
      policy_(policy),
      log_(name_ + ".log"),
      snap_(name_ + ".snap"),
      tmp_(name_ + ".snap.tmp") {}

wire::Writer& Journal::begin_record(std::uint8_t type,
                                    std::size_t payload_size) {
  assert(!replaying_ && "journal append during recovery replay");
  frame_.clear();
  frame_.reserve(record_wire_size(payload_size));
  write_header(frame_, type, next_lsn_++);
  return frame_;
}

void Journal::end_record() {
  seal(frame_);
  storage_.append(log_, frame_.buffer());
  dirty_ = true;
  stats_.appends += 1;
  stats_.bytes_appended += frame_.size();
}

void Journal::commit() {
  if (!dirty_) return;
  GSALERT_PROFILE("journal.commit");
  const auto t0 = std::chrono::steady_clock::now();
  storage_.flush(log_);
  fsync_us_.record(
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count()) /
      1000.0);
  dirty_ = false;
  stats_.commits += 1;
  maybe_compact();
}

void Journal::maybe_compact() {
  if (!snapshot_writer_ || policy_.compact_threshold_bytes == 0) return;
  // Amortized trigger, max(floor, snapshot size): rewrite the snapshot only
  // once the log has grown to at least the snapshot's own size, so every
  // snapshot byte written is paid for by a log byte appended, and replay
  // never exceeds one snapshot's worth of log. Reading the size from
  // storage keeps the rule stateless across restarts.
  const std::size_t log = storage_.durable_size(log_);
  if (log < policy_.compact_threshold_bytes) return;
  if (log < storage_.durable_size(snap_)) return;
  compact();
}

void Journal::compact() {
  if (!snapshot_writer_ || next_lsn_ == 1) return;
  GSALERT_PROFILE("journal.compact");
  if (dirty_) {
    storage_.flush(log_);
    dirty_ = false;
    stats_.commits += 1;
  }
  const std::uint64_t covered = next_lsn_ - 1;
  // The owner's records are written straight into the framed snapshot
  // record, so the image exists once before storage copies it. Snapshot
  // payloads are owner-sized and rare; encode without a reserve (growing
  // an unreserved Writer is counted but cheap at this rate).
  wire::Writer frame;
  write_header(frame, kSnapshotType, covered);
  snapshot_writer_(RecordSink{frame});
  seal(frame);
  // Scratch -> fsync -> atomic rename -> truncate. Any crash point leaves
  // a recoverable pair (see header comment).
  storage_.remove(tmp_);
  storage_.append(tmp_, frame.buffer());
  storage_.flush(tmp_);
  storage_.rename(tmp_, snap_);
  storage_.truncate(log_, 0);
  snapshot_lsn_ = covered;
  stats_.compactions += 1;
  stats_.snapshot_bytes = frame.size();
  if (obs::active()) {
    obs::emit_span("journal-compact", node_, now(),
                   {{"covered_lsn", std::to_string(covered)},
                    {"snapshot_bytes",
                     std::to_string(frame.size() - record_wire_size(0))}});
  }
}

RecoveryResult Journal::recover(const ReplayFn& replay) {
  GSALERT_PROFILE("journal.recover");
  RecoveryResult result;
  stats_.recoveries += 1;

  // A leftover scratch file means we crashed mid-compaction before the
  // rename; the snapshot it was building never took effect.
  storage_.remove(tmp_);

  // The replay below reads the files through Storage::read spans, which a
  // log append would invalidate; the owner must only apply records.
  replaying_ = true;

  // Snapshot: a single framed record whose payload is the owner's records;
  // replayed only if its CRC holds and its entries cover it exactly.
  if (storage_.exists(snap_)) {
    const auto snap_bytes = storage_.read(snap_);
    scan_records(snap_bytes, [&](std::uint8_t type,
                                 std::span<const std::byte> payload,
                                 std::uint64_t lsn) {
      if (type != kSnapshotType || result.snapshot_loaded ||
          !scan_entries(payload)) {
        return;
      }
      scan_entries(payload, [&](std::uint8_t entry_type,
                                std::span<const std::byte> entry) {
        wire::Reader reader(entry);
        replay(entry_type, reader, lsn);
      });
      result.snapshot_loaded = true;
      result.snapshot_lsn = lsn;
    });
  }
  snapshot_lsn_ = result.snapshot_lsn;

  // Log: replay the longest valid prefix, skipping covered records.
  const auto log_bytes_span = storage_.read(log_);
  const ScanResult scan = scan_records(
      log_bytes_span, [&](std::uint8_t type, std::span<const std::byte> payload,
                          std::uint64_t lsn) {
        if (lsn <= result.snapshot_lsn) {
          result.records_skipped += 1;
          return;
        }
        wire::Reader reader(payload);
        replay(type, reader, lsn);
        result.records_applied += 1;
      });
  replaying_ = false;

  // Truncate the invalid tail so future appends never follow garbage.
  if (scan.valid_bytes < log_bytes_span.size()) {
    result.torn_bytes_dropped = log_bytes_span.size() - scan.valid_bytes;
    storage_.truncate(log_, scan.valid_bytes);
  }

  result.last_lsn = std::max(result.snapshot_lsn, scan.last_lsn);
  next_lsn_ = result.last_lsn + 1;
  dirty_ = false;
  stats_.records_replayed += result.records_applied;
  stats_.records_skipped += result.records_skipped;
  stats_.torn_bytes_dropped += result.torn_bytes_dropped;
  if (obs::active()) {
    obs::emit_span("journal-replay", node_, now(),
                   {{"applied", std::to_string(result.records_applied)},
                    {"skipped", std::to_string(result.records_skipped)},
                    {"torn_bytes",
                     std::to_string(result.torn_bytes_dropped)}});
  }
  return result;
}

std::size_t Journal::log_bytes() const {
  return storage_.durable_size(log_) + storage_.pending_size(log_);
}

std::size_t Journal::pending_bytes() const {
  return storage_.pending_size(log_);
}

void Journal::collect_metrics(obs::MetricsRegistry& registry) const {
  const obs::Labels labels{{"node", node_}};
  registry.counter("journal.appends", labels) = stats_.appends;
  registry.counter("journal.bytes_appended", labels) = stats_.bytes_appended;
  registry.counter("journal.commits", labels) = stats_.commits;
  registry.counter("journal.compactions", labels) = stats_.compactions;
  registry.counter("journal.recoveries", labels) = stats_.recoveries;
  registry.counter("journal.records_replayed", labels) =
      stats_.records_replayed;
  registry.counter("journal.records_skipped", labels) = stats_.records_skipped;
  registry.counter("journal.torn_bytes_dropped", labels) =
      stats_.torn_bytes_dropped;
  registry.gauge("journal.log_bytes", labels) =
      static_cast<double>(log_bytes());
  registry.gauge("journal.snapshot_bytes", labels) =
      static_cast<double>(stats_.snapshot_bytes);
}

}  // namespace gsalert::journal
