// Simulated per-node stable storage. Each node that wants durability gets
// one Storage from the Network, holding named byte files. A file is one
// byte buffer split by a durable watermark: the `durable` prefix survives
// a crash, the `pending` tail of appended-but-not-flushed bytes does not.
// append() grows the tail; flush() (the sim's fsync) moves the watermark
// to the end of the buffer and copies nothing.
//
// Crash semantics are applied by Network::crash() via on_crash(): pending
// is discarded, and — only when StorageFaults probabilities are raised —
// the storage additionally misbehaves the way cheap disks do:
//
//   torn_write  with this probability a crash tears the file: a random
//               prefix of the pending tail lands durably anyway (a torn
//               append), and the most recent *flushed* batch may be torn
//               back by a random amount (an fsync that lied / a partial
//               flush). Both produce a durable image that ends mid-record.
//   bit_flip    given a tear happened, with this probability one random
//               bit near the durable tail flips (media corruption).
//
// Faults default to zero: flush() is an honest fsync, and the strict
// durability invariants in the chaos sweep rely on that. The torn-write
// chaos class and the corpus tests in journal_test.cpp raise them.
//
// Everything is deterministic: fault draws come from the Rng the caller
// passes (the network's), so a seed replays byte-for-byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"

namespace gsalert::sim {

struct StorageFaults {
  double torn_write = 0.0;
  double bit_flip = 0.0;
};

struct StorageStats {
  std::uint64_t appends = 0;
  std::uint64_t bytes_appended = 0;
  std::uint64_t flushes = 0;
  std::uint64_t bytes_flushed = 0;
  std::uint64_t renames = 0;
  std::uint64_t crashes = 0;
  std::uint64_t pending_bytes_lost = 0;  // unflushed bytes discarded at crash
  std::uint64_t torn_bytes_lost = 0;     // flushed bytes torn back at crash
  std::uint64_t torn_bytes_kept = 0;     // unflushed bytes that landed anyway
  std::uint64_t bit_flips = 0;
};

class Storage {
 public:
  /// Append bytes to the file's volatile pending tail (created on first
  /// use). Not durable until flush().
  void append(const std::string& file, std::span<const std::byte> bytes);

  /// Make the pending tail durable (fsync). No-op if nothing is pending.
  void flush(const std::string& file);

  /// The durable image of the file. Pending bytes are intentionally not
  /// visible: recovery must only ever read what a crash would preserve.
  /// The span views the file's buffer, so it is valid only until the next
  /// mutating call on that file (append, truncate, rename, remove,
  /// on_crash); copy the bytes out to keep them longer.
  std::span<const std::byte> read(const std::string& file) const;

  std::size_t durable_size(const std::string& file) const;
  std::size_t pending_size(const std::string& file) const;
  bool exists(const std::string& file) const;

  /// Shrink the durable image to `n` bytes (log repair / compaction).
  /// Modeled as immediately durable, like ftruncate + fsync.
  void truncate(const std::string& file, std::size_t n);

  /// Atomically replace `to` with `from` (rename(2) semantics, directory
  /// assumed synced). Pending bytes of `from` move along with it.
  void rename(const std::string& from, const std::string& to);

  void remove(const std::string& file);

  /// Apply crash semantics to every file (see file comment). Called by
  /// Network::crash(); draws from `rng` only when there is something to
  /// tear, keeping fault-free runs byte-identical to pre-storage builds.
  void on_crash(Rng& rng, const StorageFaults& faults);

  const StorageStats& stats() const { return stats_; }
  std::vector<std::string> files() const;

 private:
  struct File {
    // [0, durable) survives a crash; [durable, size) is the pending tail.
    std::vector<std::byte> bytes;
    std::size_t durable = 0;
    // Size of the batch made durable by the most recent flush(); the
    // window a lying fsync can tear back. Reset by crash/truncate.
    std::size_t last_flush_bytes = 0;

    std::size_t pending() const { return bytes.size() - durable; }
  };

  // std::map: deterministic iteration order for on_crash fault draws.
  std::map<std::string, File> files_;
  StorageStats stats_;
};

}  // namespace gsalert::sim
