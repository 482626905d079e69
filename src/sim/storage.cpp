#include "sim/storage.h"

#include <algorithm>
#include <utility>

namespace gsalert::sim {

void Storage::append(const std::string& file,
                     std::span<const std::byte> bytes) {
  File& f = files_[file];
  f.pending.insert(f.pending.end(), bytes.begin(), bytes.end());
  stats_.appends += 1;
  stats_.bytes_appended += bytes.size();
}

void Storage::flush(const std::string& file) {
  const auto it = files_.find(file);
  if (it == files_.end() || it->second.pending.empty()) return;
  File& f = it->second;
  f.last_flush_bytes = f.pending.size();
  stats_.flushes += 1;
  stats_.bytes_flushed += f.pending.size();
  if (f.durable.empty()) {
    // First flush of a fresh file (a snapshot, or a log just truncated by
    // compaction): hand over the buffer rather than holding it twice.
    f.durable = std::move(f.pending);
  } else {
    f.durable.insert(f.durable.end(), f.pending.begin(), f.pending.end());
  }
  f.pending.clear();
}

std::span<const std::byte> Storage::read(const std::string& file) const {
  const auto it = files_.find(file);
  if (it == files_.end()) return {};
  return it->second.durable;
}

std::size_t Storage::durable_size(const std::string& file) const {
  const auto it = files_.find(file);
  return it == files_.end() ? 0 : it->second.durable.size();
}

std::size_t Storage::pending_size(const std::string& file) const {
  const auto it = files_.find(file);
  return it == files_.end() ? 0 : it->second.pending.size();
}

bool Storage::exists(const std::string& file) const {
  return files_.contains(file);
}

void Storage::truncate(const std::string& file, std::size_t n) {
  const auto it = files_.find(file);
  if (it == files_.end()) return;
  File& f = it->second;
  if (f.durable.size() > n) f.durable.resize(n);
  f.pending.clear();
  f.last_flush_bytes = 0;
}

void Storage::rename(const std::string& from, const std::string& to) {
  const auto it = files_.find(from);
  if (it == files_.end()) return;
  File moved = std::move(it->second);
  files_.erase(it);
  files_[to] = std::move(moved);
  stats_.renames += 1;
}

void Storage::remove(const std::string& file) { files_.erase(file); }

void Storage::on_crash(Rng& rng, const StorageFaults& faults) {
  stats_.crashes += 1;
  for (auto& [name, f] : files_) {
    bool torn = false;

    // Torn append: a prefix of the un-fsynced tail lands durably anyway.
    if (!f.pending.empty()) {
      std::size_t kept = 0;
      if (faults.torn_write > 0.0 && rng.chance(faults.torn_write)) {
        kept = static_cast<std::size_t>(rng.uniform_int(
            1, static_cast<std::int64_t>(f.pending.size())));
        f.durable.insert(f.durable.end(), f.pending.begin(),
                         f.pending.begin() + static_cast<std::ptrdiff_t>(kept));
        stats_.torn_bytes_kept += kept;
        torn = true;
      }
      stats_.pending_bytes_lost += f.pending.size() - kept;
      f.pending.clear();
    }

    // Lying fsync: the most recent flushed batch is torn back.
    if (faults.torn_write > 0.0 && f.last_flush_bytes > 0 &&
        rng.chance(faults.torn_write)) {
      const std::size_t lost = static_cast<std::size_t>(rng.uniform_int(
          1, static_cast<std::int64_t>(
                 std::min(f.last_flush_bytes, f.durable.size()))));
      f.durable.resize(f.durable.size() - lost);
      stats_.torn_bytes_lost += lost;
      torn = true;
    }

    // Media corruption near the torn tail.
    if (torn && !f.durable.empty() && faults.bit_flip > 0.0 &&
        rng.chance(faults.bit_flip)) {
      const std::size_t window = std::min<std::size_t>(64, f.durable.size());
      const std::size_t at =
          f.durable.size() - window + rng.index(window);
      const int bit = static_cast<int>(rng.index(8));
      f.durable[at] ^= static_cast<std::byte>(1u << bit);
      stats_.bit_flips += 1;
    }

    f.last_flush_bytes = 0;
  }
}

std::vector<std::string> Storage::files() const {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [name, f] : files_) out.push_back(name);
  return out;
}

}  // namespace gsalert::sim
