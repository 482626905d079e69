#include "common.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<std::size_t> stratified_zipf(gsalert::Rng& rng, std::size_t n,
                                         double s, std::size_t count) {
  std::vector<double> cdf(n);
  double total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = total;
  }
  std::vector<std::size_t> ranks;
  ranks.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    const double u =
        (static_cast<double>(k) + rng.uniform()) / static_cast<double>(count);
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u * total);
    ranks.push_back(std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf.begin()), n - 1));
  }
  std::shuffle(ranks.begin(), ranks.end(), rng.engine());
  return ranks;
}

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t heap_bytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double exact_quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least q of the mass at or
  // below it.
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

int SpanLog::begin(const char* name) {
  const auto id = static_cast<int>(spans_.size());
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - origin_)
                      .count();
  spans_.push_back(std::move(span));
  stack_.push_back(id);
  return id;
}

void SpanLog::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::pair<double, std::size_t> SpanLog::total_seconds(
    const std::string& name) const {
  double total = 0;
  std::size_t count = 0;
  for (const Span& s : spans_) {
    if (s.name != name) continue;
    total += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    count += 1;
  }
  return {total, count};
}

std::vector<Frame> profiler_frames(const gsalert::obs::Profiler& prof) {
  // call_tree() lines: two spaces per depth, then
  // "<name> calls=N total_us=T self_us=S".
  std::vector<Frame> frames;
  std::vector<std::string> stack;
  std::istringstream in{prof.call_tree()};
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t indent = line.find_first_not_of(' ');
    const std::size_t calls_at = line.find(" calls=");
    if (indent == std::string::npos || calls_at == std::string::npos) continue;
    const std::size_t depth = indent / 2;
    Frame f;
    f.name = line.substr(indent, calls_at - indent);
    unsigned long long calls = 0, total_us = 0, self_us = 0;
    std::sscanf(line.c_str() + calls_at, " calls=%llu total_us=%llu self_us=%llu",
                &calls, &total_us, &self_us);
    f.calls = calls;
    f.total_ms = static_cast<double>(total_us) / 1000.0;
    f.self_ms = static_cast<double>(self_us) / 1000.0;
    stack.resize(depth);
    stack.push_back(f.name);
    for (std::size_t i = 0; i < stack.size(); ++i) {
      f.path += (i ? ";" : "") + stack[i];
    }
    frames.push_back(std::move(f));
  }
  return frames;
}

Frame frame_sum(const std::vector<Frame>& frames, const std::string& name) {
  Frame sum;
  sum.name = name;
  for (const Frame& f : frames) {
    if (f.name != name) continue;
    sum.calls += f.calls;
    sum.total_ms += f.total_ms;
    sum.self_ms += f.self_ms;
  }
  return sum;
}

void Tally::compare(std::vector<std::uint64_t>& expected,
                    std::vector<std::uint64_t>& received) {
  std::sort(expected.begin(), expected.end());
  std::sort(received.begin(), received.end());
  attempted += expected.size();
  // Expected keys are unique (one notice per (subscription, event)).
  std::size_t i = 0, j = 0;
  while (i < expected.size() || j < received.size()) {
    if (j == received.size() ||
        (i < expected.size() && expected[i] < received[j])) {
      missing += 1;
      ++i;
    } else if (i == expected.size() || received[j] < expected[i]) {
      unexpected += 1;
      ++j;
    } else {
      const std::uint64_t key = expected[i++];
      ++j;
      while (j < received.size() && received[j] == key) {
        duplicated += 1;
        ++j;
      }
    }
  }
}

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::json(const Options& opts, const Tally& tally) const {
  std::ostringstream out;
  const auto group = [&out](const char* key, const std::vector<Entry>& list,
                            bool units) {
    out << quote(key) << ":{";
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (i) out << ",";
      out << quote(list[i].name) << ":";
      if (units) {
        out << "{\"value\":" << number(list[i].value)
            << ",\"unit\":" << quote(list[i].unit) << "}";
      } else {
        out << number(list[i].value);
      }
    }
    out << "}";
  };
  out << "{\"workload\":" << quote(opts.workload) << ",\"seed\":" << opts.seed
      << ",\"traced\":" << (opts.trace ? "true" : "false")
      << ",\"attempted\":" << tally.attempted
      << ",\"failed\":" << tally.failed() << ",\"missing\":" << tally.missing
      << ",\"duplicated\":" << tally.duplicated
      << ",\"unexpected\":" << tally.unexpected
      << ",\"unacked\":" << tally.unacked << ",\"other\":" << tally.other
      << ",\"notes\":[";
  for (std::size_t i = 0; i < tally.notes.size(); ++i) {
    out << (i ? "," : "") << quote(tally.notes[i]);
  }
  out << "],";
  group("e2e", e2e_, true);
  out << ",";
  group("layers", layer_, true);
  out << ",";
  group("info", info_, false);
  out << "}";
  return out.str();
}

void report_e2e(Report& r, const E2E& m) {
  const std::size_t samples = m.latency_ms->size();
  r.e2e("setup_s", m.setup_s, "s");
  r.e2e("notify_per_s",
        static_cast<double>(m.notifications) / m.measured_s, "1/s");
  r.e2e("notify_p50_ms", exact_quantile(*m.latency_ms, 0.5), "sim_ms");
  r.e2e("notify_p999_ms", exact_quantile(*m.latency_ms, 0.999), "sim_ms");
  r.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  r.e2e("state_bytes_per_sub", m.state_bytes_per_sub, "B");
  r.e2e("state_bytes_per_node", m.state_bytes_per_node, "B");
  r.info("measured_s", m.measured_s);
  r.info("notifications", static_cast<double>(m.notifications));
  r.info("notify_samples", static_cast<double>(samples));
  // Samples strictly beyond the reported p99.9 (the guide's >= 10 rule).
  r.info("notify_beyond_p999",
         static_cast<double>(samples - std::min<std::size_t>(
                                           samples, static_cast<std::size_t>(
                                                        std::ceil(0.999 * samples)))));
  r.info("sub_ops", static_cast<double>(m.sub_ops));
  r.info("sub_ops_per_s", static_cast<double>(m.sub_ops) / m.sub_ops_s);
}

void finish_trace(const Options& opts, const SpanLog& spans,
                  const gsalert::obs::Profiler& profiler) {
  if (opts.trace_out.empty()) return;
  const std::vector<Frame> frames = profiler_frames(profiler);
  std::ofstream out{opts.trace_out};
  out << "{\"spans\":[";
  const auto& list = spans.spans();
  for (std::size_t i = 0; i < list.size(); ++i) {
    const SpanLog::Span& s = list[i];
    out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":"
        << quote(s.name) << ",\"parent\":" << s.parent
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}";
  }
  out << "],\n\"frames\":[";
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const Frame& f = frames[i];
    out << (i ? ",\n" : "\n") << "{\"path\":" << quote(f.path)
        << ",\"calls\":" << f.calls << ",\"total_ms\":" << number(f.total_ms)
        << ",\"self_ms\":" << number(f.self_ms) << "}";
  }
  out << "]}\n";
}

}  // namespace perfbench
