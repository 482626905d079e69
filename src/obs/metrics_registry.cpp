#include "obs/metrics_registry.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <sstream>

#include "obs/json_util.h"

namespace gsalert::obs {

namespace {

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

std::string MetricsRegistry::series_key(std::string_view name,
                                        Labels labels) {
  std::sort(labels.begin(), labels.end());
  std::string key{name};
  if (!labels.empty()) {
    key += "{";
    bool first = true;
    for (const auto& [k, v] : labels) {
      if (!first) key += ",";
      first = false;
      key += k + "=" + v;
    }
    key += "}";
  }
  return key;
}

MetricsRegistry::Series& MetricsRegistry::find_or_create(
    std::string_view name, const Labels& labels, Kind kind) {
  const std::string key = series_key(name, labels);
  auto [it, inserted] = series_.try_emplace(key, Series{kind, 0, 0.0, {}});
  // A name must keep one kind for its lifetime; mixing would silently
  // read the wrong union member.
  assert(it->second.kind == kind);
  (void)inserted;
  return it->second;
}

std::uint64_t& MetricsRegistry::counter(std::string_view name,
                                        const Labels& labels) {
  return find_or_create(name, labels, Kind::kCounter).counter;
}

double& MetricsRegistry::gauge(std::string_view name, const Labels& labels) {
  return find_or_create(name, labels, Kind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      const Labels& labels) {
  return find_or_create(name, labels, Kind::kHistogram).hist;
}

std::string MetricsRegistry::text_snapshot() const {
  std::ostringstream os;
  for (const auto& [key, series] : series_) {
    os << key << " = ";
    switch (series.kind) {
      case Kind::kCounter:
        os << series.counter;
        break;
      case Kind::kGauge:
        os << fmt_double(series.gauge);
        break;
      case Kind::kHistogram:
        os << series.hist.summary();
        break;
    }
    os << "\n";
  }
  return os.str();
}

std::string MetricsRegistry::json() const {
  std::ostringstream counters, gauges, histograms;
  bool c1 = true, g1 = true, h1 = true;
  for (const auto& [key, series] : series_) {
    switch (series.kind) {
      case Kind::kCounter:
        counters << (c1 ? "" : ",") << "\"" << detail::json_escape(key)
                 << "\":" << series.counter;
        c1 = false;
        break;
      case Kind::kGauge:
        gauges << (g1 ? "" : ",") << "\"" << detail::json_escape(key)
               << "\":" << fmt_double(series.gauge);
        g1 = false;
        break;
      case Kind::kHistogram:
        histograms << (h1 ? "" : ",") << "\"" << detail::json_escape(key)
                   << "\":" << series.hist.json();
        h1 = false;
        break;
    }
  }
  return "{\"counters\":{" + counters.str() + "},\"gauges\":{" +
         gauges.str() + "},\"histograms\":{" + histograms.str() + "}}";
}

}  // namespace gsalert::obs
