#include "obs/profiler.h"

#include <cstdio>

#include "obs/metrics_registry.h"

namespace gsalert::obs {

Profiler* Profiler::current_ = nullptr;

Profiler::~Profiler() {
  if (current_ == this) current_ = nullptr;
}

void Profiler::enable() {
  if (installed_) return;
  // Calibrate what one enter/exit pair costs on this machine, right now,
  // against this tree. The calibration frames are removed afterwards so
  // they don't pollute the report, but the measured per-scope price is
  // what overhead_fraction() charges every real scope with.
  constexpr int kCalibration = 4096;
  current_ = this;
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t ticks0 = ticks();
  for (int i = 0; i < kCalibration; ++i) {
    ProfileScope scope("(calibration)");
  }
  const std::uint64_t ticks1 = ticks();
  const auto t1 = std::chrono::steady_clock::now();
  const auto calibration_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  per_scope_ns_ = calibration_ns / kCalibration;
  if (ticks1 > ticks0) {
    ns_per_tick_ = calibration_ns / static_cast<double>(ticks1 - ticks0);
  }
  root_.children.erase("(calibration)");
  root_.by_address.clear();
  scopes_entered_ = 0;
  enabled_at_ = std::chrono::steady_clock::now();
  installed_ = true;
}

void Profiler::disable() {
  if (!installed_) return;
  wall_ns_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - enabled_at_)
          .count());
  installed_ = false;
  if (current_ == this) current_ = nullptr;
}

std::uint64_t Profiler::profiled_wall_ns() const {
  std::uint64_t ns = wall_ns_;
  if (installed_) {
    ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - enabled_at_)
            .count());
  }
  return ns;
}

double Profiler::overhead_fraction() const {
  const std::uint64_t wall = profiled_wall_ns();
  if (wall == 0) return 0.0;
  return (static_cast<double>(scopes_entered_) * per_scope_ns_) /
         static_cast<double>(wall);
}

Profiler::Node* Profiler::child_named(const char* name) {
  auto it = cursor_->children.find(name);
  if (it == cursor_->children.end()) {
    auto node = std::make_unique<Node>();
    node->name = name;
    node->parent = cursor_;
    it = cursor_->children.emplace(node->name, std::move(node)).first;
  }
  cursor_->by_address.emplace_back(name, it->second.get());
  return it->second.get();
}

namespace {
std::uint64_t children_total_ns(const Profiler::Node& node) {
  std::uint64_t ns = 0;
  for (const auto& [name, child] : node.children) ns += child->total_ns;
  return ns;
}
}  // namespace

void Profiler::collapse(const Node& node, std::string prefix,
                        std::string* out) const {
  if (&node != &root_) {
    prefix = prefix.empty() ? node.name : prefix + ";" + node.name;
    const std::uint64_t child_ns = children_total_ns(node);
    const std::uint64_t self_ns =
        node.total_ns > child_ns ? node.total_ns - child_ns : 0;
    char buf[32];
    std::snprintf(buf, sizeof buf, " %llu\n",
                  static_cast<unsigned long long>(self_ns / 1000));
    *out += prefix + buf;
  }
  for (const auto& [name, child] : node.children) {
    collapse(*child, prefix, out);
  }
}

std::string Profiler::collapsed_stacks() const {
  std::string out;
  collapse(root_, "", &out);
  return out;
}

void Profiler::tree(const Node& node, int depth, std::string* out) const {
  if (&node != &root_) {
    const std::uint64_t child_ns = children_total_ns(node);
    const std::uint64_t self_ns =
        node.total_ns > child_ns ? node.total_ns - child_ns : 0;
    char buf[128];
    std::snprintf(buf, sizeof buf, " calls=%llu total_us=%llu self_us=%llu\n",
                  static_cast<unsigned long long>(node.calls),
                  static_cast<unsigned long long>(node.total_ns / 1000),
                  static_cast<unsigned long long>(self_ns / 1000));
    out->append(static_cast<std::size_t>(depth) * 2, ' ');
    *out += node.name + buf;
  }
  for (const auto& [name, child] : node.children) {
    tree(*child, &node == &root_ ? depth : depth + 1, out);
  }
}

std::string Profiler::call_tree() const {
  std::string out;
  tree(root_, 0, &out);
  return out;
}

namespace {
void export_node(const Profiler::Node& node, const std::string& prefix,
                 MetricsRegistry& registry) {
  for (const auto& [name, child] : node.children) {
    const std::string path =
        prefix.empty() ? child->name : prefix + ";" + child->name;
    registry.counter("profiler.scope.calls", {{"scope", path}}) +=
        child->calls;
    registry.counter("profiler.scope.total_us", {{"scope", path}}) +=
        child->total_ns / 1000;
    export_node(*child, path, registry);
  }
}
}  // namespace

void Profiler::export_to(MetricsRegistry& registry) const {
  export_node(root_, "", registry);
  registry.gauge("profiler.overhead_fraction") = overhead_fraction();
  registry.counter("profiler.scopes_entered") += scopes_entered_;
}

void Profiler::clear() {
  root_.children.clear();
  root_.by_address.clear();
  root_.calls = 0;
  root_.total_ns = 0;
  cursor_ = &root_;
  scopes_entered_ = 0;
  wall_ns_ = 0;
  if (installed_) enabled_at_ = std::chrono::steady_clock::now();
}

}  // namespace gsalert::obs
