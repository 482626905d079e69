// Continuous profiler: scoped wall-clock timers aggregating into a call
// tree, with collapsed-stack (flamegraph) and indented-tree text export.
//
// Design constraints, in order:
//  - Zero-cost when off: GSALERT_PROFILE compiles to one branch on a
//    global pointer. No global is ever touched on the hot path when no
//    profiler is installed.
//  - Honest about its own cost when on: enable() calibrates the price of
//    one enter/exit pair, every scope is counted, and
//    overhead_fraction() reports (scopes x per-scope cost) / profiled
//    wall time. tests/perf_budget.txt gates this under
//    max_profiler_overhead_pct (5%).
//  - Cheap timestamps: scopes read the CPU's time-stamp counter where
//    there is one (x86), which costs about half a steady_clock::now() on
//    virtualized hosts, and enable() measures its rate against
//    steady_clock; elsewhere scopes read steady_clock.
//  - Single-threaded by design, like the simulator it profiles. The
//    current-node pointer is plain state, not thread-local.
//
// Usage:
//   obs::Profiler prof;
//   prof.enable();                       // installs as the global profiler
//   ...run...
//   prof.disable();
//   std::puts(prof.call_tree().c_str()); // human tree
//   prof.collapsed_stacks();             // "sim.dispatch;alerting.match 123\n"
//                                        // (flamegraph.pl-compatible, us)
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace gsalert::obs {

class MetricsRegistry;

class Profiler {
 public:
  Profiler() = default;
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Install as the process-wide profiler (replacing any other) and
  /// calibrate per-scope overhead. Timers start aggregating immediately.
  void enable();
  /// Uninstall (if installed) and close the profiled wall-time window.
  void disable();
  bool enabled() const { return installed_; }

  /// The currently installed profiler, or nullptr. ProfileScope's off
  /// path reads only this.
  static Profiler* current() { return current_; }

  // --- results (valid after disable(), or mid-run) -----------------------
  /// Collapsed-stack lines "root;child;leaf <self_us>\n", path-sorted —
  /// feed to flamegraph.pl / speedscope. Frames with zero self time are
  /// still emitted when they have calls (they carry the shape).
  std::string collapsed_stacks() const;
  /// Indented call tree with calls / total / self per frame.
  std::string call_tree() const;
  /// Export under profiler.* (scope totals as counters in microseconds,
  /// overhead as a gauge) for bench JSON.
  void export_to(MetricsRegistry& registry) const;

  /// Estimated fraction of profiled wall time spent in the profiler
  /// itself: scopes_entered() x calibrated per-scope cost / wall window.
  /// 0 when never enabled.
  double overhead_fraction() const;
  std::uint64_t scopes_entered() const { return scopes_entered_; }
  /// Calibrated cost of one enter/exit pair, nanoseconds.
  double per_scope_overhead_ns() const { return per_scope_ns_; }
  /// Wall nanoseconds between enable() and disable() (or now).
  std::uint64_t profiled_wall_ns() const;

  void clear();

  // --- scope plumbing (ProfileScope only) --------------------------------
  struct Node {
    std::string name;
    Node* parent = nullptr;
    std::map<std::string, std::unique_ptr<Node>, std::less<>> children;
    // The same children keyed by the address of the name a scope passed
    // (a string literal per call site): enter() compares a few pointers
    // instead of searching `children` by string.
    std::vector<std::pair<const char*, Node*>> by_address;
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
  };
  Node* enter(const char* name) {
    scopes_entered_ += 1;
    for (const auto& [address, child] : cursor_->by_address) {
      if (address == name) return cursor_ = child;
    }
    return cursor_ = child_named(name);
  }
  void exit(Node* node, std::uint64_t elapsed_ticks) {
    node->calls += 1;
    node->total_ns += static_cast<std::uint64_t>(
        static_cast<double>(elapsed_ticks) * ns_per_tick_);
    // Scopes are strictly nested (RAII), so the cursor is either this
    // node or a descendant left dangling by an exception; walk up to the
    // parent.
    cursor_ = node->parent;
  }

  /// Scope timestamp in ticks (see the file comment); enable() measures
  /// how many nanoseconds one tick is.
  static std::uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_ia32_rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
#endif
  }

 private:
  /// The cursor's child called `name` (created on first use), registered
  /// under this address of the name for enter()'s pointer lookup.
  Node* child_named(const char* name);
  void collapse(const Node& node, std::string prefix, std::string* out) const;
  void tree(const Node& node, int depth, std::string* out) const;

  static Profiler* current_;

  Node root_{"(root)"};
  Node* cursor_ = &root_;
  bool installed_ = false;
  double per_scope_ns_ = 0.0;
  double ns_per_tick_ = 1.0;
  std::uint64_t scopes_entered_ = 0;
  std::chrono::steady_clock::time_point enabled_at_{};
  std::uint64_t wall_ns_ = 0;  // closed window(s) before the live one
};

/// RAII scope timer. With no profiler installed: one branch, nothing else.
/// `name` must outlive the profiler and keep its text (a string literal).
class ProfileScope {
 public:
  explicit ProfileScope(const char* name) {
    Profiler* p = Profiler::current();
    if (p != nullptr) {
      profiler_ = p;
      node_ = p->enter(name);
      start_ = Profiler::ticks();
    }
  }
  ~ProfileScope() {
    if (profiler_ != nullptr) {
      const std::uint64_t end = Profiler::ticks();
      profiler_->exit(node_, end > start_ ? end - start_ : 0);
    }
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  Profiler* profiler_ = nullptr;
  Profiler::Node* node_ = nullptr;
  std::uint64_t start_ = 0;
};

#define GSALERT_PROFILE_CAT2(a, b) a##b
#define GSALERT_PROFILE_CAT(a, b) GSALERT_PROFILE_CAT2(a, b)
/// Time the rest of the enclosing block as one profiler frame. `name`
/// must be a string literal: frames are found by its address.
#define GSALERT_PROFILE(name) \
  ::gsalert::obs::ProfileScope GSALERT_PROFILE_CAT(gsalert_prof_, \
                                                   __LINE__)(name)

}  // namespace gsalert::obs
