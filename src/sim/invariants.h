// System-wide invariant checking. A registry holds named checkers that are
// evaluated at quiescence (and optionally mid-run); each checker inspects
// the world through observer hooks or accessors and reports violations.
//
// The sim layer defines only the framework plus the one invariant it can
// state about itself (wire-level packet conservation); scenario-aware
// checkers (GDS exactly-once, tree shape, dangling profiles, post-heal
// delivery) live in workload/chaos_runner and are registered per run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/network.h"

namespace gsalert::sim {

struct Violation {
  std::string invariant;  // checker name
  std::string detail;     // deterministic description of the breach
};

class InvariantChecker {
 public:
  virtual ~InvariantChecker() = default;
  virtual std::string name() const = 0;
  /// Evaluate the invariant and append any violations found.
  virtual void check(std::vector<Violation>& out) = 0;
};

class InvariantRegistry {
 public:
  /// Register a checker; returns the concrete pointer so callers can keep
  /// driving checkers that need mid-run input (snapshots, observers).
  template <typename T>
  T* add(std::unique_ptr<T> checker) {
    T* raw = checker.get();
    checkers_.push_back(std::move(checker));
    return raw;
  }

  /// Run every checker in registration order.
  std::vector<Violation> check_all() const;

  /// One line per checker: "name: ok" or the violations — deterministic,
  /// so a replayed seed produces a byte-identical verdict block.
  std::string report() const;

 private:
  std::vector<std::unique_ptr<InvariantChecker>> checkers_;
};

/// Render violations one per line (empty string when none).
std::string format_violations(const std::vector<Violation>& violations);

/// Wire-level conservation: every packet accepted by send() is accounted
/// for — delivered, dropped for a stated reason, or still in flight —
/// and chaos-injected duplicates are counted explicitly. Holds at any
/// instant of a run (assuming stats were not reset mid-flight).
class WireConservationChecker : public InvariantChecker {
 public:
  explicit WireConservationChecker(const Network& net) : net_(net) {}
  std::string name() const override { return "wire-conservation"; }
  void check(std::vector<Violation>& out) override;

 private:
  const Network& net_;
};

}  // namespace gsalert::sim
