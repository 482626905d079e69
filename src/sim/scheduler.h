// Deterministic discrete-event scheduler: a virtual clock plus an ordered
// queue of callbacks. Ties at the same timestamp are broken by insertion
// order, so runs are exactly reproducible.
//
// The queue is a binary heap over a vector of move-only entries
// (sim::SmallAction): scheduling a typical packet-delivery lambda
// allocates nothing, and popping an event moves it out instead of copying
// the capture the way std::priority_queue + std::function did. The
// (when, seq) comparator is a total order, so heap pop order — and with
// it every downstream metric — is bit-identical to the old queue.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sim/small_action.h"

namespace gsalert::sim {

/// Allocation/throughput counters for one scheduler instance. Free to
/// bump (plain fields); perf_smoke_test gates heap_spills and perfbench
/// reads `executed` as its sim.events layer metric.
struct SchedulerStats {
  std::uint64_t scheduled = 0;    // schedule_at/schedule_after calls
  std::uint64_t executed = 0;     // actions run
  std::uint64_t heap_spills = 0;  // actions whose capture spilled to heap
};

class Scheduler {
 public:
  using Action = SmallAction;

  SimTime now() const { return now_; }

  /// Schedule `action` to run `delay` after the current time.
  /// Negative delays are clamped to zero.
  void schedule_after(SimTime delay, Action action);

  /// Schedule at an absolute time (>= now, clamped otherwise).
  void schedule_at(SimTime when, Action action);

  /// Run events until the queue is empty or `limit` events ran.
  /// Returns the number of events executed.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Run all events with timestamp <= deadline (events scheduled during
  /// execution are included if they fall within the deadline).
  ///
  /// Clock contract: the clock ALWAYS advances to `deadline` on return,
  /// even when the queue drains early or was empty to begin with — a
  /// deadline is a statement about time, not about pending work, so a
  /// loop that runs in fixed slices (`while (now() < until)
  /// run_until(now() + slice)`) always terminates. Asserted by
  /// SchedulerTest.RunUntilAdvancesClockOnEmptyQueue.
  std::size_t run_until(SimTime deadline);

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }

  const SchedulerStats& stats() const { return stats_; }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    Action action;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  /// Pop the earliest entry (heap must be non-empty), moving it out.
  Entry pop_top();
  void dispatch(Entry entry);

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::vector<Entry> heap_;  // min-heap via std::push_heap/pop_heap(Later)
  SchedulerStats stats_;
};

}  // namespace gsalert::sim
