// A counting global operator new/delete for tests that gate allocations.
//
// Linking counting_allocator.cpp into a test binary replaces the global
// allocation functions of that binary; counting is off until a
// CountAllocations scope turns it on. It lives with the tests on purpose:
// a library must never replace operator new for the program that links
// it. Single-threaded, like the simulator it measures.
#pragma once

#include <cstdint>

namespace gsalert::test_support {

struct AllocCounts {
  std::uint64_t allocations = 0;  // operator new calls
  std::uint64_t bytes = 0;        // bytes requested by those calls
};

/// Allocations counted so far, across every CountAllocations scope.
AllocCounts alloc_counts();

/// Counts the allocations made while it is alive (scopes may nest).
class CountAllocations {
 public:
  CountAllocations();
  ~CountAllocations();
  CountAllocations(const CountAllocations&) = delete;
  CountAllocations& operator=(const CountAllocations&) = delete;
};

}  // namespace gsalert::test_support
