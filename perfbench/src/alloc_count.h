// Process-wide allocation counters for the traced benchmark binary.
//
// alloc_count.cpp replaces the global operator new/delete with versions
// that count calls and bytes; only dgc-perf-traced links it, so the timed
// binary runs on the unmodified allocator.
#pragma once

#include <cstdint>

namespace perf {

struct AllocTotals {
  std::uint64_t calls = 0;  ///< operator new calls (every form)
  std::uint64_t bytes = 0;  ///< bytes requested by those calls
};

/// Totals since process start (relaxed reads; exact once other threads
/// have joined).
AllocTotals AllocSnapshot();

}  // namespace perf
