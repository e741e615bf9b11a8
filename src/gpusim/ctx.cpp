#include "gpusim/ctx.h"

#include "gpusim/block.h"
#include "gpusim/launch_context.h"
#include "support/str.h"

namespace dgc::sim {

namespace detail {

void RaisePendingTrap() {
  Lane* lane = CurrentLane();
  if (lane == nullptr || lane->pending_trap == TrapKind::kNone) return;
  const TrapKind kind = lane->pending_trap;
  lane->pending_trap = TrapKind::kNone;
  switch (kind) {
    case TrapKind::kWatchdog:
      throw DeviceTrap(
          kind, StrFormat("watchdog: cycle budget exhausted at cycle %llu",
                          (unsigned long long)lane->trap_cycle));
    default:
      throw DeviceTrap(kind,
                       StrFormat("%.*s trap fired at cycle %llu",
                                 int(ToString(kind).size()),
                                 ToString(kind).data(),
                                 (unsigned long long)lane->trap_cycle));
  }
}

}  // namespace detail

detail::SyncAwaiter ThreadCtx::SyncThreads() const {
  return detail::SyncAwaiter(block->barrier());
}

std::uint64_t ThreadCtx::Now() const {
  return block->launch_context()->engine.now();
}

void ThreadCtx::SetRowInstance(std::int32_t instance,
                               std::uint64_t watchdog_cycles) const {
  const std::uint64_t deadline =
      watchdog_cycles == 0 ? 0 : Now() + watchdog_cycles;
  block->launch_context()->AddInstance(instance);
  for (Lane& row_lane : block->lanes()) {
    if (row_lane.ctx->tid3.y != tid3.y) continue;
    row_lane.instance = instance;
    row_lane.watchdog_deadline = deadline;
  }
}

}  // namespace dgc::sim
