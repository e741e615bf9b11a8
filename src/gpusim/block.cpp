#include "gpusim/block.h"

#include "gpusim/launch_context.h"
#include "gpusim/sm.h"
#include "gpusim/warp.h"
#include "support/str.h"

namespace dgc::sim {

Block::Block(LaunchContext* lc, std::uint32_t block_id, SM* sm)
    : lc_(lc),
      id_(block_id),
      sm_(sm),
      barrier_(StrFormat("block-%u", block_id)) {
  const Dim3 bdim = lc->config.block;
  const std::uint32_t nthreads = std::uint32_t(bdim.Count());
  live_ = nthreads;

  shared_.resize(lc->config.shared_bytes);
  shared_base_ =
      kSharedBase + std::uint64_t(block_id) *
                        std::uint64_t(lc->spec.shared_memory_per_block);

  lanes_ = std::vector<Lane>(nthreads);
  ctxs_.resize(nthreads);
  for (std::uint32_t i = 0; i < nthreads; ++i) {
    Lane& lane = lanes_[i];
    lane.block = this;
    lane.thread_id = i;
    lane.memberships.push_back(&barrier_);

    ThreadCtx& ctx = ctxs_[i];
    ctx.lane = &lane;
    ctx.block = this;
    ctx.thread_id = i;
    ctx.tid3 = Dim3{i % bdim.x, (i / bdim.x) % bdim.y, i / (bdim.x * bdim.y)};
    ctx.block_id = block_id;
    ctx.block_threads = nthreads;
    ctx.block_dim = bdim;
    ctx.grid_blocks = std::uint32_t(lc->config.grid.Count());
    lane.ctx = &ctx;
  }
  barrier_.AddParticipants(nthreads);

  const int wsize = lc->spec.warp_size;
  const std::uint32_t nwarps = (nthreads + wsize - 1) / std::uint32_t(wsize);
  warps_.reserve(nwarps);
  for (std::uint32_t w = 0; w < nwarps; ++w) {
    const std::uint32_t begin = w * std::uint32_t(wsize);
    const std::uint32_t end = std::min(nthreads, begin + std::uint32_t(wsize));
    warps_.push_back(std::make_unique<Warp>(
        this, w, std::span<Lane>(lanes_.data() + begin, end - begin), lc_));
  }
}

Block::~Block() = default;

void Block::Start(std::uint64_t now) {
  for (std::uint32_t i = 0; i < lanes_.size(); ++i) {
    DeviceTask<void> root = lc_->kernel(ctxs_[i]);
    auto handle = root.raw();
    lanes_[i].Start(root.Release(), &handle.promise().error);
  }
  for (auto& warp : warps_) warp->WakeAt(now, lc_->engine);
}

void Block::OnLaneDone(Lane* lane, std::uint64_t now) {
  for (Barrier* b : lane->memberships) b->ParticipantGone(now, lc_->engine);
  DGC_CHECK(live_ > 0);
  --live_;
  if (live_ == 0) lc_->OnBlockFinished(this, now);
}

}  // namespace dgc::sim
