#include "service/scheduler.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/error.hpp"

namespace poe::service {

const char* to_string(FlushCause cause) {
  switch (cause) {
    case FlushCause::kFull:
      return "full";
    case FlushCause::kDrain:
      return "drain";
  }
  return "?";
}

BatchScheduler::BatchScheduler(const SchedulerConfig& config)
    : config_(config) {
  POE_ENSURE(config_.batch_capacity >= 1, "scheduler needs capacity >= 1");
  forming_.reserve(config_.batch_capacity);
}

bool BatchScheduler::can_accept(std::size_t blocks) const {
  return config_.max_pending_blocks == 0 ||
         pending_blocks() + blocks <= config_.max_pending_blocks;
}

bool BatchScheduler::submit(const ScheduledBlock& block, double now) {
  if (!can_accept(1)) {
    ++stats_.shed;
    return false;
  }
  forming_.push_back(block);
  ++stats_.submitted;
  stats_.max_pending = std::max(stats_.max_pending, pending_blocks());
  if (forming_.size() == config_.batch_capacity) {
    flush(FlushCause::kFull, now);
  }
  return true;
}

void BatchScheduler::drain(double now) {
  if (!forming_.empty()) flush(FlushCause::kDrain, now);
}

std::optional<FormedBatch> BatchScheduler::next() {
  if (ready_.empty()) return std::nullopt;
  FormedBatch out = std::move(ready_.front());
  ready_.pop_front();
  ready_blocks_ -= out.blocks.size();
  return out;
}

void BatchScheduler::flush(FlushCause cause, double now) {
  FormedBatch batch;
  batch.blocks = std::move(forming_);
  batch.cause = cause;
  batch.flushed_s = now;
  forming_.clear();
  forming_.reserve(config_.batch_capacity);

  ++stats_.batches;
  switch (cause) {
    case FlushCause::kFull:
      ++stats_.full_flushes;
      break;
    case FlushCause::kDrain:
      ++stats_.drain_flushes;
      break;
  }
  stats_.occupancy_sum += static_cast<double>(batch.blocks.size()) /
                          static_cast<double>(config_.batch_capacity);
  std::unordered_set<std::uint64_t> tenants;
  for (const auto& block : batch.blocks) {
    tenants.insert(block.tenant);
    stats_.max_wait_s = std::max(stats_.max_wait_s, now - block.arrival_s);
  }
  if (tenants.size() > 1) ++stats_.cross_tenant_batches;

  ready_blocks_ += batch.blocks.size();
  ready_.push_back(std::move(batch));
}

}  // namespace poe::service
