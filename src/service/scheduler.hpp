// Cross-tenant batch formation.
//
// The scheduler owns the ADMISSION geometry of packed transciphering: it
// assigns incoming blocks (from any tenant) to SIMD tiles of a forming
// batch, flushes the batch when it fills or when the caller drains, and
// refuses work when the total pending backlog would exceed the configured
// bound (the service maps that refusal to RequestStatus::kOverloaded).
//
// It is deliberately free of ciphertext state: blocks are opaque
// (tenant, handle) pairs, the service keeps the payloads in a side array
// indexed by handle. Time is VIRTUAL — submit and drain take `now` in
// seconds from an arbitrary epoch — and only feeds the arrival -> flush wait
// statistic, so it is exactly testable without sleeping
// (tests/scheduler_test.cpp) and the service can feed it wall-clock offsets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

namespace poe::service {

struct SchedulerConfig {
  /// Tiles per batch (SimdBatchEngine::capacity()).
  std::size_t batch_capacity = 1;
  /// Backlog bound across forming + formed-but-unconsumed blocks;
  /// 0 = unbounded. Saturation is reported via can_accept/submit.
  std::size_t max_pending_blocks = 0;
};

/// Why a batch left the forming stage.
enum class FlushCause : std::uint8_t { kFull = 0, kDrain };
const char* to_string(FlushCause cause);

/// One tile of a forming batch. `handle` is caller-defined (the service
/// uses an index into its pending-block array).
struct ScheduledBlock {
  std::uint64_t tenant = 0;
  std::size_t handle = 0;
  double arrival_s = 0;
};

/// A flushed batch, tiles in arrival order (tile i = blocks[i]).
struct FormedBatch {
  std::vector<ScheduledBlock> blocks;
  FlushCause cause = FlushCause::kFull;
  double flushed_s = 0;
};

struct SchedulerStats {
  std::size_t submitted = 0;  ///< blocks accepted
  std::size_t shed = 0;       ///< blocks refused at saturation
  std::size_t batches = 0;    ///< batches flushed
  std::size_t full_flushes = 0;
  std::size_t drain_flushes = 0;
  std::size_t cross_tenant_batches = 0;  ///< batches packing >1 tenant
  std::size_t max_pending = 0;           ///< peak backlog in blocks
  double occupancy_sum = 0;  ///< sum over batches of blocks/capacity
  double max_wait_s = 0;     ///< worst block arrival -> flush wait
};

class BatchScheduler {
 public:
  explicit BatchScheduler(const SchedulerConfig& config);

  /// Would `blocks` more fit under max_pending_blocks right now? Callers
  /// admitting a multi-block request all-or-nothing check this before
  /// recording any per-request state (e.g. nonces stay replayable after a
  /// shed).
  bool can_accept(std::size_t blocks) const;

  /// Accept one block (false = shed at saturation). Flushes the forming
  /// batch after the append if it filled.
  bool submit(const ScheduledBlock& block, double now);

  /// End-of-stream: flush whatever is still forming.
  void drain(double now);

  /// Pop the next formed batch (FIFO), if any.
  std::optional<FormedBatch> next();

  /// Backlog: forming + formed-but-unpopped blocks.
  std::size_t pending_blocks() const {
    return forming_.size() + ready_blocks_;
  }
  const SchedulerStats& stats() const { return stats_; }
  const SchedulerConfig& config() const { return config_; }

 private:
  void flush(FlushCause cause, double now);

  SchedulerConfig config_;
  std::vector<ScheduledBlock> forming_;
  std::deque<FormedBatch> ready_;
  std::size_t ready_blocks_ = 0;
  SchedulerStats stats_;
};

}  // namespace poe::service
