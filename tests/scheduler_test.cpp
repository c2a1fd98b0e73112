// Unit tests for the cross-tenant BatchScheduler (ctest label: tier1).
// Everything here runs under VIRTUAL time — the scheduler takes `now` as a
// parameter — so flush causes, block waits and saturation shedding are
// pinned exactly, without a single sleep. The
// end-to-end service behaviour (kOverloaded mapping, packed evaluation) is
// covered by service_test.cpp and fault_test.cpp; this file pins the
// formation logic itself.
#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "service/scheduler.hpp"

namespace poe::service {
namespace {

ScheduledBlock block(std::uint64_t tenant, std::size_t handle, double t) {
  return ScheduledBlock{.tenant = tenant, .handle = handle, .arrival_s = t};
}

TEST(BatchScheduler, FullBatchFlushesImmediately) {
  BatchScheduler sched(SchedulerConfig{.batch_capacity = 3});
  EXPECT_TRUE(sched.submit(block(1, 0, 0.0), 0.0));
  EXPECT_TRUE(sched.submit(block(2, 1, 0.0), 0.0));
  EXPECT_FALSE(sched.next().has_value());  // still forming
  EXPECT_TRUE(sched.submit(block(1, 2, 0.0), 0.0));

  const auto batch = sched.next();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->cause, FlushCause::kFull);
  ASSERT_EQ(batch->blocks.size(), 3u);
  // Tiles are assigned in arrival order: tile i = i-th submitted block.
  EXPECT_EQ(batch->blocks[0].handle, 0u);
  EXPECT_EQ(batch->blocks[1].handle, 1u);
  EXPECT_EQ(batch->blocks[2].handle, 2u);
  EXPECT_EQ(sched.stats().full_flushes, 1u);
  EXPECT_EQ(sched.stats().cross_tenant_batches, 1u);  // tenants {1, 2}
  EXPECT_DOUBLE_EQ(sched.stats().occupancy_sum, 1.0);
}

TEST(BatchScheduler, DrainFlushesRemainder) {
  BatchScheduler sched(SchedulerConfig{.batch_capacity = 4});
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(sched.submit(block(7, i, 0.0), 0.0));
  }
  sched.drain(0.5);

  const auto full = sched.next();
  const auto rest = sched.next();
  ASSERT_TRUE(full.has_value());
  ASSERT_TRUE(rest.has_value());
  EXPECT_EQ(full->cause, FlushCause::kFull);
  EXPECT_EQ(full->blocks.size(), 4u);
  EXPECT_EQ(rest->cause, FlushCause::kDrain);
  EXPECT_EQ(rest->blocks.size(), 2u);
  EXPECT_FALSE(sched.next().has_value());
  EXPECT_EQ(sched.pending_blocks(), 0u);
  EXPECT_EQ(sched.stats().cross_tenant_batches, 0u);  // single tenant
  EXPECT_EQ(std::string(to_string(full->cause)), "full");
  EXPECT_EQ(std::string(to_string(rest->cause)), "drain");

  // An empty drain is a no-op, not an empty batch.
  sched.drain(1.0);
  EXPECT_FALSE(sched.next().has_value());
  EXPECT_EQ(sched.stats().batches, 2u);
}

TEST(BatchScheduler, SaturatedBacklogShedsDeterministically) {
  // Backlog bound counts forming AND formed-but-unconsumed blocks: with
  // max_pending_blocks = 4 and nothing consumed, the 5th submit sheds —
  // every time, under virtual time, no races involved.
  BatchScheduler sched(SchedulerConfig{.batch_capacity = 4,
                                       .max_pending_blocks = 4});
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(sched.can_accept(1));
    EXPECT_TRUE(sched.submit(block(1, i, 0.0), 0.0));
  }
  // The batch flushed full but was not consumed: still 4 pending.
  EXPECT_EQ(sched.pending_blocks(), 4u);
  EXPECT_FALSE(sched.can_accept(1));
  EXPECT_FALSE(sched.submit(block(1, 4, 0.0), 0.0));
  EXPECT_EQ(sched.stats().shed, 1u);
  EXPECT_EQ(sched.stats().submitted, 4u);

  // Consuming the formed batch frees the backlog; the same block is
  // accepted on resubmission.
  EXPECT_TRUE(sched.next().has_value());
  EXPECT_TRUE(sched.can_accept(4));
  EXPECT_TRUE(sched.submit(block(1, 4, 1.0), 1.0));
  EXPECT_EQ(sched.stats().shed, 1u);

  // A multi-block request that would overflow is refused up front.
  EXPECT_TRUE(sched.can_accept(3));
  EXPECT_FALSE(sched.can_accept(4));
}

TEST(BatchScheduler, StatsPartitionInvariant) {
  // submitted == sum of flushed batch sizes + still-pending blocks, and
  // submitted + shed == everything offered; flush causes partition batches.
  BatchScheduler sched(SchedulerConfig{.batch_capacity = 2,
                                       .max_pending_blocks = 5});
  std::size_t offered = 0, accepted = 0;
  auto offer = [&](std::uint64_t tenant, double t) {
    ++offered;
    if (sched.submit(block(tenant, offered, t), t)) ++accepted;
  };
  offer(1, 0.0);
  offer(2, 0.1);  // -> full flush
  offer(1, 0.2);
  offer(3, 0.3);  // -> full flush
  offer(3, 0.4);     // 4 ready + 1 forming = 5 pending (at the bound)
  offer(1, 0.5);     // would make 6 > 5: shed
  sched.drain(1.0);  // -> drain flush of the forming block

  const SchedulerStats& stats = sched.stats();
  EXPECT_EQ(stats.submitted, accepted);
  EXPECT_EQ(stats.shed, offered - accepted);
  EXPECT_EQ(stats.full_flushes, 2u);
  EXPECT_EQ(stats.drain_flushes, 1u);
  EXPECT_EQ(stats.full_flushes + stats.drain_flushes, stats.batches);
  std::size_t flushed_blocks = 0, popped = 0;
  while (auto batch = sched.next()) {
    flushed_blocks += batch->blocks.size();
    ++popped;
  }
  EXPECT_EQ(popped, stats.batches);
  EXPECT_EQ(flushed_blocks + sched.pending_blocks(), stats.submitted);
  EXPECT_EQ(stats.max_pending, 5u);
  // The worst wait is the drained block's: arrived at 0.4, flushed at 1.0.
  EXPECT_DOUBLE_EQ(stats.max_wait_s, 0.6);
  EXPECT_GT(stats.occupancy_sum, 0.0);
}

TEST(BatchScheduler, RejectsZeroCapacity) {
  EXPECT_THROW(BatchScheduler(SchedulerConfig{.batch_capacity = 0}),
               poe::Error);
}

}  // namespace
}  // namespace poe::service
