// Allocation-count regression harness (ctest label: alloc).
//
// The warmed-up transcipher hot path is contractually allocation-free: after
// one block has flowed through a server, every later block must be served
// entirely from BufferPool slab reuse — zero pool misses, and a flat
// peak-outstanding watermark (no new slabs minted, no growth in concurrently
// live slabs). These tests pin that contract per kernel backend and for the
// packed service path, so a future change that sneaks a fresh allocation or
// a ciphertext copy into the diagonal loop fails CI here rather than
// showing up as a quiet throughput regression. (The one-tile batch is not
// tested separately: the engine's circuit does not depend on occupancy.)
//
// Methodology: each test builds its OWN ExecContext (own pool, own
// counters), runs warm-up blocks to reach steady state, snapshots
// {pool misses, peak outstanding slabs}, runs 16 more blocks, and asserts
// both numbers are unchanged. Pool HITS are expected to grow — traffic
// still flows through the pool; it just never misses.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/exec_context.hpp"
#include "common/rng.hpp"
#include "fhe/bgv.hpp"
#include "fhe/encoding.hpp"
#include "hhe/batched_server.hpp"
#include "hhe/protocol.hpp"
#include "hhe/simd_batch.hpp"
#include "kernels/backend.hpp"
#include "pasta/cipher.hpp"
#include "service/service.hpp"

namespace poe {
namespace {

using u64 = std::uint64_t;

std::vector<u64> random_msg(Xoshiro256& rng, u64 p, std::size_t len) {
  std::vector<u64> msg(len);
  for (auto& m : msg) m = rng.below(p);
  return msg;
}

struct PoolMark {
  u64 misses;
  u64 peak;
};

PoolMark mark(const ExecContext& exec) {
  return {exec.pool().misses(), exec.pool().peak_outstanding()};
}

// ------------------------------------------------ SIMD batch engine, per backend

TEST(AllocRegression, SimdBatchEngineSteadyStateIsAllocationFree) {
  const hhe::HheConfig config = hhe::HheConfig::batched_test();
  for (const kernels::Backend* backend : kernels::available_backends()) {
    SCOPED_TRACE(backend->name());
    ExecContext exec(nullptr, backend);
    fhe::Bgv bgv(config.bgv, &exec);
    fhe::BatchEncoder encoder(config.bgv.n, config.bgv.t);
    fhe::SlotLayout layout(config.bgv.n, config.bgv.t);

    Xoshiro256 rng(0x51D);
    const auto key = pasta::PastaCipher::random_key(config.pasta, rng);
    pasta::PastaCipher sw(config.pasta, key);
    const auto key_ct =
        hhe::encrypt_key_batched(config, bgv, encoder, layout, key);
    hhe::SimdBatchEngine engine(
        config, bgv, hhe::SimdBatchEngine::make_shared_rotation_keys(config, bgv));

    const auto msg = random_msg(rng, config.pasta.p, config.pasta.t);
    u64 counter = 0;
    auto evaluate_batch = [&](std::size_t blocks) {
      std::vector<hhe::SimdBlockRequest> reqs;
      for (std::size_t i = 0; i < blocks; ++i) {
        reqs.push_back({.nonce = 7,
                        .counter = counter,
                        .symmetric_ct = sw.encrypt(msg, 7)});
        ++counter;
      }
      engine.evaluate(key_ct, engine.prepare(reqs));
    };

    evaluate_batch(4);  // warm-up batch
    const PoolMark warm = mark(exec);
    for (int b = 0; b < 4; ++b) evaluate_batch(4);  // 16 measured blocks
    const PoolMark after = mark(exec);

    EXPECT_EQ(after.misses, warm.misses)
        << "a warmed-up SIMD batch minted a new slab";
    EXPECT_EQ(after.peak, warm.peak)
        << "a warmed-up SIMD batch grew the set of concurrently live slabs";
  }
}

// ------------------------------------------------------- packed service path

struct ServiceClient {
  u64 id;
  std::vector<u64> key;
  pasta::PastaCipher cipher;

  ServiceClient(const hhe::HheConfig& config, u64 client_id, u64 seed)
      : id(client_id),
        key([&] {
          Xoshiro256 rng(seed);
          return pasta::PastaCipher::random_key(config.pasta, rng);
        }()),
        cipher(config.pasta, key) {}
};

// Drive the cross-tenant packed service to steady state, then assert the
// pool stopped minting slabs: no new misses and a flat high-water mark.
// Prepare and evaluate run in sequence on the caller's thread, so the
// watermark is deterministic.
TEST(AllocRegression, PackedServiceSteadyStateIsAllocationFree) {
  const hhe::HheConfig config = hhe::HheConfig::batched_test();
  ExecContext exec;
  fhe::Bgv bgv(config.bgv, &exec);
  fhe::BatchEncoder encoder(config.bgv.n, config.bgv.t);
  fhe::SlotLayout layout(config.bgv.n, config.bgv.t);

  service::TranscipherService service(config, bgv);

  std::vector<ServiceClient> clients;
  for (u64 c = 0; c < 2; ++c) {
    clients.emplace_back(config, c, 0xBEEF + c);
    service.open_session(
        clients.back().id,
        hhe::encrypt_key_batched(config, bgv, encoder, layout,
                                 clients.back().key));
  }

  Xoshiro256 rng(99);
  const auto msg = random_msg(rng, config.pasta.p, config.pasta.t);
  u64 nonce = 1;
  auto process_blocks = [&](std::size_t blocks) {
    std::vector<service::TranscipherRequest> reqs;
    for (std::size_t i = 0; i < blocks; ++i) {
      const auto& cl = clients[i % clients.size()];
      reqs.push_back({.client_id = cl.id,
                      .nonce = nonce,
                      .symmetric_ct = cl.cipher.encrypt(msg, nonce)});
      ++nonce;
    }
    const auto results = service.process(reqs);
    for (const auto& r : results) {
      ASSERT_TRUE(r.ok()) << r.error;
    }
  };

  process_blocks(8);  // warm-up: faults in merge, prepare and evaluate slabs
  const PoolMark warm = mark(exec);
  process_blocks(8);
  process_blocks(8);
  const PoolMark after = mark(exec);

  EXPECT_EQ(after.misses, warm.misses)
      << "a warmed-up packed batch minted a new slab";
  EXPECT_EQ(after.peak, warm.peak)
      << "a warmed-up packed batch grew the set of concurrently live slabs";
}

// -------------------------------------------- scratch bank under concurrency

// Two workers hammer rotate_hoisted_into on ONE evaluator concurrently.
// The per-Bgv scratch bank must lease each of them a DISTINCT HoistScratch
// (the debug build asserts non-aliasing inside ScratchLease); the outputs
// must stay bit-identical to the single-threaded allocating reference.
TEST(AllocRegression, ConcurrentHoistedRotationsUseDistinctScratch) {
  const hhe::HheConfig config = hhe::HheConfig::test();
  ExecContext exec;
  fhe::Bgv bgv(config.bgv, &exec);
  fhe::BatchEncoder encoder(config.bgv.n, config.bgv.t);
  fhe::SlotLayout layout(config.bgv.n, config.bgv.t);

  const std::vector<long> steps{1, 3};
  const fhe::GaloisKeys keys = bgv.make_rotation_keys(steps);

  Xoshiro256 rng(2024);
  std::vector<u64> logical(config.bgv.n);
  for (auto& x : logical) x = rng.below(config.bgv.t);
  const fhe::Ciphertext ct = bgv.encrypt(encoder.encode(layout.to_slots(logical)));
  const fhe::HoistedCt hoisted = bgv.hoist(ct);

  // Allocating reference per step (rotate_hoisted_into is bit-identical to
  // rotate_hoisted by construction; see the differential suite).
  std::vector<fhe::Ciphertext> want;
  for (const long step : steps) {
    want.push_back(bgv.rotate_hoisted(hoisted, step, keys));
  }

  auto bits_equal = [](const fhe::Ciphertext& a, const fhe::Ciphertext& b) {
    if (a.level != b.level || a.parts.size() != b.parts.size()) return false;
    for (std::size_t p = 0; p < a.parts.size(); ++p) {
      if (a.parts[p].is_ntt() != b.parts[p].is_ntt()) return false;
      for (std::size_t i = 0; i < a.level; ++i) {
        const auto ra = a.parts[p].rns(i);
        const auto rb = b.parts[p].rns(i);
        if (!std::equal(ra.begin(), ra.end(), rb.begin())) return false;
      }
    }
    return true;
  };

  constexpr int kIters = 32;
  std::atomic<int> mismatches{0};
  auto worker = [&](std::size_t offset) {
    fhe::Ciphertext out;  // reused across iterations, thread-private
    for (int it = 0; it < kIters; ++it) {
      const std::size_t which = (offset + static_cast<std::size_t>(it)) % steps.size();
      bgv.rotate_hoisted_into(hoisted, steps[which], keys, out);
      if (!bits_equal(out, want[which])) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  std::thread t0(worker, 0);
  std::thread t1(worker, 1);
  t0.join();
  t1.join();
  EXPECT_EQ(mismatches.load(), 0)
      << "concurrent hoisted rotations corrupted each other's scratch";
}

}  // namespace
}  // namespace poe
