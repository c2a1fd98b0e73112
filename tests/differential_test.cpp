// Cross-layer differential suite (ctest label: diff).
//
// The repo has four implementations of the PASTA keystream that must agree
// bit-for-bit: the reference software cipher, the cycle-accurate hardware
// model, and the homomorphic evaluations of the coefficient-wise server and
// the SIMD batch engine (where "agree" means the transciphered BGV
// plaintext recovers exactly the message the software cipher encrypted).
// These tests pin all of them against each other over seeded configurations;
// the nightly randomized sweep lives in differential_slow_test.cpp.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/exec_context.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "fhe/bgv.hpp"
#include "fhe/noise.hpp"
#include "fhe/param_search.hpp"
#include "kernels/backend.hpp"
#include "hhe/batched_server.hpp"
#include "hhe/protocol.hpp"
#include "hhe/simd_batch.hpp"
#include "hw/accelerator.hpp"
#include "pasta/cipher.hpp"
#include "service/service.hpp"

namespace poe {
namespace {

using u64 = std::uint64_t;

// Building a BGV evaluator (and rotation keys) dominates the suite runtime,
// so each parameter set is constructed once per binary.
struct CoeffStack {
  hhe::HheConfig config = hhe::HheConfig::test();
  fhe::Bgv bgv{config.bgv};
};

CoeffStack& coeff() {
  static CoeffStack s;
  return s;
}

struct BatchedStack {
  hhe::HheConfig config = hhe::HheConfig::batched_test();
  fhe::Bgv bgv{config.bgv};
  fhe::BatchEncoder encoder{config.bgv.n, config.bgv.t};
  fhe::SlotLayout layout{config.bgv.n, config.bgv.t};
  std::shared_ptr<const fhe::GaloisKeys> simd_keys =
      hhe::SimdBatchEngine::make_shared_rotation_keys(config, bgv);
};

BatchedStack& batched() {
  static BatchedStack s;
  return s;
}

std::vector<u64> random_msg(Xoshiro256& rng, u64 p, std::size_t len) {
  std::vector<u64> msg(len);
  for (auto& m : msg) m = rng.below(p);
  return msg;
}

// The engine's one-tile serving shape (key merge -> evaluate -> masked
// extraction) — what the service runs for a batch holding one block.
// Returns the decoded message.
std::vector<u64> transcipher_one_tile(const BatchedStack& s,
                                      const fhe::Ciphertext& key_ct,
                                      std::vector<u64> sym_ct, u64 nonce,
                                      u64 counter) {
  const hhe::SimdBatchEngine engine(s.config, s.bgv, s.simd_keys);
  const std::size_t len = sym_ct.size();
  const std::vector<hhe::SimdBlockRequest> block{
      {.nonce = nonce, .counter = counter, .symmetric_ct = std::move(sym_ct)}};
  const std::vector<std::size_t> tiles{0};
  const std::vector<hhe::TenantTiles> tenant{{&key_ct, tiles}};
  const fhe::Ciphertext out = engine.extract_tiles(
      engine.evaluate(engine.merge_tenant_keys(tenant), engine.prepare(block)),
      tiles);
  return hhe::SimdBatchEngine::decode_block(s.config, s.bgv, out, 0, len);
}

// ---------------------------------------------------------------- sw == hw

class SwHwKeystream : public ::testing::TestWithParam<int> {};

TEST_P(SwHwKeystream, KeystreamAndEncryptMatch) {
  const int seed = GetParam();
  // Alternate between the full PASTA-4 instance and the reduced test
  // instance so both parameterizations stay pinned.
  const pasta::PastaParams params =
      seed % 2 == 0 ? pasta::pasta4() : hhe::HheConfig::test().pasta;
  Xoshiro256 rng(static_cast<u64>(seed) * 1009 + 7);
  const auto key = pasta::PastaCipher::random_key(params, rng);
  pasta::PastaCipher sw(params, key);
  hw::AcceleratorSim hw_sim(params);
  const u64 nonce = rng.next();

  for (const u64 counter : {u64{0}, u64{1}, u64{5}}) {
    const auto hw_block = hw_sim.run_block(key, nonce, counter);
    EXPECT_EQ(hw_block.keystream, sw.keystream(nonce, counter))
        << "seed=" << seed << " counter=" << counter;
  }

  const auto msg = random_msg(rng, params.p, 2 * params.t + 3);
  const auto hw_ct = hw_sim.encrypt(key, msg, nonce).ciphertext;
  EXPECT_EQ(hw_ct, sw.encrypt(msg, nonce)) << "seed=" << seed;
  EXPECT_EQ(sw.decrypt(hw_ct, nonce), msg) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwHwKeystream, ::testing::Range(1, 21));

// ------------------------------------------- sw == hw == coefficient-wise

class CoeffServerDifferential : public ::testing::TestWithParam<int> {};

TEST_P(CoeffServerDifferential, HwCiphertextRecoversThroughServer) {
  auto& s = coeff();
  const int seed = GetParam();
  Xoshiro256 rng(static_cast<u64>(seed) * 31 + 5);
  const auto key = pasta::PastaCipher::random_key(s.config.pasta, rng);
  hhe::HheClient client(s.config, s.bgv, key);
  hhe::HheServer server(s.config, s.bgv, client.encrypt_key());

  const auto msg = random_msg(rng, s.config.pasta.p, s.config.pasta.t);
  const u64 nonce = 1000 + static_cast<u64>(seed);
  const auto sym_ct = client.encrypt(msg, nonce);

  // The hardware model must produce the very bytes the server consumes.
  hw::AcceleratorSim hw_sim(s.config.pasta);
  EXPECT_EQ(hw_sim.encrypt(key, msg, nonce).ciphertext, sym_ct);

  hhe::ServerReport report;
  const auto fhe_cts = server.transcipher_block(sym_ct, nonce, 0, &report);
  EXPECT_EQ(client.decrypt_result(fhe_cts), msg) << "seed=" << seed;
  EXPECT_GT(report.min_noise_budget_bits, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoeffServerDifferential,
                         ::testing::Values(1, 2, 3));

TEST(CoeffServerDifferential2, PreparedBlockMatchesDirectPath) {
  // A block at a nonzero counter decrypts through the server, and
  // prepare_block materialises what the keystream circuit needs for it.
  auto& s = coeff();
  Xoshiro256 rng(777);
  const auto key = pasta::PastaCipher::random_key(s.config.pasta, rng);
  hhe::HheClient client(s.config, s.bgv, key);
  hhe::HheServer server(s.config, s.bgv, client.encrypt_key());

  const auto msg = random_msg(rng, s.config.pasta.p, s.config.pasta.t);
  const u64 nonce = 4242, counter = 3;
  // encrypt() numbers blocks from counter 0; re-derive block 0's stream for
  // a custom counter via the raw keystream.
  const auto ks = client.cipher().keystream(nonce, counter);
  std::vector<u64> sym_at_counter(msg.size());
  for (std::size_t i = 0; i < msg.size(); ++i) {
    sym_at_counter[i] = (msg[i] + ks[i]) % s.config.pasta.p;
  }

  const auto direct = server.transcipher_block(sym_at_counter, nonce, counter);
  const auto prep = hhe::prepare_block(s.config.pasta, nonce, counter);
  EXPECT_EQ(prep.nonce, nonce);
  EXPECT_EQ(prep.counter, counter);
  EXPECT_EQ(prep.mat_l.size(), s.config.pasta.rounds + 1);
  EXPECT_EQ(client.decrypt_result(direct), msg);
}

// ------------------------------------------- sw == one-tile SIMD engine

class BatchedServerDifferential : public ::testing::TestWithParam<int> {};

TEST_P(BatchedServerDifferential, RoundTripThroughSharedKeys) {
  auto& s = batched();
  const int seed = GetParam();
  Xoshiro256 rng(static_cast<u64>(seed) * 127 + 1);
  const auto key = pasta::PastaCipher::random_key(s.config.pasta, rng);
  pasta::PastaCipher sw(s.config.pasta, key);
  const auto key_ct =
      hhe::encrypt_key_batched(s.config, s.bgv, s.encoder, s.layout, key);

  const auto msg = random_msg(rng, s.config.pasta.p, s.config.pasta.t);
  const u64 nonce = 2000 + static_cast<u64>(seed);
  EXPECT_EQ(transcipher_one_tile(s, key_ct, sw.encrypt(msg, nonce), nonce, 0),
            msg)
      << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchedServerDifferential,
                         ::testing::Values(1, 2));

// ------------------------------------------------------ sw == SIMD batches

// One block at a nonzero counter through three implementations: the
// software cipher's keystream, the coefficient-wise server and the
// one-tile engine.
TEST(SimdBatchDifferential, SingleBlockMatchesCoefficientServer) {
  auto& s = batched();
  auto& c = coeff();
  ASSERT_EQ(s.config.pasta.t, c.config.pasta.t);
  Xoshiro256 rng(31337);
  const auto key = pasta::PastaCipher::random_key(s.config.pasta, rng);
  pasta::PastaCipher sw(s.config.pasta, key);
  const auto key_ct =
      hhe::encrypt_key_batched(s.config, s.bgv, s.encoder, s.layout, key);

  const auto msg = random_msg(rng, s.config.pasta.p, s.config.pasta.t);
  const u64 nonce = 555, counter = 2;
  const auto ks = sw.keystream(nonce, counter);
  std::vector<u64> sym_ct(msg.size());
  for (std::size_t i = 0; i < msg.size(); ++i) {
    sym_ct[i] = (msg[i] + ks[i]) % s.config.pasta.p;
  }

  hhe::HheClient client(c.config, c.bgv, key);
  hhe::HheServer server(c.config, c.bgv, client.encrypt_key());
  const auto via_coeff =
      client.decrypt_result(server.transcipher_block(sym_ct, nonce, counter));
  const auto via_simd = transcipher_one_tile(s, key_ct, sym_ct, nonce, counter);

  EXPECT_EQ(via_coeff, msg);
  EXPECT_EQ(via_simd, msg);
  EXPECT_EQ(via_simd, via_coeff);
}

TEST(SimdBatchDifferential, MultiBlockMixedNoncesRoundTrip) {
  auto& s = batched();
  Xoshiro256 rng(90210);
  const auto key = pasta::PastaCipher::random_key(s.config.pasta, rng);
  pasta::PastaCipher sw(s.config.pasta, key);
  const auto key_ct =
      hhe::encrypt_key_batched(s.config, s.bgv, s.encoder, s.layout, key);
  hhe::SimdBatchEngine engine(s.config, s.bgv, s.simd_keys);

  const std::size_t blocks = 5;
  std::vector<hhe::SimdBlockRequest> reqs(blocks);
  std::vector<std::vector<u64>> msgs(blocks);
  for (std::size_t m = 0; m < blocks; ++m) {
    const std::size_t len = m == 3 ? 2 : s.config.pasta.t;  // one short block
    msgs[m] = random_msg(rng, s.config.pasta.p, len);
    reqs[m].nonce = 10 * m + 1;
    reqs[m].counter = m % 3;
    const auto ks = sw.keystream(reqs[m].nonce, reqs[m].counter);
    reqs[m].symmetric_ct.resize(len);
    for (std::size_t i = 0; i < len; ++i) {
      reqs[m].symmetric_ct[i] = (msgs[m][i] + ks[i]) % s.config.pasta.p;
    }
  }

  hhe::ServerReport report;
  const auto ct = engine.evaluate(key_ct, engine.prepare(reqs), &report);
  EXPECT_GT(report.min_noise_budget_bits, 0.0);
  // The same multiplicative depth as one block: 5 ct-ct multiplications.
  EXPECT_EQ(report.ct_ct_multiplications, s.config.pasta.rounds + 1);
  for (std::size_t m = 0; m < blocks; ++m) {
    EXPECT_EQ(hhe::SimdBatchEngine::decode_block(s.config, s.bgv, ct, m,
                                                 msgs[m].size()),
              msgs[m])
        << "tile " << m;
  }
}

TEST(SimdBatchDifferential, FullCapacityRoundTrip) {
  auto& s = batched();
  Xoshiro256 rng(8086);
  const auto key = pasta::PastaCipher::random_key(s.config.pasta, rng);
  pasta::PastaCipher sw(s.config.pasta, key);
  const auto key_ct =
      hhe::encrypt_key_batched(s.config, s.bgv, s.encoder, s.layout, key);
  hhe::SimdBatchEngine engine(s.config, s.bgv, s.simd_keys);

  const std::size_t blocks = engine.capacity();
  std::vector<hhe::SimdBlockRequest> reqs(blocks);
  std::vector<std::vector<u64>> msgs(blocks);
  for (std::size_t m = 0; m < blocks; ++m) {
    msgs[m] = random_msg(rng, s.config.pasta.p, s.config.pasta.t);
    reqs[m].nonce = 7;
    reqs[m].counter = m;  // one long message split across every tile
    const auto ks = sw.keystream(reqs[m].nonce, reqs[m].counter);
    reqs[m].symmetric_ct.resize(msgs[m].size());
    for (std::size_t i = 0; i < msgs[m].size(); ++i) {
      reqs[m].symmetric_ct[i] = (msgs[m][i] + ks[i]) % s.config.pasta.p;
    }
  }

  const auto ct = engine.evaluate(key_ct, engine.prepare(reqs));
  for (std::size_t m = 0; m < blocks; ++m) {
    ASSERT_EQ(hhe::SimdBatchEngine::decode_block(s.config, s.bgv, ct, m,
                                                 msgs[m].size()),
              msgs[m])
        << "tile " << m;
  }
}

// ------------------------------------- hoisted == unhoisted rotation path

namespace {
::testing::AssertionResult ciphertext_bits_equal(const fhe::Ciphertext& a,
                                                 const fhe::Ciphertext& b) {
  if (a.level != b.level || a.parts.size() != b.parts.size()) {
    return ::testing::AssertionFailure()
           << "shape mismatch: level " << a.level << " vs " << b.level
           << ", parts " << a.parts.size() << " vs " << b.parts.size();
  }
  for (std::size_t p = 0; p < a.parts.size(); ++p) {
    if (a.parts[p].is_ntt() != b.parts[p].is_ntt()) {
      return ::testing::AssertionFailure() << "NTT-form mismatch in part " << p;
    }
    for (std::size_t i = 0; i < a.level; ++i) {
      const auto ra = a.parts[p].rns(i);
      const auto rb = b.parts[p].rns(i);
      for (std::size_t j = 0; j < ra.size(); ++j) {
        if (ra[j] != rb[j]) {
          return ::testing::AssertionFailure()
                 << "part " << p << " component " << i << " word " << j << ": "
                 << ra[j] << " != " << rb[j];
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}
}  // namespace

TEST(HoistedRotationDifferential, AgreesWithUnhoistedAcrossStepsAndLevels) {
  auto& s = batched();
  Xoshiro256 rng(424242);
  const auto logical = random_msg(rng, s.config.bgv.t, s.config.bgv.n);
  auto ct = s.bgv.encrypt(s.encoder.encode(s.layout.to_slots(logical)));

  for (int drop = 0; drop < 2; ++drop) {
    if (drop == 1) s.bgv.mod_switch_inplace(ct);
    const fhe::HoistedCt hoisted = s.bgv.hoist(ct);
    for (const long step : hhe::SimdBatchEngine::rotation_steps(s.config)) {
      fhe::Ciphertext unhoisted = ct;
      s.bgv.rotate_columns_inplace(unhoisted, step, *s.simd_keys);
      const fhe::Ciphertext via_hoist =
          s.bgv.rotate_hoisted(hoisted, step, *s.simd_keys);
      // Both paths decompose the UNROTATED c1 and apply tau once to the
      // finished parts (the galois key is stored tau^-1-permuted), so the
      // prime-major rotation must match the digit-form reference bit for
      // bit.
      EXPECT_TRUE(ciphertext_bits_equal(via_hoist, unhoisted))
          << "step " << step << " drop " << drop;
      EXPECT_EQ(s.bgv.decrypt(via_hoist).coeffs, s.bgv.decrypt(unhoisted).coeffs)
          << "step " << step << " drop " << drop;
      EXPECT_GT(s.bgv.noise_budget_bits(via_hoist), 0.0) << "step " << step;
    }
  }
}

// -------------------------------- in-place == allocating hoisted rotation


// The in-place path MUST be bit-identical to the allocating one: it runs
// the same digit inner product, just into leased scratch with the closing
// permutation fused. Agreement here is on raw ciphertext words.
TEST(HoistedRotationDifferential, InPlaceMatchesAllocatingBitForBit) {
  auto& s = batched();
  Xoshiro256 rng(515151);
  const auto logical = random_msg(rng, s.config.bgv.t, s.config.bgv.n);
  auto ct = s.bgv.encrypt(s.encoder.encode(s.layout.to_slots(logical)));

  for (int drop = 0; drop < 2; ++drop) {
    if (drop == 1) s.bgv.mod_switch_inplace(ct);
    const fhe::HoistedCt hoisted = s.bgv.hoist(ct);
    // ONE output ciphertext reused across every step, exactly like the
    // serving loops reuse theirs across diagonals.
    fhe::Ciphertext out;
    for (const long step : hhe::SimdBatchEngine::rotation_steps(s.config)) {
      const fhe::Ciphertext want =
          s.bgv.rotate_hoisted(hoisted, step, *s.simd_keys);
      s.bgv.rotate_hoisted_into(hoisted, step, *s.simd_keys, out);
      EXPECT_TRUE(ciphertext_bits_equal(out, want))
          << "step " << step << " drop " << drop;
    }
  }
}

// Ragged diagonal-loop lengths: a serving loop that touches 1, s-1 or s
// diagonals (k = 0 never rotates) must leave the reused output correct on
// every iteration it does run, regardless of what shape the previous loop
// left behind in it.
TEST(HoistedRotationDifferential, ReusedOutputSurvivesRaggedDiagonalCounts) {
  auto& s = batched();
  Xoshiro256 rng(626262);
  const std::size_t sdim = 2 * s.config.pasta.t;
  const auto logical = random_msg(rng, s.config.bgv.t, s.config.bgv.n);
  const auto ct = s.bgv.encrypt(s.encoder.encode(s.layout.to_slots(logical)));
  const fhe::HoistedCt hoisted = s.bgv.hoist(ct);

  fhe::Ciphertext out;  // deliberately shared across the ragged loops
  for (const std::size_t count : {std::size_t{1}, sdim - 1, sdim}) {
    for (std::size_t k = 1; k < count; ++k) {
      const long step = static_cast<long>(k);
      const fhe::Ciphertext want =
          s.bgv.rotate_hoisted(hoisted, step, *s.simd_keys);
      s.bgv.rotate_hoisted_into(hoisted, step, *s.simd_keys, out);
      EXPECT_TRUE(ciphertext_bits_equal(out, want))
          << "count " << count << " step " << step;
    }
  }
}

// Per kernel backend: the scratch path must match the allocating path on
// that backend bit-for-bit, and both must decrypt to the same rotation the
// non-hoisted reference computes. Uses the smaller coefficient-config ring
// so three keygens stay cheap.
TEST(HoistedRotationDifferential, InPlaceMatchesAllocatingOnEveryBackend) {
  const hhe::HheConfig config = hhe::HheConfig::test();
  for (const kernels::Backend* backend : kernels::available_backends()) {
    SCOPED_TRACE(backend->name());
    ExecContext exec(nullptr, backend);
    fhe::Bgv bgv(config.bgv, &exec);
    fhe::BatchEncoder encoder(config.bgv.n, config.bgv.t);
    fhe::SlotLayout layout(config.bgv.n, config.bgv.t);
    const std::vector<long> steps{1, 7};
    const fhe::GaloisKeys keys = bgv.make_rotation_keys(steps);

    Xoshiro256 rng(737373);
    const auto logical = random_msg(rng, config.bgv.t, config.bgv.n);
    const auto ct = bgv.encrypt(encoder.encode(layout.to_slots(logical)));
    const fhe::HoistedCt hoisted = bgv.hoist(ct);

    fhe::Ciphertext out;
    for (const long step : steps) {
      const fhe::Ciphertext want = bgv.rotate_hoisted(hoisted, step, keys);
      bgv.rotate_hoisted_into(hoisted, step, keys, out);
      EXPECT_TRUE(ciphertext_bits_equal(out, want)) << "step " << step;

      fhe::Ciphertext unhoisted = ct;
      bgv.rotate_columns_inplace(unhoisted, step, keys);
      EXPECT_EQ(bgv.decrypt(out).coeffs, bgv.decrypt(unhoisted).coeffs)
          << "step " << step;
    }
  }
}

// ------------------------------------- fused affine layer == per-diagonal

namespace {
using Accumulators = std::array<fhe::Ciphertext, 2>;
using DiagPairs = std::vector<std::array<fhe::Plaintext, 2>>;

// The composition Bgv::fused_affine replaces: hoist, then one
// rotate_hoisted_into per served rotation, one from_plaintext per diagonal
// and zero-seeded add_mul_inplace, then the layer's accounting (the fused
// bound, and its tape node appended by hand). `state` must be recorded.
Accumulators per_diagonal_affine(const fhe::Bgv& bgv,
                                 const fhe::Ciphertext& state,
                                 const DiagPairs& diags,
                                 const fhe::GaloisKeys& keys,
                                 fhe::NoiseTape& tape) {
  const fhe::HoistedCt hoisted = bgv.hoist(state);
  Accumulators acc;
  std::array<std::uint32_t, 2> terms{0, 0};
  fhe::Ciphertext rot;
  for (std::size_t k = 0; k < diags.size(); ++k) {
    const auto& pair = diags[k];
    if (pair[0].coeffs.empty() && pair[1].coeffs.empty()) continue;
    const fhe::Ciphertext* src = &state;
    if (k != 0) {
      bgv.rotate_hoisted_into(hoisted, static_cast<long>(k), keys, rot);
      src = &rot;
    }
    for (std::size_t v = 0; v < 2; ++v) {
      if (pair[v].coeffs.empty()) continue;
      const fhe::RnsPoly diag = fhe::RnsPoly::from_plaintext(
          &bgv.rns(), state.level, pair[v].coeffs, /*to_ntt_form=*/true);
      if (terms[v]++ == 0) {
        acc[v].level = state.level;
        acc[v].parts.emplace_back(&bgv.rns(), state.level, true);
        acc[v].parts.emplace_back(&bgv.rns(), state.level, true);
      }
      for (std::size_t p = 0; p < 2; ++p) {
        acc[v].parts[p].add_mul_inplace(src->parts[p], diag);
      }
    }
  }
  const fhe::NoiseEstimator est(bgv.params());
  for (std::size_t v = 0; v < 2; ++v) {
    if (terms[v] == 0) continue;
    acc[v].noise_bits =
        est.fused_affine(state.noise_bits, state.level, terms[v]);
    acc[v].trace_id = tape.append({.op = fhe::NoiseOp::kFusedAffine,
                                   .a = state.trace_id,
                                   .terms = terms[v]});
  }
  return acc;
}

// One run of an affine pass: its outputs, the op-counter delta and the
// tape it recorded.
struct AffineRun {
  Accumulators acc;
  CounterSnapshot ops;
  fhe::NoiseTape tape;
};

template <typename Fn>
void record_run(const fhe::Bgv& bgv, ExecContext& exec, AffineRun& run,
                Fn&& pass) {
  const CounterSnapshot before = exec.snapshot();
  bgv.begin_recording(&run.tape);
  run.acc = pass();
  bgv.end_recording();
  run.ops = exec.snapshot() - before;
}

// `copy_gap` is the whole-polynomial copy traffic, in bytes, that the
// reference makes and the pass under test does not.
void expect_same_run(const AffineRun& want, const AffineRun& got,
                     u64 copy_gap) {
  for (std::size_t v = 0; v < 2; ++v) {
    SCOPED_TRACE(v == 0 ? "in-tile" : "wrap");
    ASSERT_EQ(got.acc[v].size(), want.acc[v].size());
    if (want.acc[v].size() == 0) continue;
    EXPECT_TRUE(ciphertext_bits_equal(got.acc[v], want.acc[v]));
    EXPECT_EQ(got.acc[v].noise_bits, want.acc[v].noise_bits);
  }
  // Every op counter; the pool's hit/miss split is left out because the
  // fused pass leases per-prime rows instead of one polynomial per digit
  // and diagonal.
  const auto ops = [](const CounterSnapshot& c) {
    return std::vector<u64>{c.ntt_forward,  c.ntt_inverse,   c.ct_ct_mul,
                            c.key_switch,   c.mod_switch,    c.encode,
                            c.automorphisms, c.hoisted_rotations};
  };
  EXPECT_EQ(ops(got.ops), ops(want.ops));
  EXPECT_EQ(got.ops.bytes_copied + copy_gap, want.ops.bytes_copied);
  const auto& a = want.tape.nodes();
  const auto& b = got.tape.nodes();
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].op == b[i].op && a[i].a == b[i].a && a[i].b == b[i].b &&
                a[i].scalar == b[i].scalar && a[i].terms == b[i].terms)
        << "tape node " << i;
  }
}
}  // namespace

// Bgv::fused_affine against the hoisted per-diagonal reference, bit for
// bit, on every kernel backend, at the levels the circuit visits, for a
// full batch, a sparse one with skipped (empty) diagonals and a wrap-only
// layer. The
// fused pass runs twice: on the pool, and as a nested call, which
// ThreadPool::run executes serially on one thread — so one process covers
// the parallel and the one-thread schedule.
TEST(FusedAffineDifferential, MatchesPerDiagonalOnEveryBackendAndLevel) {
  const hhe::HheConfig config = hhe::HheConfig::batched_test();
  const std::size_t sdim = config.pasta.state_size();
  for (const kernels::Backend* backend : kernels::available_backends()) {
    SCOPED_TRACE(backend->name());
    ExecContext exec(nullptr, backend);
    fhe::Bgv bgv(config.bgv, &exec);
    fhe::BatchEncoder encoder(config.bgv.n, config.bgv.t, &exec);
    fhe::SlotLayout layout(config.bgv.n, config.bgv.t);
    const auto keys =
        hhe::SimdBatchEngine::make_shared_rotation_keys(config, bgv);
    const hhe::SimdBatchEngine engine(config, bgv, keys);

    Xoshiro256 rng(848484);
    std::vector<hhe::SimdBlockRequest> blocks;
    for (std::size_t m = 0; m < engine.capacity(); ++m) {
      blocks.push_back({.nonce = 9,
                        .counter = m,
                        .symmetric_ct = random_msg(rng, config.pasta.p,
                                                   config.pasta.t)});
    }
    const DiagPairs full = engine.prepare(blocks).diags[0];
    DiagPairs sparse = engine.prepare(std::span(blocks).first(1)).diags[0];
    for (std::size_t k = 0; k < sdim; ++k) {
      if (k % 3 == 1) sparse[k][0] = {};
      if (k % 5 == 2) sparse[k] = {};
    }
    DiagPairs wrap_only = full;
    for (auto& pair : wrap_only) pair[0] = {};
    const std::pair<const char*, const DiagPairs*> layers[] = {
        {"full", &full}, {"sparse", &sparse}, {"wrap only", &wrap_only}};

    fhe::NoiseTape setup;
    bgv.begin_recording(&setup);
    const auto logical = random_msg(rng, config.bgv.t, config.bgv.n);
    const fhe::Ciphertext top =
        bgv.encrypt(encoder.encode(layout.to_slots(logical)));
    bgv.end_recording();
    ASSERT_GE(top.trace_id, 0);

    for (const std::size_t level : {12, 10, 7, 5, 3}) {
      SCOPED_TRACE("level " + std::to_string(level));
      fhe::Ciphertext state = top;
      bgv.mod_switch_to(state, level);
      ASSERT_EQ(state.level, level);
      // The reference's hoist copies c0; the fused pass copies nothing.
      const u64 hoist_copy = level * config.bgv.n * sizeof(u64);
      for (const auto& [name, diags] : layers) {
        SCOPED_TRACE(name);
        AffineRun ref, pooled, nested;
        record_run(bgv, exec, ref, [&] {
          return per_diagonal_affine(bgv, state, *diags, *keys, ref.tape);
        });
        record_run(bgv, exec, pooled,
                   [&] { return bgv.fused_affine(state, *diags, *keys); });
        record_run(bgv, exec, nested, [&] {
          Accumulators out;
          parallel_for(2, [&](std::size_t i) {
            if (i == 0) out = bgv.fused_affine(state, *diags, *keys);
          });
          return out;
        });
        expect_same_run(ref, pooled, hoist_copy);
        expect_same_run(ref, nested, hoist_copy);
      }
    }
  }
}

// -------------------------------- one-pass key merge == masked copies

// Bgv::sum_mul_plain, the one-pass tenant-key merge, against the
// composition it replaces: mul_plain_inplace on a copy of each term, then
// add_inplace in term order. Bit for bit, with the same noise bound, tape
// and op counters, on every backend, at the top level and below it.
TEST(SumMulPlainDifferential, MatchesMaskedCopiesOnEveryBackend) {
  const hhe::HheConfig config = hhe::HheConfig::batched_test();
  const std::size_t n = config.bgv.n;
  for (const kernels::Backend* backend : kernels::available_backends()) {
    SCOPED_TRACE(backend->name());
    ExecContext exec(nullptr, backend);
    fhe::Bgv bgv(config.bgv, &exec);
    fhe::BatchEncoder encoder(n, config.bgv.t, &exec);
    Xoshiro256 rng(515151);
    std::vector<fhe::Ciphertext> top;
    std::vector<fhe::Plaintext> pts;
    for (int k = 0; k < 5; ++k) {
      top.push_back(
          bgv.encrypt(encoder.encode(random_msg(rng, config.bgv.t, n))));
      pts.push_back(encoder.encode(random_msg(rng, config.bgv.t, n)));
    }
    for (const std::size_t level : {bgv.top_level(), std::size_t{4}}) {
      SCOPED_TRACE("level " + std::to_string(level));
      std::vector<fhe::Ciphertext> cts = top;
      std::vector<const fhe::Ciphertext*> terms;
      for (auto& ct : cts) {
        bgv.mod_switch_to(ct, level);
        terms.push_back(&ct);
      }
      AffineRun want, got;
      record_run(bgv, exec, want, [&] {
        Accumulators acc;
        for (std::size_t k = 0; k < cts.size(); ++k) {
          fhe::Ciphertext masked = cts[k];
          bgv.mul_plain_inplace(masked, pts[k]);
          if (k == 0) {
            acc[0] = std::move(masked);
          } else {
            bgv.add_inplace(acc[0], masked);
          }
        }
        return acc;
      });
      record_run(bgv, exec, got, [&] {
        return Accumulators{bgv.sum_mul_plain(terms, pts), {}};
      });
      // The composition copies every term; the one pass copies nothing.
      expect_same_run(want, got, cts.size() * 2 * level * n * sizeof(u64));
    }
  }
}

// ------------------------------------------------- golden evaluate output

namespace {
// FNV-1a over the level, the part count and every residue word.
u64 ciphertext_hash(const fhe::Ciphertext& ct) {
  u64 h = 0xcbf29ce484222325ull;
  const auto mix = [&h](u64 word) {
    for (int byte = 0; byte < 8; ++byte) {
      h = (h ^ ((word >> (8 * byte)) & 0xff)) * 0x100000001b3ull;
    }
  };
  mix(ct.level);
  mix(ct.parts.size());
  for (const auto& part : ct.parts) {
    for (std::size_t i = 0; i < ct.level; ++i) {
      for (const u64 word : part.rns(i)) mix(word);
    }
  }
  return h;
}
}  // namespace

// One full batch under batched_test(), with the evaluator key, rotation
// keys, PASTA key, nonces and messages all fixed by seeds: the hash of the
// evaluate() output pins every residue of the circuit (key layout, kernel
// inner products, mod switches), so a change that alters one word fails
// here even when the output still decrypts. The value was recorded with
// row-form keys, before the interleaved key slabs. Each backend runs in a
// fresh ExecContext; the thread counts come from ctest, which runs this
// test at POE_THREADS=1, 2 and 4 (GoldenEvaluate.Threads*).
TEST(GoldenEvaluate, BatchedOutputHashIsPinnedOnEveryBackend) {
  constexpr u64 kGoldenHash = 0x44c7a8fb291bc8afull;
  const hhe::HheConfig config = hhe::HheConfig::batched_test();
  for (const kernels::Backend* backend : kernels::available_backends()) {
    SCOPED_TRACE(backend->name());
    ExecContext exec(nullptr, backend);
    fhe::Bgv bgv(config.bgv, &exec);
    fhe::BatchEncoder encoder(config.bgv.n, config.bgv.t, &exec);
    fhe::SlotLayout layout(config.bgv.n, config.bgv.t);
    const hhe::SimdBatchEngine engine(
        config, bgv,
        hhe::SimdBatchEngine::make_shared_rotation_keys(config, bgv));

    Xoshiro256 rng(20251019);
    const auto key = pasta::PastaCipher::random_key(config.pasta, rng);
    const auto key_ct =
        hhe::encrypt_key_batched(config, bgv, encoder, layout, key);
    std::vector<hhe::SimdBlockRequest> blocks(engine.capacity());
    for (std::size_t m = 0; m < blocks.size(); ++m) {
      blocks[m] = {.nonce = 1000 + m % 3,
                   .counter = m,
                   .symmetric_ct =
                       random_msg(rng, config.pasta.p, config.pasta.t)};
    }
    const fhe::Ciphertext out =
        engine.evaluate(key_ct, engine.prepare(blocks));
    EXPECT_EQ(ciphertext_hash(out), kGoldenHash)
        << "0x" << std::hex << ciphertext_hash(out);
  }
}

// ------------------------------------------- golden key-switch outputs

// The same kind of pin for every key switch outside the affine layers —
// relinearisation, the plain rotations, the ingest switch — and for one
// block of the coefficient-wise server, whose circuit is all ct-ct
// products. The values were recorded before key switching went
// prime-major. ctest runs this suite at POE_THREADS=1, 2 and 4
// (GoldenKeySwitch.Threads*).
TEST(GoldenKeySwitch, RelinearisedProductHashIsPinnedOnEveryBackend) {
  constexpr u64 kGoldenHash = 0xe3c92a647659dd94ull;
  const hhe::HheConfig config = hhe::HheConfig::batched_test();
  for (const kernels::Backend* backend : kernels::available_backends()) {
    SCOPED_TRACE(backend->name());
    ExecContext exec(nullptr, backend);
    fhe::Bgv bgv(config.bgv, &exec);
    Xoshiro256 rng(20261020);
    const fhe::Plaintext a{random_msg(rng, config.bgv.t, config.bgv.n)};
    const fhe::Plaintext b{random_msg(rng, config.bgv.t, config.bgv.n)};
    fhe::Ciphertext ca = bgv.encrypt(a);
    fhe::Ciphertext cb = bgv.encrypt(b);
    // One product at the top level, one after a two-prime drop.
    fhe::Ciphertext top = bgv.multiply(ca, cb);
    bgv.relinearize_inplace(top);
    bgv.mod_switch_to(ca, ca.level - 2);
    bgv.mod_switch_to(cb, cb.level - 2);
    fhe::Ciphertext low = bgv.multiply(ca, cb);
    bgv.relinearize_inplace(low);
    const u64 h = ciphertext_hash(top) ^ (ciphertext_hash(low) << 1);
    EXPECT_EQ(h, kGoldenHash) << "0x" << std::hex << h;
  }
}

TEST(GoldenKeySwitch, RotationHashIsPinnedOnEveryBackend) {
  constexpr u64 kGoldenHash = 0x53c4ab7436d9290dull;
  const hhe::HheConfig config = hhe::HheConfig::batched_test();
  for (const kernels::Backend* backend : kernels::available_backends()) {
    SCOPED_TRACE(backend->name());
    ExecContext exec(nullptr, backend);
    fhe::Bgv bgv(config.bgv, &exec);
    const fhe::GaloisKeys keys =
        bgv.make_rotation_keys({1, 17, fhe::GaloisKeys::kRowSwap});
    Xoshiro256 rng(20261021);
    fhe::Ciphertext ct =
        bgv.encrypt({random_msg(rng, config.bgv.t, config.bgv.n)});
    bgv.rotate_columns_inplace(ct, 1, keys);
    bgv.mod_switch_to(ct, ct.level - 3);
    bgv.rotate_columns_inplace(ct, 17, keys);
    bgv.swap_rows_inplace(ct, keys);
    EXPECT_EQ(ciphertext_hash(ct), kGoldenHash)
        << "0x" << std::hex << ciphertext_hash(ct);
  }
}

TEST(GoldenKeySwitch, IngestSwitchHashIsPinnedOnEveryBackend) {
  constexpr u64 kGoldenHash = 0xa91bc4ee669c3da4ull;
  const hhe::HheConfig config = hhe::HheConfig::batched_test();
  fhe::BgvParams tenant_params = config.bgv;
  tenant_params.seed = 4242;
  for (const kernels::Backend* backend : kernels::available_backends()) {
    SCOPED_TRACE(backend->name());
    ExecContext exec(nullptr, backend);
    fhe::Bgv bgv(config.bgv, &exec);
    fhe::Bgv tenant(tenant_params, &exec);
    const fhe::KswKey key = bgv.make_ingest_key(tenant);
    Xoshiro256 rng(20261022);
    fhe::Ciphertext ct =
        tenant.encrypt({random_msg(rng, config.bgv.t, config.bgv.n)});
    const fhe::Ciphertext top = bgv.ingest_switch(ct, key);
    tenant.mod_switch_to(ct, 5);
    const fhe::Ciphertext low = bgv.ingest_switch(ct, key);
    const u64 h = ciphertext_hash(top) ^ (ciphertext_hash(low) << 1);
    EXPECT_EQ(h, kGoldenHash) << "0x" << std::hex << h;
  }
}

TEST(GoldenKeySwitch, CoefficientServerBlockHashIsPinnedOnEveryBackend) {
  constexpr u64 kGoldenHash = 0x20b3d8915016cb83ull;
  const hhe::HheConfig config = hhe::HheConfig::test();
  for (const kernels::Backend* backend : kernels::available_backends()) {
    SCOPED_TRACE(backend->name());
    ExecContext exec(nullptr, backend);
    fhe::Bgv bgv(config.bgv, &exec);
    Xoshiro256 rng(20261023);
    const auto key = pasta::PastaCipher::random_key(config.pasta, rng);
    const hhe::HheClient client(config, bgv, key);
    const hhe::HheServer server(config, bgv, client.encrypt_key());
    const auto msg = random_msg(rng, config.pasta.p, config.pasta.t);
    const auto out = server.transcipher_block(client.encrypt(msg, 77), 77, 0);
    u64 h = 0;
    for (const auto& ct : out) h = (h << 1 | h >> 63) ^ ciphertext_hash(ct);
    EXPECT_EQ(h, kGoldenHash) << "0x" << std::hex << h;
  }
}

// ------------------------------------------------- service == direct path

TEST(ServiceDifferential, ServiceAgreesWithCoefficientWiseServer) {
  auto& sb = batched();
  auto& sc = coeff();
  Xoshiro256 rng(112233);
  // Same PASTA instance in both stacks: transcipher the same message
  // through the service (SIMD path) and the coefficient-wise server, and
  // require identical recovered plaintexts.
  ASSERT_EQ(sb.config.pasta.t, sc.config.pasta.t);
  const auto key = pasta::PastaCipher::random_key(sb.config.pasta, rng);
  const auto msg = random_msg(rng, sb.config.pasta.p, sb.config.pasta.t);
  const u64 nonce = 31415;

  service::TranscipherService svc(sb.config, sb.bgv, {}, sb.simd_keys);
  pasta::PastaCipher sw(sb.config.pasta, key);
  svc.open_session(
      1, hhe::encrypt_key_batched(sb.config, sb.bgv, sb.encoder, sb.layout,
                                  key));
  const auto results = svc.process(std::vector{service::TranscipherRequest{
      .client_id = 1, .nonce = nonce, .symmetric_ct = sw.encrypt(msg, nonce)}});
  const auto via_service = service::TranscipherService::decode_block(
      sb.config, sb.bgv, results[0].blocks[0]);

  hhe::HheClient client(sc.config, sc.bgv, key);
  hhe::HheServer server(sc.config, sc.bgv, client.encrypt_key());
  const auto via_coeff = client.decrypt_result(
      server.transcipher_block(client.encrypt(msg, nonce), nonce, 0));

  EXPECT_EQ(via_service, msg);
  EXPECT_EQ(via_coeff, msg);
  EXPECT_EQ(via_service, via_coeff);
}

// ------------------------------------------- cross-tenant packed batches

// One packed batch holding THREE tenants with distinct PASTA keys and
// ragged fills (1, 3 and 7 blocks) must decode bit-identical per tenant to
// (a) one process() call per tenant — each forms that tenant's batch alone
// — and (b) the coefficient-wise server: the same transcipher answer
// through three different evaluation shapes.
TEST(TenantIsolationDifferential, PackedMatchesPerClientAndCoeffRaggedFills) {
  auto& sb = batched();
  auto& sc = coeff();
  ASSERT_EQ(sb.config.pasta.t, sc.config.pasta.t);
  const std::size_t t = sb.config.pasta.t;
  Xoshiro256 rng(20260808);

  const std::size_t kTenants = 3;
  const std::size_t kBlocksOf[kTenants] = {1, 3, 7};
  std::vector<std::vector<u64>> keys(kTenants), msgs(kTenants);
  std::vector<service::TranscipherRequest> reqs;
  for (std::size_t c = 0; c < kTenants; ++c) {
    keys[c] = pasta::PastaCipher::random_key(sb.config.pasta, rng);
    // Ragged: the tenant's LAST block is also partially filled.
    msgs[c] = random_msg(rng, sb.config.pasta.p, kBlocksOf[c] * t - 2);
    pasta::PastaCipher sw(sb.config.pasta, keys[c]);
    reqs.push_back(service::TranscipherRequest{
        .client_id = c + 1,
        .nonce = 900 + c,
        .symmetric_ct = sw.encrypt(msgs[c], 900 + c)});
  }

  // Path 1: one packed cross-tenant batch (1 + 3 + 7 = 11 of 32 tiles).
  service::ServiceReport packed_rep;
  std::vector<std::vector<u64>> via_packed(kTenants);
  {
    service::TranscipherService svc(sb.config, sb.bgv, {}, sb.simd_keys);
    for (std::size_t c = 0; c < kTenants; ++c) {
      svc.open_session(c + 1, hhe::encrypt_key_batched(sb.config, sb.bgv,
                                                       sb.encoder, sb.layout,
                                                       keys[c]));
    }
    const auto results = svc.process(reqs, &packed_rep);
    ASSERT_EQ(packed_rep.batches, 1u);
    ASSERT_EQ(packed_rep.cross_tenant_batches, 1u);
    for (std::size_t c = 0; c < kTenants; ++c) {
      ASSERT_TRUE(results[c].ok()) << results[c].error;
      ASSERT_EQ(results[c].blocks.size(), kBlocksOf[c]);
      for (const auto& block : results[c].blocks) {
        const auto vals = service::TranscipherService::decode_block(
            sb.config, sb.bgv, block);
        via_packed[c].insert(via_packed[c].end(), vals.begin(), vals.end());
      }
    }
  }

  // Path 2: the per-client reference — one process() call per tenant.
  std::vector<std::vector<u64>> via_per_client(kTenants);
  {
    service::TranscipherService svc(sb.config, sb.bgv, {}, sb.simd_keys);
    for (std::size_t c = 0; c < kTenants; ++c) {
      svc.open_session(c + 1, hhe::encrypt_key_batched(sb.config, sb.bgv,
                                                       sb.encoder, sb.layout,
                                                       keys[c]));
    }
    for (std::size_t c = 0; c < kTenants; ++c) {
      service::ServiceReport rep;
      const auto results = svc.process(std::span(&reqs[c], 1), &rep);
      ASSERT_EQ(rep.batches, 1u);  // one batch per tenant
      EXPECT_EQ(rep.cross_tenant_batches, 0u);
      ASSERT_TRUE(results[0].ok()) << results[0].error;
      for (const auto& block : results[0].blocks) {
        const auto vals = service::TranscipherService::decode_block(
            sb.config, sb.bgv, block);
        via_per_client[c].insert(via_per_client[c].end(), vals.begin(),
                                 vals.end());
      }
    }
  }

  // Path 3: the coefficient-wise server (multi-block, ragged tail).
  for (std::size_t c = 0; c < kTenants; ++c) {
    hhe::HheClient client(sc.config, sc.bgv, keys[c]);
    hhe::HheServer server(sc.config, sc.bgv, client.encrypt_key());
    const auto via_coeff = client.decrypt_result(
        server.transcipher(reqs[c].symmetric_ct, reqs[c].nonce));

    EXPECT_EQ(via_packed[c], msgs[c]) << "tenant " << c;
    EXPECT_EQ(via_per_client[c], msgs[c]) << "tenant " << c;
    EXPECT_EQ(via_coeff, msgs[c]) << "tenant " << c;
    EXPECT_EQ(via_packed[c], via_per_client[c]) << "tenant " << c;
    EXPECT_EQ(via_packed[c], via_coeff) << "tenant " << c;
  }
}

// Key-switch-on-ingest: a tenant with its OWN BGV secret (same ring)
// uploads a key encrypted in its own domain; the service switches it into
// the shared evaluation domain and packs it with a native tenant. Both
// must transcipher exactly.
TEST(TenantIsolationDifferential, IngestSwitchedTenantPacksWithNativeTenant) {
  auto& sb = batched();
  Xoshiro256 rng(606060);

  // The foreign tenant's evaluator: identical ring, different secret.
  fhe::BgvParams foreign_params = sb.config.bgv;
  foreign_params.seed = sb.config.bgv.seed + 17;
  fhe::Bgv foreign_bgv(foreign_params);
  const fhe::KswKey ingest_key = sb.bgv.make_ingest_key(foreign_bgv);

  const auto foreign_key =
      pasta::PastaCipher::random_key(sb.config.pasta, rng);
  const auto native_key =
      pasta::PastaCipher::random_key(sb.config.pasta, rng);
  const auto msg_f = random_msg(rng, sb.config.pasta.p, sb.config.pasta.t);
  const auto msg_n =
      random_msg(rng, sb.config.pasta.p, sb.config.pasta.t + 2);

  service::TranscipherService svc(sb.config, sb.bgv, {}, sb.simd_keys);
  // The foreign upload is tiled with the foreign evaluator (same encoder
  // and layout: both are parameter-only), then switched on ingest.
  svc.open_session_switched(
      1,
      hhe::encrypt_key_batched(sb.config, foreign_bgv, sb.encoder, sb.layout,
                               foreign_key),
      ingest_key);
  svc.open_session(2, hhe::encrypt_key_batched(sb.config, sb.bgv, sb.encoder,
                                               sb.layout, native_key));

  pasta::PastaCipher sw_f(sb.config.pasta, foreign_key);
  pasta::PastaCipher sw_n(sb.config.pasta, native_key);
  service::ServiceReport rep;
  const auto results = svc.process(
      std::vector{
          service::TranscipherRequest{.client_id = 1,
                                      .nonce = 71,
                                      .symmetric_ct = sw_f.encrypt(msg_f, 71)},
          service::TranscipherRequest{.client_id = 2,
                                      .nonce = 72,
                                      .symmetric_ct =
                                          sw_n.encrypt(msg_n, 72)}},
      &rep);

  ASSERT_EQ(rep.batches, 1u);
  EXPECT_EQ(rep.cross_tenant_batches, 1u);
  EXPECT_GT(rep.min_noise_budget_bits, 0.0);
  for (const auto& res : results) ASSERT_TRUE(res.ok()) << res.error;
  std::vector<u64> via_f, via_n;
  for (const auto& block : results[0].blocks) {
    const auto vals =
        service::TranscipherService::decode_block(sb.config, sb.bgv, block);
    via_f.insert(via_f.end(), vals.begin(), vals.end());
  }
  for (const auto& block : results[1].blocks) {
    const auto vals =
        service::TranscipherService::decode_block(sb.config, sb.bgv, block);
    via_n.insert(via_n.end(), vals.begin(), vals.end());
  }
  EXPECT_EQ(via_f, msg_f);
  EXPECT_EQ(via_n, msg_n);
}

}  // namespace
}  // namespace poe
