#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "hhe/batched_server.hpp"
#include "hhe/protocol.hpp"
#include "hhe/simd_batch.hpp"

namespace poe::hhe {
namespace {

class HheProtocol : public ::testing::Test {
 protected:
  HheProtocol()
      : config_(HheConfig::test()), bgv_(config_.bgv) {}

  HheConfig config_;
  fhe::Bgv bgv_;
};

TEST_F(HheProtocol, KeyCiphertextsDecryptToKey) {
  Xoshiro256 rng(1);
  const auto key = pasta::PastaCipher::random_key(config_.pasta, rng);
  HheClient client(config_, bgv_, key);
  const auto key_cts = client.encrypt_key();
  ASSERT_EQ(key_cts.size(), config_.pasta.key_size());
  EXPECT_EQ(client.decrypt_result(key_cts), key);
}

TEST_F(HheProtocol, TranscipherBlockRecoversMessage) {
  Xoshiro256 rng(2);
  const auto key = pasta::PastaCipher::random_key(config_.pasta, rng);
  HheClient client(config_, bgv_, key);
  HheServer server(config_, bgv_, client.encrypt_key());

  std::vector<std::uint64_t> msg(config_.pasta.t);
  for (auto& m : msg) m = rng.below(config_.pasta.p);
  const std::uint64_t nonce = 123456;

  // Client -> server: symmetric ciphertext, zero expansion.
  const auto sym_ct = client.encrypt(msg, nonce);
  ASSERT_EQ(sym_ct.size(), msg.size());

  // Server: homomorphic PASTA decryption.
  ServerReport report;
  const auto fhe_cts = server.transcipher_block(sym_ct, nonce, 0, &report);
  ASSERT_EQ(fhe_cts.size(), msg.size());
  EXPECT_GT(report.min_noise_budget_bits, 0.0)
      << "circuit ran out of noise budget (final level "
      << report.final_level << ")";
  EXPECT_GE(report.final_level, 1u);
  // 2 * (t-1) Feistel squares per round * 3 rounds + 2t * 2 cube mults.
  const std::size_t t = config_.pasta.t;
  EXPECT_EQ(report.ct_ct_multiplications, 3 * 2 * (t - 1) + 2 * t * 2);

  // Client: decrypting the server's output yields the original message.
  EXPECT_EQ(client.decrypt_result(fhe_cts), msg);
}

TEST_F(HheProtocol, TranscipherPartialAndMultiBlock) {
  Xoshiro256 rng(3);
  const auto key = pasta::PastaCipher::random_key(config_.pasta, rng);
  HheClient client(config_, bgv_, key);
  HheServer server(config_, bgv_, client.encrypt_key());

  std::vector<std::uint64_t> msg(config_.pasta.t + 3);  // 2 blocks, 2nd short
  for (auto& m : msg) m = rng.below(config_.pasta.p);
  const auto sym_ct = client.encrypt(msg, 77);
  const auto fhe_cts = server.transcipher(sym_ct, 77);
  ASSERT_EQ(fhe_cts.size(), msg.size());
  EXPECT_EQ(client.decrypt_result(fhe_cts), msg);
}

TEST_F(HheProtocol, ServerOutputIsComputable) {
  // The point of HHE: the server's output is a *usable* FHE ciphertext —
  // e.g. it can add two transciphered values.
  Xoshiro256 rng(4);
  const auto key = pasta::PastaCipher::random_key(config_.pasta, rng);
  HheClient client(config_, bgv_, key);
  HheServer server(config_, bgv_, client.encrypt_key());

  std::vector<std::uint64_t> msg(config_.pasta.t);
  for (auto& m : msg) m = rng.below(config_.pasta.p);
  const auto cts = server.transcipher_block(client.encrypt(msg, 5), 5, 0);

  fhe::Ciphertext sum = cts[0];
  bgv_.add_inplace(sum, cts[1]);
  bgv_.mul_scalar_inplace(sum, 3);
  const auto got = client.decrypt_result({sum});
  const mod::Modulus pm(config_.pasta.p);
  EXPECT_EQ(got[0], pm.mul(pm.add(msg[0], msg[1]), 3));
}

TEST_F(HheProtocol, MismatchedPlaintextModulusRejected) {
  HheConfig bad = config_;
  bad.pasta.p = 8088322049ull;  // != bgv.t
  Xoshiro256 rng(5);
  const auto key = pasta::PastaCipher::random_key(bad.pasta, rng);
  EXPECT_THROW(HheClient(bad, bgv_, key), poe::Error);
}

TEST_F(HheProtocol, WrongKeyCountRejected) {
  EXPECT_THROW(HheServer(config_, bgv_, {}), poe::Error);
}

// The batched path: the SIMD engine in its one-tile serving shape (key
// merge -> evaluate -> masked extraction), the shape the service runs for a
// batch holding one block.
class BatchedHhe : public ::testing::Test {
 protected:
  BatchedHhe()
      : config_(HheConfig::batched_test()),
        bgv_(config_.bgv),
        encoder_(config_.bgv.n, config_.bgv.t) {}

  fhe::Ciphertext key_ct(const SimdBatchEngine& engine,
                         const std::vector<std::uint64_t>& key) const {
    return encrypt_key_batched(config_, bgv_, encoder_, engine.layout(), key);
  }

  /// Transcipher one block in tile 0; the report's budgets are the
  /// extracted deliverable's.
  fhe::Ciphertext serve_one(const SimdBatchEngine& engine,
                            const fhe::Ciphertext& key,
                            std::vector<std::uint64_t> sym_ct,
                            std::uint64_t nonce,
                            ServerReport* report = nullptr) const {
    const std::vector<SimdBlockRequest> block{
        {.nonce = nonce, .counter = 0, .symmetric_ct = std::move(sym_ct)}};
    const std::vector<std::size_t> tiles{0};
    const std::vector<TenantTiles> tenant{{&key, tiles}};
    fhe::Ciphertext out = engine.extract_tiles(
        engine.evaluate(engine.merge_tenant_keys(tenant),
                        engine.prepare(block), report),
        tiles);
    if (report != nullptr) {
      report->final_level = out.level;
      report->min_noise_budget_bits = bgv_.noise_budget_bits(out);
      report->predicted_min_budget_bits = bgv_.predicted_budget_bits(out);
    }
    return out;
  }

  std::vector<std::uint64_t> decode(const fhe::Ciphertext& ct,
                                    std::size_t len) const {
    return SimdBatchEngine::decode_block(config_, bgv_, ct, 0, len);
  }

  HheConfig config_;
  fhe::Bgv bgv_;
  fhe::BatchEncoder encoder_;
};

TEST_F(BatchedHhe, BatchedKeyCiphertextDecodesToKey) {
  Xoshiro256 rng(10);
  const auto key = pasta::PastaCipher::random_key(config_.pasta, rng);
  const SimdBatchEngine engine(config_, bgv_);
  const auto logical = engine.layout().from_slots(
      encoder_.decode(bgv_.decrypt(key_ct(engine, key))));
  // The key is tiled periodically: every column of both rows holds
  // key[col mod 2t], so every tile carries the whole key.
  const std::size_t cols = engine.layout().cols();
  for (std::size_t i = 0; i < logical.size(); ++i) {
    ASSERT_EQ(logical[i], key[(i % cols) % key.size()]) << "slot " << i;
  }
}

// Tile m of a merged key holds the key of the tenant owning tile m and
// unowned tiles hold zeros, for keys at one level (the one-pass merge) and
// at different levels (the merge switches down to the lowest).
TEST_F(BatchedHhe, MergedKeyHoldsEachTenantsKeyInItsTiles) {
  Xoshiro256 rng(12);
  const SimdBatchEngine engine(config_, bgv_);
  const auto key_a = pasta::PastaCipher::random_key(config_.pasta, rng);
  const auto key_b = pasta::PastaCipher::random_key(config_.pasta, rng);
  const fhe::Ciphertext ct_a = key_ct(engine, key_a);
  fhe::Ciphertext ct_b = key_ct(engine, key_b);
  const std::vector<std::size_t> tiles_a{0, 2}, tiles_b{1};
  const std::size_t s = config_.pasta.state_size();
  const std::size_t cols = engine.layout().cols();
  for (const bool lower_b : {false, true}) {
    SCOPED_TRACE(lower_b ? "keys at different levels" : "keys at one level");
    if (lower_b) bgv_.mod_switch_inplace(ct_b);
    const std::vector<TenantTiles> tenants{{&ct_a, tiles_a}, {&ct_b, tiles_b}};
    const fhe::Ciphertext merged = engine.merge_tenant_keys(tenants);
    EXPECT_EQ(merged.level, ct_b.level);
    const auto logical = engine.layout().from_slots(
        encoder_.decode(bgv_.decrypt(merged)));
    for (std::size_t i = 0; i < logical.size(); ++i) {
      const std::size_t col = i % cols;
      const std::size_t tile = col / s;
      std::uint64_t want = 0;  // unowned tile
      if (tile == 0 || tile == 2) want = key_a[col % key_a.size()];
      if (tile == 1) want = key_b[col % key_b.size()];
      ASSERT_EQ(logical[i], want) << "slot " << i;
    }
  }
}

TEST_F(BatchedHhe, BatchedTranscipherMatchesMessage) {
  Xoshiro256 rng(11);
  const auto key = pasta::PastaCipher::random_key(config_.pasta, rng);
  HheClient client(config_, bgv_, key);
  const SimdBatchEngine engine(config_, bgv_);

  std::vector<std::uint64_t> msg(config_.pasta.t);
  for (auto& m : msg) m = rng.below(config_.pasta.p);
  const std::uint64_t nonce = 31337;

  ServerReport report;
  const auto out = serve_one(engine, key_ct(engine, key),
                             client.encrypt(msg, nonce), nonce, &report);
  EXPECT_GT(report.min_noise_budget_bits, 0.0)
      << "final level " << report.final_level;
  // One squaring per Feistel round + two multiplications for the cube —
  // for the WHOLE state (vs 2(t-1) per round coefficient-wise).
  EXPECT_EQ(report.ct_ct_multiplications,
            config_.pasta.rounds - 1 + 2);
  EXPECT_EQ(decode(out, msg.size()), msg);
}

TEST_F(BatchedHhe, BatchedAgreesWithCoefficientWiseServer) {
  Xoshiro256 rng(12);
  const auto key = pasta::PastaCipher::random_key(config_.pasta, rng);
  HheClient client(config_, bgv_, key);

  std::vector<std::uint64_t> msg(config_.pasta.t);
  for (auto& m : msg) m = rng.below(config_.pasta.p);
  const auto sym_ct = client.encrypt(msg, 5);

  // Coefficient-wise path.
  HheServer coeff_server(config_, bgv_, client.encrypt_key());
  const auto coeff_out = coeff_server.transcipher_block(sym_ct, 5, 0);
  const auto coeff_msg = client.decrypt_result(coeff_out);

  // Batched path.
  const SimdBatchEngine engine(config_, bgv_);
  const auto batched_msg =
      decode(serve_one(engine, key_ct(engine, key), sym_ct, 5), msg.size());

  EXPECT_EQ(coeff_msg, msg);
  EXPECT_EQ(batched_msg, msg);
}

TEST_F(BatchedHhe, RejectsTooSmallRing) {
  HheConfig bad = config_;
  bad.pasta.t = 600;  // 2t = 1200 does not divide n/2 = 512
  // Valid rotation keys (building 1199 steps for the bad config would only
  // slow the test down), so the throw can only come from the ring check.
  const auto keys = SimdBatchEngine::make_shared_rotation_keys(config_, bgv_);
  EXPECT_THROW(SimdBatchEngine(bad, bgv_, keys), poe::Error);
}

TEST_F(BatchedHhe, SharedRotationKeysMatchOwnedKeys) {
  Xoshiro256 rng(13);
  const auto key = pasta::PastaCipher::random_key(config_.pasta, rng);
  HheClient client(config_, bgv_, key);

  std::vector<std::uint64_t> msg(config_.pasta.t);
  for (auto& m : msg) m = rng.below(config_.pasta.p);
  const auto sym_ct = client.encrypt(msg, 99);

  const SimdBatchEngine owned(config_, bgv_);
  const auto shared_keys =
      SimdBatchEngine::make_shared_rotation_keys(config_, bgv_);
  const SimdBatchEngine shared(config_, bgv_, shared_keys);
  const auto key_cipher = key_ct(owned, key);

  // Key switching is deterministic given the key material, so both engines
  // must produce the same recovered message (and the shared-keys engine
  // must not need keys of its own).
  const auto a = decode(serve_one(owned, key_cipher, sym_ct, 99), msg.size());
  const auto b = decode(serve_one(shared, key_cipher, sym_ct, 99), msg.size());
  EXPECT_EQ(a, msg);
  EXPECT_EQ(b, msg);
  EXPECT_THROW(SimdBatchEngine(config_, bgv_, nullptr), poe::Error);
}

// ---- Noise-budget regression bands -------------------------------------
//
// Measured on the right-sized configs (parameter search + automatic
// mod-switch scheduling + terminal output trim): the coefficient server and
// the engine's extracted one-tile deliverable both finish at
// level 1 with ~34-35 bits of measured budget, a few bits above the
// predicted (bound-derived) 28 and comfortably inside the [band_low,
// band_high] = [8, 40] safety band the search targets. The bands below are
// wide enough for platform jitter (rounding in the budget estimate) but
// tight enough to catch a real regression — a missed trim or a skipped
// mod-switch shows up as a whole-prime (~57 bit) jump.

TEST_F(HheProtocol, NoiseBudgetStaysWithinRecordedBand) {
  Xoshiro256 rng(6);
  const auto key = pasta::PastaCipher::random_key(config_.pasta, rng);
  HheClient client(config_, bgv_, key);
  HheServer server(config_, bgv_, client.encrypt_key());

  std::vector<std::uint64_t> msg(config_.pasta.t);
  for (auto& m : msg) m = rng.below(config_.pasta.p);
  ServerReport report;
  const auto cts =
      server.transcipher_block(client.encrypt(msg, 314), 314, 0, &report);
  EXPECT_EQ(client.decrypt_result(cts), msg);
  EXPECT_GE(report.min_noise_budget_bits, 28.0)
      << "noise regression: budget dropped below the recorded band";
  EXPECT_LE(report.min_noise_budget_bits, 40.0)
      << "budget above the recorded band: parameters changed? "
         "re-measure and update the band";
  EXPECT_GE(report.min_noise_budget_bits, report.predicted_min_budget_bits)
      << "tracked bound is not a sound lower estimate";
  EXPECT_EQ(report.final_level, 1u);
}

TEST_F(BatchedHhe, NoiseBudgetStaysWithinRecordedBand) {
  Xoshiro256 rng(14);
  const auto key = pasta::PastaCipher::random_key(config_.pasta, rng);
  HheClient client(config_, bgv_, key);
  const SimdBatchEngine engine(config_, bgv_);

  std::vector<std::uint64_t> msg(config_.pasta.t);
  for (auto& m : msg) m = rng.below(config_.pasta.p);
  ServerReport report;
  const auto out = serve_one(engine, key_ct(engine, key),
                             client.encrypt(msg, 159), 159, &report);
  EXPECT_EQ(decode(out, msg.size()), msg);
  EXPECT_GE(report.min_noise_budget_bits, 28.0)
      << "noise regression: budget dropped below the recorded band";
  EXPECT_LE(report.min_noise_budget_bits, 40.0)
      << "budget above the recorded band: parameters changed? "
         "re-measure and update the band";
  EXPECT_GE(report.min_noise_budget_bits, report.predicted_min_budget_bits)
      << "tracked bound is not a sound lower estimate";
  EXPECT_EQ(report.final_level, 1u);
}

TEST(HheConfigs, DemoUsesPasta4) {
  const auto cfg = HheConfig::demo();
  EXPECT_EQ(cfg.pasta.t, 32u);
  EXPECT_EQ(cfg.pasta.rounds, 4u);
  EXPECT_EQ(cfg.bgv.t, cfg.pasta.p);
}

}  // namespace
}  // namespace poe::hhe
