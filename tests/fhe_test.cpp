#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "fhe/bgv.hpp"
#include "fhe/encoding.hpp"
#include "fhe/galois.hpp"
#include "fhe/noise.hpp"
#include "fhe/ntt.hpp"
#include "fhe/serialize.hpp"
#include "modular/primes.hpp"

namespace poe::fhe {
namespace {

std::vector<std::uint64_t> random_values(std::size_t n, std::uint64_t bound,
                                         std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.below(bound);
  return v;
}

// Schoolbook negacyclic convolution for cross-checking the NTT.
std::vector<std::uint64_t> negacyclic_schoolbook(
    const std::vector<std::uint64_t>& a, const std::vector<std::uint64_t>& b,
    std::uint64_t q) {
  const std::size_t n = a.size();
  mod::Modulus m(q);
  std::vector<std::uint64_t> out(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t prod = m.mul(a[i], b[j]);
      const std::size_t k = i + j;
      if (k < n) {
        out[k] = m.add(out[k], prod);
      } else {
        out[k - n] = m.sub(out[k - n], prod);
      }
    }
  }
  return out;
}

TEST(Ntt, ForwardInverseRoundtrip) {
  const std::uint64_t q = mod::ntt_prime_chain(1, 40, 256)[0];
  Ntt ntt(q, 256);
  auto a = random_values(256, q, 1);
  auto b = a;
  ntt.forward(b);
  EXPECT_NE(a, b);
  ntt.inverse(b);
  EXPECT_EQ(a, b);
}

TEST(Ntt, MultiplyMatchesSchoolbook) {
  const std::uint64_t q = mod::ntt_prime_chain(1, 40, 64)[0];
  Ntt ntt(q, 64);
  auto a = random_values(64, q, 2);
  auto b = random_values(64, q, 3);
  EXPECT_EQ(ntt.multiply(a, b), negacyclic_schoolbook(a, b, q));
}

TEST(Ntt, NegacyclicWraparound) {
  // x * x^{n-1} = x^n = -1 in Z_q[X]/(X^n+1).
  const std::uint64_t q = mod::ntt_prime_chain(1, 40, 32)[0];
  Ntt ntt(q, 32);
  std::vector<std::uint64_t> x(32, 0), xn1(32, 0);
  x[1] = 1;
  xn1[31] = 1;
  const auto prod = ntt.multiply(x, xn1);
  EXPECT_EQ(prod[0], q - 1);
  for (std::size_t i = 1; i < 32; ++i) EXPECT_EQ(prod[i], 0u);
}

TEST(Ntt, RejectsBadParameters) {
  EXPECT_THROW(Ntt(65537, 48), poe::Error);       // not a power of two
  EXPECT_THROW(Ntt(65539, 1024), poe::Error);     // 2n does not divide q-1
}

TEST(Context, CrtPrecomputationsConsistent) {
  const auto primes = mod::ntt_prime_chain(3, 40, 64);
  RnsContext ctx(64, 65537, primes);
  for (std::size_t lvl = 1; lvl <= 3; ++lvl) {
    const auto& d = ctx.level(lvl);
    for (std::size_t j = 0; j < lvl; ++j) {
      // (q/q_j) * q_hat_inv_j == 1 (mod q_j)
      const auto hat_mod = d.q_hat[j].mod_u64(primes[j]);
      EXPECT_EQ(ctx.mod(j).mul(hat_mod, d.q_hat_inv[j]), 1u);
      // q_hat[j] * q_j == q
      UBig check = d.q_hat[j];
      check.mul_u64(primes[j]);
      EXPECT_TRUE(check == d.q);
    }
  }
}

TEST(Context, RejectsBadBases) {
  EXPECT_THROW(RnsContext(64, 65537, {}), poe::Error);
  EXPECT_THROW(RnsContext(64, 65537, {65537}), poe::Error);  // q == t
  const auto p = mod::ntt_prime_chain(1, 40, 64)[0];
  EXPECT_THROW(RnsContext(64, 65537, std::vector<std::uint64_t>{p, p}),
               poe::Error);  // duplicate
}

class BgvToy : public ::testing::Test {
 protected:
  BgvToy() : bgv_(BgvParams::toy()), encoder_(bgv_.params().n, bgv_.params().t) {}
  Bgv bgv_;
  BatchEncoder encoder_;
};

TEST_F(BgvToy, EncryptDecryptRoundtrip) {
  const auto values = random_values(bgv_.params().n, bgv_.params().t, 4);
  const auto ct = bgv_.encrypt(encoder_.encode(values));
  EXPECT_GT(bgv_.noise_budget_bits(ct), 20.0);
  EXPECT_EQ(encoder_.decode(bgv_.decrypt(ct)), values);
}

TEST_F(BgvToy, ZeroAndConstantPlaintexts) {
  Plaintext zero;
  zero.coeffs.assign(bgv_.params().n, 0);
  EXPECT_EQ(bgv_.decrypt(bgv_.encrypt(zero)).coeffs, zero.coeffs);

  Plaintext constant;
  constant.coeffs.assign(bgv_.params().n, 0);
  constant.coeffs[0] = 12345;
  EXPECT_EQ(bgv_.decrypt(bgv_.encrypt(constant)).coeffs, constant.coeffs);
}

TEST_F(BgvToy, HomomorphicAddSub) {
  const std::uint64_t t = bgv_.params().t;
  const auto a = random_values(16, t, 5);
  const auto b = random_values(16, t, 6);
  auto ca = bgv_.encrypt(encoder_.encode(a));
  const auto cb = bgv_.encrypt(encoder_.encode(b));
  bgv_.add_inplace(ca, cb);
  auto sum = encoder_.decode(bgv_.decrypt(ca));
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(sum[i], (a[i] + b[i]) % t);

  bgv_.sub_inplace(ca, cb);
  sum = encoder_.decode(bgv_.decrypt(ca));
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(sum[i], a[i]);
}

TEST_F(BgvToy, PlainOperations) {
  const std::uint64_t t = bgv_.params().t;
  const auto a = random_values(16, t, 7);
  const auto b = random_values(16, t, 8);
  auto ct = bgv_.encrypt(encoder_.encode(a));

  bgv_.add_plain_inplace(ct, encoder_.encode(b));
  auto got = encoder_.decode(bgv_.decrypt(ct));
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(got[i], (a[i] + b[i]) % t);

  bgv_.sub_plain_inplace(ct, encoder_.encode(b));
  bgv_.mul_plain_inplace(ct, encoder_.encode(b));
  got = encoder_.decode(bgv_.decrypt(ct));
  mod::Modulus mt(t);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(got[i], mt.mul(a[i], b[i]));
}

TEST_F(BgvToy, ScalarOperations) {
  const std::uint64_t t = bgv_.params().t;
  mod::Modulus mt(t);
  const auto a = random_values(16, t, 9);
  auto ct = bgv_.encrypt(encoder_.encode(a));
  bgv_.mul_scalar_inplace(ct, 12321);
  bgv_.add_scalar_inplace(ct, 777);
  // add_scalar adds the constant polynomial, which is the constant in every
  // slot; mul_scalar scales every slot.
  const auto got = encoder_.decode(bgv_.decrypt(ct));
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(got[i], mt.add(mt.mul(a[i], 12321), 777));
  }
}

TEST_F(BgvToy, MultiplyRelinearizeDecrypt) {
  const std::uint64_t t = bgv_.params().t;
  mod::Modulus mt(t);
  const auto a = random_values(16, t, 10);
  const auto b = random_values(16, t, 11);
  const auto ca = bgv_.encrypt(encoder_.encode(a));
  const auto cb = bgv_.encrypt(encoder_.encode(b));

  // Decryption of the raw 3-part tensor also works (uses s^2).
  auto tensor = bgv_.multiply(ca, cb);
  EXPECT_EQ(tensor.size(), 3u);
  auto got = encoder_.decode(bgv_.decrypt(tensor));
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(got[i], mt.mul(a[i], b[i]));

  // Relinearised + mod-switched product.
  const auto prod = bgv_.multiply_relin(ca, cb);
  EXPECT_EQ(prod.size(), 2u);
  EXPECT_EQ(prod.level, bgv_.top_level() - 1);
  EXPECT_GT(bgv_.noise_budget_bits(prod), 0.0);
  got = encoder_.decode(bgv_.decrypt(prod));
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(got[i], mt.mul(a[i], b[i]));
}

TEST_F(BgvToy, ModSwitchPreservesPlaintext) {
  const auto values = random_values(bgv_.params().n, bgv_.params().t, 12);
  auto ct = bgv_.encrypt(encoder_.encode(values));
  while (ct.level > 1) {
    bgv_.mod_switch_inplace(ct);
    EXPECT_EQ(encoder_.decode(bgv_.decrypt(ct)), values);
  }
  EXPECT_THROW(bgv_.mod_switch_inplace(ct), poe::Error);
}

TEST_F(BgvToy, MatchLevels) {
  const auto a = random_values(8, bgv_.params().t, 13);
  auto ca = bgv_.encrypt(encoder_.encode(a));
  auto cb = bgv_.encrypt(encoder_.encode(a));
  bgv_.mod_switch_inplace(ca);
  EXPECT_THROW(bgv_.add_inplace(ca, cb), poe::Error);
  bgv_.match_levels(ca, cb);
  EXPECT_EQ(ca.level, cb.level);
  bgv_.add_inplace(ca, cb);
  const auto got = encoder_.decode(bgv_.decrypt(ca));
  mod::Modulus mt(bgv_.params().t);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(got[i], mt.add(a[i], a[i]));
}

TEST_F(BgvToy, MultiplyRejectsForeignAndCoefficientFormOperands) {
  const auto a = random_values(8, bgv_.params().t, 15);
  const auto ca = bgv_.encrypt(encoder_.encode(a));
  auto coeff = ca;
  coeff.parts[1].from_ntt();
  EXPECT_THROW((void)bgv_.multiply(ca, coeff), poe::Error);
  auto short_part = ca;
  bgv_.mod_switch_inplace(short_part);
  short_part.level = ca.level;  // parts now below the claimed level
  EXPECT_THROW((void)bgv_.multiply(short_part, ca), poe::Error);
  auto other_params = bgv_.params();
  other_params.seed += 1;
  const Bgv other(other_params);
  const auto foreign = other.encrypt(encoder_.encode(a));
  EXPECT_THROW((void)bgv_.multiply(ca, foreign), poe::Error);
}

TEST_F(BgvToy, NoiseBudgetDecreasesWithWork) {
  const auto a = random_values(8, bgv_.params().t, 14);
  auto ct = bgv_.encrypt(encoder_.encode(a));
  const double fresh = bgv_.noise_budget_bits(ct);
  bgv_.mul_scalar_inplace(ct, 65000);
  const double after_scalar = bgv_.noise_budget_bits(ct);
  EXPECT_LT(after_scalar, fresh);
  const auto prod = bgv_.multiply_relin(ct, ct);
  EXPECT_LT(bgv_.noise_budget_bits(prod), after_scalar);
}

TEST_F(BgvToy, SupportsDepthTwo) {
  // toy parameters must supply two multiplicative levels (the unit of work
  // in the PASTA circuit between switches).
  mod::Modulus mt(bgv_.params().t);
  const auto a = random_values(4, bgv_.params().t, 15);
  auto ct = bgv_.encrypt(encoder_.encode(a));
  auto sq = bgv_.multiply_relin(ct, ct);
  const auto got = encoder_.decode(bgv_.decrypt(sq));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(got[i], mt.mul(a[i], a[i]));
  }
  EXPECT_GT(bgv_.noise_budget_bits(sq), 0.0);
}

TEST(BgvPresets, DemoParametersSupportTheCircuitDepth) {
  // The public demo() preset (n = 4096) must encrypt, square twice with
  // relinearisation + switching, and still decrypt.
  Bgv bgv(BgvParams::demo());
  BatchEncoder enc(bgv.params().n, bgv.params().t);
  mod::Modulus mt(bgv.params().t);
  const auto values = random_values(32, bgv.params().t, 50);
  auto ct = bgv.encrypt(enc.encode(values));
  ct = bgv.multiply_relin(ct, ct);
  bgv.mod_switch_inplace(ct);
  ct = bgv.multiply_relin(ct, ct);
  EXPECT_GT(bgv.noise_budget_bits(ct), 0.0);
  const auto got = enc.decode(bgv.decrypt(ct));
  for (std::size_t i = 0; i < 32; ++i) {
    const auto sq = mt.mul(values[i], values[i]);
    EXPECT_EQ(got[i], mt.mul(sq, sq));
  }
}

TEST(BgvPresets, SecureParametersAreWellFormed) {
  // Constructing the n = 2^15 ring is too slow for the default suite; check
  // the preset's shape and that its prime chain exists.
  const auto p = BgvParams::secure();
  EXPECT_EQ(p.n, 32768u);
  EXPECT_EQ(p.t, 65537u);
  const auto chain =
      mod::bgv_prime_chain(p.num_primes, p.prime_bits, p.n, p.t);
  EXPECT_EQ(chain.size(), p.num_primes);
  for (const auto q : chain) {
    EXPECT_TRUE(mod::is_prime(q));
    EXPECT_EQ((q - 1) % (2 * p.n), 0u);
    EXPECT_EQ(q % p.t, 1u);
  }
}

TEST(BatchEncoder, EncodeDecodeRoundtrip) {
  BatchEncoder enc(1024, 65537);
  const auto values = random_values(1024, 65537, 16);
  EXPECT_EQ(enc.decode(enc.encode(values)), values);
}

TEST(BatchEncoder, ShortInputZeroFills) {
  BatchEncoder enc(64, 65537);
  const auto pt = enc.encode({1, 2, 3});
  const auto slots = enc.decode(pt);
  EXPECT_EQ(slots[0], 1u);
  EXPECT_EQ(slots[2], 3u);
  EXPECT_EQ(slots[63], 0u);
}

TEST(BatchEncoder, RejectsOutOfRange) {
  BatchEncoder enc(64, 65537);
  EXPECT_THROW(enc.encode({65537}), poe::Error);
  EXPECT_THROW(enc.encode(std::vector<std::uint64_t>(65, 0)), poe::Error);
}

TEST(Poly, SignedLiftAndScalar) {
  const auto primes = mod::ntt_prime_chain(2, 40, 16);
  RnsContext ctx(16, 65537, primes);
  std::vector<std::int64_t> coeffs(16, 0);
  coeffs[0] = -1;
  coeffs[1] = 2;
  auto p = RnsPoly::from_signed_coeffs(&ctx, 2, coeffs);
  EXPECT_EQ(p.rns(0)[0], primes[0] - 1);
  EXPECT_EQ(p.rns(1)[1], 2u);
  // (-1) * (t-1 == -1 centered) = +1
  p.mul_scalar_inplace(65536);
  EXPECT_EQ(p.rns(0)[0], 1u);
  EXPECT_EQ(p.rns(0)[1], primes[0] - 2);
}

TEST(SlotLayout, LogicalGridRoundtrip) {
  SlotLayout layout(64, 65537);
  EXPECT_EQ(layout.rows(), 2u);
  EXPECT_EQ(layout.cols(), 32u);
  // slot_index is a bijection.
  std::vector<bool> seen(64, false);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 32; ++c) {
      const auto idx = layout.slot_index(r, c);
      ASSERT_LT(idx, 64u);
      EXPECT_FALSE(seen[idx]);
      seen[idx] = true;
    }
  }
  const auto logical = random_values(64, 65537, 20);
  EXPECT_EQ(layout.from_slots(layout.to_slots(logical)), logical);
}

TEST(SlotLayout, RotateReference) {
  SlotLayout layout(16, 65537);  // 2 x 8 grid
  std::vector<std::uint64_t> v(16);
  for (std::size_t i = 0; i < 16; ++i) v[i] = i;
  const auto r = layout.rotate_columns(v, 3);
  for (std::size_t row = 0; row < 2; ++row) {
    for (std::size_t col = 0; col < 8; ++col) {
      EXPECT_EQ(r[row * 8 + col], v[row * 8 + (col + 3) % 8]);
    }
  }
  // Negative steps wrap.
  EXPECT_EQ(layout.rotate_columns(v, -1), layout.rotate_columns(v, 7));
  // Full cycle is the identity.
  EXPECT_EQ(layout.rotate_columns(v, 8), v);
}

TEST(BgvRotation, MatchesSlotLayoutReference) {
  const auto params = BgvParams::toy();
  Bgv bgv(params);
  BatchEncoder encoder(params.n, params.t);
  SlotLayout layout(params.n, params.t);
  const auto keys = bgv.make_rotation_keys({1, 5, 100});

  const auto logical = random_values(params.n, params.t, 21);
  auto ct = bgv.encrypt(encoder.encode(layout.to_slots(logical)));

  for (long step : {1L, 5L, 100L}) {
    Ciphertext rotated = ct;
    bgv.rotate_columns_inplace(rotated, step, keys);
    EXPECT_GT(bgv.noise_budget_bits(rotated), 0.0) << "step " << step;
    const auto got =
        layout.from_slots(encoder.decode(bgv.decrypt(rotated)));
    EXPECT_EQ(got, layout.rotate_columns(logical, step)) << "step " << step;
  }
}

TEST(BgvRotation, ComposesAndSupportsLowerLevels) {
  const auto params = BgvParams::toy();
  Bgv bgv(params);
  BatchEncoder encoder(params.n, params.t);
  SlotLayout layout(params.n, params.t);
  const auto keys = bgv.make_rotation_keys({2, 3});

  const auto logical = random_values(params.n, params.t, 22);
  auto ct = bgv.encrypt(encoder.encode(layout.to_slots(logical)));
  bgv.mod_switch_inplace(ct);  // rotation keys restrict to lower levels
  bgv.rotate_columns_inplace(ct, 2, keys);
  bgv.rotate_columns_inplace(ct, 3, keys);
  const auto got = layout.from_slots(encoder.decode(bgv.decrypt(ct)));
  EXPECT_EQ(got, layout.rotate_columns(logical, 5));
}

TEST(BgvRotation, RowSwapMatchesReference) {
  const auto params = BgvParams::toy();
  Bgv bgv(params);
  BatchEncoder encoder(params.n, params.t);
  SlotLayout layout(params.n, params.t);
  const auto keys = bgv.make_rotation_keys({GaloisKeys::kRowSwap, 2});

  const auto logical = random_values(params.n, params.t, 24);
  auto ct = bgv.encrypt(encoder.encode(layout.to_slots(logical)));
  bgv.swap_rows_inplace(ct, keys);
  auto got = layout.from_slots(encoder.decode(bgv.decrypt(ct)));
  EXPECT_EQ(got, layout.swap_rows(logical));

  // Swap twice == identity; composes with column rotation.
  bgv.swap_rows_inplace(ct, keys);
  bgv.rotate_columns_inplace(ct, 2, keys);
  got = layout.from_slots(encoder.decode(bgv.decrypt(ct)));
  EXPECT_EQ(got, layout.rotate_columns(logical, 2));
}

TEST(BgvRotation, MissingKeyThrowsAndZeroIsNoop) {
  const auto params = BgvParams::toy();
  Bgv bgv(params);
  BatchEncoder encoder(params.n, params.t);
  const auto keys = bgv.make_rotation_keys({1});
  auto ct = bgv.encrypt(encoder.encode({1, 2, 3}));
  EXPECT_THROW(bgv.rotate_columns_inplace(ct, 2, keys), poe::Error);
  Ciphertext copy = ct;
  bgv.rotate_columns_inplace(copy, 0, keys);  // no-op, no key needed
  EXPECT_EQ(bgv.decrypt(copy).coeffs, bgv.decrypt(ct).coeffs);
}

TEST(Poly, AutomorphismIsRingHomomorphism) {
  // tau_g(f * h) == tau_g(f) * tau_g(h) in R_q.
  const auto primes = mod::ntt_prime_chain(1, 40, 32);
  RnsContext ctx(32, 65537, primes);
  Xoshiro256 rng(23);
  std::vector<std::int64_t> fc(32), hc(32);
  for (auto& x : fc) x = static_cast<std::int64_t>(rng.below(100));
  for (auto& x : hc) x = static_cast<std::int64_t>(rng.below(100));
  auto f = RnsPoly::from_signed_coeffs(&ctx, 1, fc);
  auto h = RnsPoly::from_signed_coeffs(&ctx, 1, hc);

  const std::uint64_t g = 3;
  // lhs: tau(f*h)
  RnsPoly prod = f;
  prod.to_ntt();
  RnsPoly hn = h;
  hn.to_ntt();
  prod.mul_inplace(hn);
  prod.from_ntt();
  RnsPoly lhs = prod.apply_automorphism(g);
  // rhs: tau(f)*tau(h)
  RnsPoly tf = f.apply_automorphism(g);
  RnsPoly th = h.apply_automorphism(g);
  tf.to_ntt();
  th.to_ntt();
  tf.mul_inplace(th);
  tf.from_ntt();
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(lhs.rns(0)[i], tf.rns(0)[i]);
  }
}

TEST(Poly, AutomorphismNttMatchesCoefficientPath) {
  // In NTT form tau_g is a pure slot permutation (X^i evaluates to psi-power
  // slots; tau_g permutes which power lands where), so forward-NTT followed
  // by apply_automorphism_ntt must be bit-identical to the coefficient-domain
  // automorphism followed by forward-NTT — for every odd Galois element, at
  // every level, in every RNS component.
  const std::size_t n = 64;
  const auto primes = mod::ntt_prime_chain(3, 40, n);
  RnsContext ctx(n, 65537, primes);
  Xoshiro256 rng(29);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t level = 1 + static_cast<std::size_t>(trial) % 3;
    const std::uint64_t g = 2 * rng.below(n) + 1;  // random odd elt of Z_2n
    std::vector<std::int64_t> c(n);
    for (auto& x : c) x = static_cast<std::int64_t>(rng.below(5000));
    const RnsPoly f = RnsPoly::from_signed_coeffs(&ctx, level, c);

    RnsPoly ref = f.apply_automorphism(g);
    ref.to_ntt();
    RnsPoly fn = f;
    fn.to_ntt();
    const RnsPoly got = fn.apply_automorphism_ntt(g);

    ASSERT_TRUE(got.is_ntt());
    for (std::size_t i = 0; i < level; ++i) {
      for (std::size_t idx = 0; idx < n; ++idx) {
        ASSERT_EQ(got.rns(i)[idx], ref.rns(i)[idx])
            << "g=" << g << " level=" << level << " component=" << i;
      }
    }
  }
}

TEST(Galois, EltForStepMatchesIteratedGenerator) {
  // galois_elt_for_step computes 3^step mod 2n by square-and-multiply; pin
  // it against the plain iterated product and the step normalisation rules.
  const std::size_t n = 256;
  std::uint64_t e = 1;
  for (long step = 0; step < static_cast<long>(n / 2); ++step) {
    EXPECT_EQ(galois_elt_for_step(n, step), e) << "step " << step;
    e = (e * 3) % (2 * n);
  }
  EXPECT_EQ(galois_elt_for_step(n, 0), 1u);
  EXPECT_EQ(galois_elt_for_step(n, -3),
            galois_elt_for_step(n, static_cast<long>(n / 2) - 3));
  EXPECT_EQ(galois_elt_for_step(n, static_cast<long>(n / 2) + 5),
            galois_elt_for_step(n, 5));
}

TEST(BgvRotation, HoistedMatchesReferenceWithZeroForwardNtts) {
  const auto params = BgvParams::toy();
  Bgv bgv(params);
  BatchEncoder encoder(params.n, params.t);
  SlotLayout layout(params.n, params.t);
  const auto keys = bgv.make_rotation_keys({1, 3, 7});

  const auto logical = random_values(params.n, params.t, 41);
  auto ct = bgv.encrypt(encoder.encode(layout.to_slots(logical)));
  const HoistedCt hoisted = bgv.hoist(ct);

  // All rotations are served from the one shared decomposition; none of
  // them may run a forward NTT — that is the point of hoisting.
  const auto before = bgv.rns().exec().snapshot();
  std::vector<Ciphertext> rotated;
  for (long step : {1L, 3L, 7L}) {
    rotated.push_back(bgv.rotate_hoisted(hoisted, step, keys));
  }
  const auto delta = bgv.rns().exec().snapshot() - before;
  EXPECT_EQ(delta.ntt_forward, 0u);
  EXPECT_EQ(delta.hoisted_rotations, 3u);
  EXPECT_EQ(delta.automorphisms, 3u);

  std::size_t i = 0;
  for (long step : {1L, 3L, 7L}) {
    EXPECT_GT(bgv.noise_budget_bits(rotated[i]), 0.0) << "step " << step;
    EXPECT_EQ(layout.from_slots(encoder.decode(bgv.decrypt(rotated[i]))),
              layout.rotate_columns(logical, step))
        << "step " << step;
    ++i;
  }

  // Hoisting works at lower levels too (keys restrict per level).
  bgv.mod_switch_inplace(ct);
  const HoistedCt lower = bgv.hoist(ct);
  const auto rot = bgv.rotate_hoisted(lower, 3, keys);
  EXPECT_EQ(layout.from_slots(encoder.decode(bgv.decrypt(rot))),
            layout.rotate_columns(logical, 3));
}

TEST(BgvRotation, HoistedRejectsZeroStepAndMissingKey) {
  const auto params = BgvParams::toy();
  Bgv bgv(params);
  BatchEncoder encoder(params.n, params.t);
  const auto keys = bgv.make_rotation_keys({1});
  const auto ct = bgv.encrypt(encoder.encode({1, 2, 3}));
  const HoistedCt hoisted = bgv.hoist(ct);
  EXPECT_THROW(bgv.rotate_hoisted(hoisted, 0, keys), poe::Error);
  EXPECT_THROW(bgv.rotate_hoisted(hoisted, 2, keys), poe::Error);
}

TEST(NoiseEstimator, BoundIsSoundOverRandomCircuits) {
  // Property: the static (no-secret-key) noise bound never claims more
  // budget than the true, secret-key-measured budget — and whenever it
  // claims positive budget, decryption is correct.
  const auto params = BgvParams::toy();
  Bgv bgv(params);
  BatchEncoder encoder(params.n, params.t);
  NoiseEstimator est(params);
  mod::Modulus mt(params.t);

  Xoshiro256 rng(40);
  for (int trial = 0; trial < 6; ++trial) {
    auto values = random_values(16, params.t, 41 + trial);
    values.resize(params.n, 0);
    auto expect = values;
    auto ct = bgv.encrypt(encoder.encode(values));
    double bound = est.fresh();

    for (int op = 0; op < 10; ++op) {
      switch (rng.below(5)) {
        case 0: {  // add ct
          bgv.add_inplace(ct, ct);
          bound = est.add(bound, bound);
          for (auto& v : expect) v = mt.add(v, v);
          break;
        }
        case 1: {  // scalar mul
          const std::uint64_t s = 1 + rng.below(1000);
          bgv.mul_scalar_inplace(ct, s);
          bound = est.mul_scalar(bound, s);
          for (auto& v : expect) v = mt.mul(v, s);
          break;
        }
        case 2: {  // add scalar
          bgv.add_scalar_inplace(ct, 7);
          bound = est.add_scalar(bound);
          for (auto& v : expect) v = mt.add(v, 7);
          break;
        }
        case 3: {  // square + relin, if depth remains
          if (ct.level < 2 ||
              est.budget(est.multiply(bound, bound), ct.level) < 10) break;
          ct = bgv.multiply_relin(ct, ct);
          bound = est.mod_switch(
              est.relinearize(est.multiply(bound, bound), ct.level + 1));
          for (auto& v : expect) v = mt.mul(v, v);
          break;
        }
        case 4: {  // mod switch
          if (ct.level < 2) break;
          bgv.mod_switch_inplace(ct);
          bound = est.mod_switch(bound);
          break;
        }
      }
      const double est_budget = est.budget(bound, ct.level);
      const double true_budget = bgv.noise_budget_bits(ct);
      EXPECT_LE(est_budget, true_budget + 0.5)
          << "trial " << trial << " op " << op << " level " << ct.level;
      if (est_budget > 0) {
        EXPECT_EQ(encoder.decode(bgv.decrypt(ct)), expect)
            << "trial " << trial << " op " << op;
      }
    }
  }
}

TEST(NoiseEstimator, MatchesObservedFreshAndSwitchBehaviour) {
  const auto params = BgvParams::toy();
  Bgv bgv(params);
  NoiseEstimator est(params);
  BatchEncoder encoder(params.n, params.t);
  auto ct = bgv.encrypt(encoder.encode({1, 2, 3}));
  // Fresh bound is conservative but within ~14 bits of measured.
  const double measured = bgv.noise_budget_bits(ct);
  const double estimated = est.budget(est.fresh(), ct.level);
  EXPECT_LE(estimated, measured);
  EXPECT_GT(estimated, measured - 14.0);
}

TEST(Serialize, CiphertextRoundtripAtEveryLevel) {
  const auto params = BgvParams::toy();
  Bgv bgv(params);
  BatchEncoder encoder(params.n, params.t);
  const auto values = random_values(params.n, params.t, 30);
  auto ct = bgv.encrypt(encoder.encode(values));
  for (;;) {
    const auto bytes = serialize_ciphertext(bgv.rns(), ct);
    EXPECT_EQ(bytes.size(),
              ciphertext_wire_bytes(bgv.rns(), ct.level, ct.size()));
    const auto back = deserialize_ciphertext(bgv.rns(), bytes);
    EXPECT_EQ(back.level, ct.level);
    EXPECT_EQ(encoder.decode(bgv.decrypt(back)), values);
    if (ct.level == 1) break;
    bgv.mod_switch_inplace(ct);
  }
}

TEST(Serialize, ThreePartCiphertext) {
  const auto params = BgvParams::toy();
  Bgv bgv(params);
  BatchEncoder encoder(params.n, params.t);
  const auto a = random_values(8, params.t, 31);
  const auto ca = bgv.encrypt(encoder.encode(a));
  const auto tensor = bgv.multiply(ca, ca);
  const auto bytes = serialize_ciphertext(bgv.rns(), tensor);
  const auto back = deserialize_ciphertext(bgv.rns(), bytes);
  EXPECT_EQ(back.size(), 3u);
  mod::Modulus mt(params.t);
  const auto got = encoder.decode(bgv.decrypt(back));
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(got[i], mt.mul(a[i], a[i]));
}

TEST(Serialize, RejectsCorruptStreams) {
  const auto params = BgvParams::toy();
  Bgv bgv(params);
  auto ct = bgv.encrypt(Plaintext{{1, 2, 3}});
  auto bytes = serialize_ciphertext(bgv.rns(), ct);
  // Bad magic.
  auto bad = bytes;
  bad[0] ^= 0xFF;
  EXPECT_THROW(deserialize_ciphertext(bgv.rns(), bad), poe::Error);
  // Truncated.
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(deserialize_ciphertext(bgv.rns(), bytes), poe::Error);
}

TEST(Serialize, WireSizeShrinksWithLevel) {
  const auto params = BgvParams::toy();
  Bgv bgv(params);
  const auto full = ciphertext_wire_bytes(bgv.rns(), params.num_primes, 2);
  const auto one = ciphertext_wire_bytes(bgv.rns(), 1, 2);
  EXPECT_GT(full, one * 2);
}

TEST(Poly, MoveAndPoolRoundtripBitIdentical) {
  const auto primes = mod::ntt_prime_chain(2, 40, 16);
  RnsContext ctx(16, 65537, primes);
  Xoshiro256 rng(42);
  RnsPoly a = RnsPoly::sample_uniform(&ctx, 2, rng, /*ntt_form=*/false);
  std::vector<std::uint64_t> want;
  for (std::size_t i = 0; i < 2; ++i) {
    want.insert(want.end(), a.rns(i).begin(), a.rns(i).end());
  }
  // A move re-seats the same slab (no copy, no pool traffic).
  const std::uint64_t* slab = a.rns(0).data();
  const CounterSnapshot before = ctx.exec().snapshot();
  RnsPoly b = std::move(a);
  EXPECT_EQ(b.rns(0).data(), slab);
  const CounterSnapshot after_move = ctx.exec().snapshot() - before;
  EXPECT_EQ(after_move.pool_hits + after_move.pool_misses, 0u);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 16; ++j) {
      EXPECT_EQ(b.rns(i)[j], want[i * 16 + j]);
    }
  }
  // Destroying the poly parks the slab; the next same-size construction gets
  // the recycled slab back with every word zeroed (no stale coefficients).
  b = RnsPoly();
  RnsPoly c(&ctx, 2, false);
  EXPECT_EQ(c.rns(0).data(), slab);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 16; ++j) EXPECT_EQ(c.rns(i)[j], 0u);
  }
}

TEST(Bgv, WarmedUpMultiplyRunsFromThePool) {
  // After one warm-up multiply has populated the pool's size classes, ten
  // more multiply+relinearise rounds should recycle slabs rather than touch
  // the allocator: the ISSUE's acceptance bar is a >90% hit rate.
  Bgv bgv(BgvParams::toy());
  BatchEncoder enc(bgv.params().n, bgv.params().t);
  const auto ct = bgv.encrypt(enc.encode({5, 6, 7}));
  (void)bgv.multiply_relin(ct, ct);
  const CounterSnapshot before = bgv.rns().exec().snapshot();
  for (int i = 0; i < 10; ++i) (void)bgv.multiply_relin(ct, ct);
  const CounterSnapshot delta = bgv.rns().exec().snapshot() - before;
  EXPECT_EQ(delta.ct_ct_mul, 10u);
  EXPECT_EQ(delta.key_switch, 10u);
  EXPECT_GT(delta.ntts(), 0u);
  EXPECT_GT(delta.pool_hits, 0u);
  EXPECT_GT(delta.pool_hit_rate(), 0.9);
}

TEST(BgvIngest, SwitchedCiphertextDecryptsUnderEvaluatorKey) {
  // Two evaluators over the SAME ring but different secrets: a ciphertext
  // encrypted by the tenant, switched on ingest, must decrypt under the
  // host's secret to the same plaintext — with noise to spare.
  const auto params = BgvParams::toy();
  auto tenant_params = params;
  tenant_params.seed = params.seed + 99;
  Bgv host(params), tenant(tenant_params);
  BatchEncoder encoder(params.n, params.t);

  const KswKey ingest_key = host.make_ingest_key(tenant);
  const auto values = random_values(params.n, params.t, 7);
  const auto ct = tenant.encrypt(encoder.encode(values));

  const Ciphertext switched = host.ingest_switch(ct, ingest_key);
  EXPECT_GT(host.noise_budget_bits(switched), 0.0);
  EXPECT_EQ(encoder.decode(host.decrypt(switched)), values);

  // Sanity: the secrets genuinely differ — the tenant reads its own
  // ciphertext fine (the host cannot even be handed `ct` directly: its
  // polynomials are bound to the tenant's context, which is the point of
  // the span-wise rebind inside ingest_switch).
  EXPECT_EQ(encoder.decode(tenant.decrypt(ct)), values);

  // The switched ciphertext is a first-class citizen of the host domain:
  // homomorphic ops on it still decrypt correctly.
  auto doubled = switched;
  host.add_inplace(doubled, switched);
  auto expect = values;
  for (auto& v : expect) v = (2 * v) % params.t;
  EXPECT_EQ(encoder.decode(host.decrypt(doubled)), expect);
}

TEST(BgvIngest, RejectsMismatchedRings) {
  const auto params = BgvParams::toy();
  Bgv host(params);
  auto other = params;
  other.num_primes = params.num_primes - 1;  // different modulus chain
  Bgv tenant(other);
  EXPECT_THROW((void)host.make_ingest_key(tenant), poe::Error);
}

TEST(Poly, RepresentationGuards) {
  const auto primes = mod::ntt_prime_chain(2, 40, 16);
  RnsContext ctx(16, 65537, primes);
  RnsPoly a(&ctx, 2, false), b(&ctx, 2, true);
  EXPECT_THROW(a.add_inplace(b), poe::Error);   // form mismatch
  EXPECT_THROW(a.mul_inplace(a), poe::Error);   // not NTT form
  RnsPoly c(&ctx, 1, false);
  EXPECT_THROW(a.add_inplace(c), poe::Error);   // level mismatch
  a.to_ntt();
  EXPECT_THROW(a.to_ntt(), poe::Error);
}

}  // namespace
}  // namespace poe::fhe
