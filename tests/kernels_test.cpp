// Differential suite for the kernel backend layer: every SIMD backend must
// be bit-identical to ScalarBackend through the poe::kernels::Backend
// interface (the contract documented in kernels/backend.hpp), including the
// adversarial corners — coefficients at the lazy 4q-1 bound, moduli just
// under 2^62, and lengths that are not multiples of the vector width.
#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <vector>

#include "common/exec_context.hpp"
#include "common/rng.hpp"
#include "fhe/bgv.hpp"
#include "fhe/ntt.hpp"
#include "kernels/backend.hpp"
#include "modular/modulus.hpp"
#include "modular/primes.hpp"
#include "pasta/params.hpp"

namespace poe::kernels {
namespace {

using poe::mod::Modulus;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using u128 = unsigned __int128;

/// SIMD backends present on this build+machine (may be empty on plain
/// scalar hosts; every differential test then degenerates to a no-op, which
/// is the correct behaviour — the scalar reference defines the semantics).
std::vector<const Backend*> simd_backends() {
  std::vector<const Backend*> out;
  for (const Backend* b : available_backends()) {
    if (b != &scalar_backend()) out.push_back(b);
  }
  return out;
}

/// Moduli exercising the full legal range: tiny, Fermat-structured, the
/// PASTA 60-bit prime's neighbourhood, and primes just under the 2^62
/// Harvey bound. All ≡ 1 (mod 2n) so they double as NTT moduli.
std::vector<u64> test_moduli(std::size_t n) {
  std::vector<u64> out;
  for (unsigned bits : {20u, 30u, 45u, 60u}) {
    out.push_back(mod::ntt_prime_chain(1, bits, n)[0]);
  }
  // Largest NTT-friendly prime below the q < 2^62 representation bound.
  out.push_back(mod::previous_congruent_prime((u64{1} << 62) - 1, 2 * n));
  return out;
}

TEST(KernelRegistry, ScalarAlwaysFirstAndNamed) {
  const auto backends = available_backends();
  ASSERT_FALSE(backends.empty());
  EXPECT_EQ(backends[0], &scalar_backend());
  EXPECT_EQ(scalar_backend().name(), "scalar");
  for (const Backend* b : backends) {
    EXPECT_EQ(backend_by_name(b->name()), b) << b->name();
  }
  EXPECT_EQ(backend_by_name("no-such-backend"), nullptr);
  if (avx2_backend() != nullptr) {
    EXPECT_EQ(avx2_backend()->name(), "avx2");
  }
  if (avx512_backend() != nullptr) {
    EXPECT_EQ(avx512_backend()->name(), "avx512");
  }
}

TEST(KernelRegistry, EnvOverrideDispatch) {
  // select_backend() re-reads the environment on every call, so the
  // override can be exercised in-process.
  ASSERT_EQ(setenv("POE_KERNEL_BACKEND", "scalar", 1), 0);
  EXPECT_EQ(&select_backend(), &scalar_backend());
  ASSERT_EQ(setenv("POE_KERNEL_BACKEND", "bogus", 1), 0);
  EXPECT_THROW(select_backend(), poe::Error);
  ASSERT_EQ(unsetenv("POE_KERNEL_BACKEND"), 0);
  // Default policy: the widest available implementation.
  const Backend& picked = select_backend();
  if (avx512_backend() != nullptr) {
    EXPECT_EQ(&picked, avx512_backend());
  } else if (avx2_backend() != nullptr) {
    EXPECT_EQ(&picked, avx2_backend());
  } else {
    EXPECT_EQ(&picked, &scalar_backend());
  }
}

TEST(KernelNtt, ForwardBitIdentityIncludingLazyBound) {
  Xoshiro256 rng(101);
  for (const std::size_t n : {8u, 16u, 64u, 512u, 4096u}) {
    for (const u64 q : test_moduli(n)) {
      const fhe::Ntt ntt(q, n);
      const NttTables t = ntt.tables();
      // Random lazily-reduced inputs (< 4q, the documented acceptance
      // bound) plus the all-(4q-1) adversarial vector.
      for (int rep = 0; rep < 3; ++rep) {
        std::vector<u64> ref(n);
        for (auto& x : ref) {
          x = rep == 2 ? 4 * q - 1 : rng.below(4 * q);
        }
        std::vector<u64> expect = ref;
        scalar_backend().ntt_inplace(expect.data(), t);
        for (const u64 x : expect) {
          ASSERT_LT(x, q) << "scalar forward output not fully reduced";
        }
        for (const Backend* b : simd_backends()) {
          std::vector<u64> got = ref;
          b->ntt_inplace(got.data(), t);
          ASSERT_EQ(got, expect)
              << b->name() << " n=" << n << " q=" << q << " rep=" << rep;
        }
      }
    }
  }
}

TEST(KernelNtt, InverseBitIdentityAndRoundTrip) {
  Xoshiro256 rng(102);
  for (const std::size_t n : {8u, 16u, 64u, 512u, 4096u}) {
    for (const u64 q : test_moduli(n)) {
      const fhe::Ntt ntt(q, n);
      const NttTables t = ntt.tables();
      // Inverse accepts inputs < 2q; include the all-(2q-1) corner.
      for (int rep = 0; rep < 3; ++rep) {
        std::vector<u64> ref(n);
        for (auto& x : ref) {
          x = rep == 2 ? 2 * q - 1 : rng.below(2 * q);
        }
        std::vector<u64> expect = ref;
        scalar_backend().intt_inplace(expect.data(), t);
        for (const Backend* b : simd_backends()) {
          std::vector<u64> got = ref;
          b->intt_inplace(got.data(), t);
          ASSERT_EQ(got, expect)
              << b->name() << " n=" << n << " q=" << q << " rep=" << rep;
        }
      }
      // Round trip per backend: intt(ntt(x)) == x for reduced x.
      std::vector<u64> orig(n);
      for (auto& x : orig) x = rng.below(q);
      for (const Backend* b : available_backends()) {
        std::vector<u64> a = orig;
        b->ntt_inplace(a.data(), t);
        b->intt_inplace(a.data(), t);
        for (auto& x : a) x = x >= q ? x - q : x;  // intt is 2q-lazy
        ASSERT_EQ(a, orig) << b->name() << " n=" << n << " q=" << q;
      }
    }
  }
}

TEST(KernelPointwise, BitIdentityAtAwkwardLengths) {
  Xoshiro256 rng(103);
  // Lengths straddling the 4- and 8-lane widths, with ragged tails.
  const std::size_t lengths[] = {1, 3, 7, 8, 9, 33, 1000, 4095};
  for (const u64 q : test_moduli(4096)) {
    const Modulus m(q);
    for (const std::size_t n : lengths) {
      std::vector<u64> a(n), b(n), c(n);
      for (std::size_t i = 0; i < n; ++i) {
        // Bias toward the boundary values where a reduction step flips.
        a[i] = i % 5 == 0 ? q - 1 : rng.below(q);
        b[i] = i % 7 == 0 ? q - 1 : rng.below(q);
        c[i] = rng.below(q);
      }
      const u64 w = q - 1;  // worst-case Shoup multiplier
      const u64 w_shoup = shoup_precompute(w, q);

      std::vector<u64> e_add = a, e_sub = a, e_mul = a, e_am = a, e_sh(n);
      scalar_backend().add(e_add.data(), b.data(), n, m);
      scalar_backend().sub(e_sub.data(), b.data(), n, m);
      scalar_backend().mul(e_mul.data(), b.data(), n, m);
      scalar_backend().add_mul(e_am.data(), b.data(), c.data(), n, m);
      scalar_backend().mul_shoup(e_sh.data(), a.data(), n, w, w_shoup, q);
      // Independent ground truth for the scalar reference itself.
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(e_add[i], (a[i] + b[i]) % q);
        ASSERT_EQ(e_sub[i], (a[i] + q - b[i]) % q);
        ASSERT_EQ(e_mul[i], static_cast<u64>(u128{a[i]} * b[i] % q));
        ASSERT_EQ(e_am[i], static_cast<u64>(
                               (u128{a[i]} + u128{b[i]} * c[i]) % q));
        ASSERT_EQ(e_sh[i] % q, static_cast<u64>(u128{a[i]} * w % q));
      }

      for (const Backend* bk : simd_backends()) {
        std::vector<u64> g = a;
        bk->add(g.data(), b.data(), n, m);
        ASSERT_EQ(g, e_add) << bk->name() << " add n=" << n << " q=" << q;
        g = a;
        bk->sub(g.data(), b.data(), n, m);
        ASSERT_EQ(g, e_sub) << bk->name() << " sub n=" << n << " q=" << q;
        g = a;
        bk->mul(g.data(), b.data(), n, m);
        ASSERT_EQ(g, e_mul) << bk->name() << " mul n=" << n << " q=" << q;
        g = a;
        bk->add_mul(g.data(), b.data(), c.data(), n, m);
        ASSERT_EQ(g, e_am) << bk->name() << " add_mul n=" << n << " q=" << q;
        std::vector<u64> gs(n);
        bk->mul_shoup(gs.data(), a.data(), n, w, w_shoup, q);
        ASSERT_EQ(gs, e_sh) << bk->name() << " mul_shoup n=" << n
                            << " q=" << q;
        // w == 0 (mul_scalar by 0 mod anything) must also agree.
        bk->mul_shoup(gs.data(), a.data(), n, 0, 0, q);
        std::vector<u64> es(n);
        scalar_backend().mul_shoup(es.data(), a.data(), n, 0, 0, q);
        ASSERT_EQ(gs, es) << bk->name() << " mul_shoup w=0";
      }
    }
  }
}

TEST(KernelReduce128, SimdMatchesSlowPathSweep) {
  // Mirrors Modulus.Reduce128BarrettMatchesSlowPath (modular_test.cpp) at
  // the backend boundary: FULL-RANGE 128-bit inputs, not just products.
  Xoshiro256 rng(104);
  const std::vector<u64> moduli = {2,
                                   3,
                                   17,
                                   65537,
                                   poe::pasta::pasta_prime(60),
                                   (u64{1} << 62) - 57,
                                   (u64{1} << 62) - 1};
  for (const u64 p : moduli) {
    const Modulus m(p);
    const std::size_t n = 1000;  // not a multiple of 4 or 8
    std::vector<u64> lo(n), hi(n), expect(n);
    for (std::size_t i = 0; i < n; ++i) {
      lo[i] = rng.next();
      hi[i] = rng.next();
    }
    // Pin the documented edge values in the first slots.
    lo[0] = 0, hi[0] = 0;
    lo[1] = p, hi[1] = 0;
    lo[2] = p - 1, hi[2] = 0;
    const auto max_prod = static_cast<u128>(p - 1) * (p - 1);
    lo[3] = static_cast<u64>(max_prod), hi[3] = static_cast<u64>(max_prod >> 64);
    lo[4] = ~u64{0}, hi[4] = ~u64{0};
    for (std::size_t i = 0; i < n; ++i) {
      const u128 x = (static_cast<u128>(hi[i]) << 64) | lo[i];
      expect[i] = m.reduce128(x);  // the slow, obviously-correct path
    }
    for (const Backend* b : available_backends()) {
      std::vector<u64> got(n);
      b->reduce128(got.data(), lo.data(), hi.data(), n, m);
      ASSERT_EQ(got, expect) << b->name() << " p=" << p;
    }
  }
}

/// Key rows interleaved into a key-switch key slab of `total` >= kb.size()
/// keys (ksw_key_offset layout), sized for ceil(n / kKswLanes) groups. With
/// `perm`, slot j holds row slot perm^-1(j) — the tau^-1 pre-permutation of
/// a Galois key. Keys past kb.size() and lanes past n hold garbage that a
/// correct kernel never reads into a result.
std::vector<u64> key_slab(const std::vector<std::vector<u64>>& kb,
                          const std::vector<std::vector<u64>>& ka,
                          std::size_t n, std::size_t total, const u32* perm,
                          Xoshiro256& rng) {
  const std::size_t stride = 2 * kKswLanes * total;
  std::vector<u64> slab(stride * ((n + kKswLanes - 1) / kKswLanes));
  for (auto& x : slab) x = rng.next();
  for (std::size_t w = 0; w < kb.size(); ++w) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = perm != nullptr ? perm[i] : i;
      slab[ksw_key_offset(j, w, stride)] = kb[w][i];
      slab[ksw_key_offset(j, w, stride) + kKswLanes] = ka[w][i];
    }
  }
  return slab;
}

/// The two ways the library drives the kernel: a plain key switch
/// (perm == nullptr), and a rotation, whose key slab is stored
/// perm^-1-permuted (key_slab) and whose outputs are permuted once
/// afterwards — together equal to pairing digit slot perm[i] with key slot
/// i. Seeds in d0/d1 are taken in output order, as the naive sum sees them.
void run_ksw(const Backend& b, std::vector<u64>& d0, std::vector<u64>& d1,
             const std::vector<const u64*>& dig, const std::vector<u64>& slab,
             std::size_t total, std::size_t n, const u32* perm,
             const Modulus& m, bool acc0, bool acc1) {
  const std::size_t stride = 2 * kKswLanes * total;
  if (perm == nullptr) {
    b.ksw_accumulate(d0.data(), d1.data(), dig.data(), slab.data(), stride,
                     dig.size(), n, m, acc0, acc1);
    return;
  }
  std::vector<u64> x0(n), x1(n);
  for (std::size_t i = 0; i < n; ++i) x0[perm[i]] = d0[i], x1[perm[i]] = d1[i];
  b.ksw_accumulate(x0.data(), x1.data(), dig.data(), slab.data(), stride,
                   dig.size(), n, m, acc0, acc1);
  b.permute(d0.data(), x0.data(), perm, n);
  b.permute(d1.data(), x1.data(), perm, n);
}

TEST(KernelKsw, AccumulateMatchesNaiveWithAndWithoutPerm) {
  Xoshiro256 rng(105);
  for (const u64 q : test_moduli(256)) {
    const Modulus m(q);
    // n = 60 leaves a half-filled last group; nd < total reads a prefix of
    // every group, as a key switch below the top level does.
    for (const std::size_t n : {8u, 60u, 256u}) {
      for (const std::size_t nd : {1u, 5u, 22u}) {
        const std::size_t total = nd + 3;
        std::vector<std::vector<u64>> dig(nd), kb(nd), ka(nd);
        std::vector<const u64*> dig_p(nd);
        for (std::size_t w = 0; w < nd; ++w) {
          dig[w].resize(n), kb[w].resize(n), ka[w].resize(n);
          for (std::size_t i = 0; i < n; ++i) {
            // q-1 everywhere in the first digit stresses the lazy
            // accumulator's flush schedule hardest.
            dig[w][i] = w == 0 ? q - 1 : rng.below(q);
            kb[w][i] = w == 0 ? q - 1 : rng.below(q);
            ka[w][i] = rng.below(q);
          }
          dig_p[w] = dig[w].data();
        }
        std::vector<u32> perm(n);
        std::iota(perm.begin(), perm.end(), 0u);
        for (std::size_t i = n; i > 1; --i) {  // Fisher–Yates
          std::swap(perm[i - 1], perm[rng.below(i)]);
        }
        std::vector<u64> init0(n), init1(n);
        for (std::size_t i = 0; i < n; ++i) {
          init0[i] = rng.below(q);
          init1[i] = rng.below(q);
        }
        for (const u32* p : {static_cast<const u32*>(nullptr),
                             static_cast<const u32*>(perm.data())}) {
          // Naive ground truth: per-term modular reduction, no laziness.
          std::vector<u64> want0 = init0, want1 = init1;
          for (std::size_t i = 0; i < n; ++i) {
            const std::size_t j = p != nullptr ? p[i] : i;
            for (std::size_t w = 0; w < nd; ++w) {
              want0[i] = static_cast<u64>(
                  (u128{want0[i]} + u128{dig[w][j]} * kb[w][i]) % q);
              want1[i] = static_cast<u64>(
                  (u128{want1[i]} + u128{dig[w][j]} * ka[w][i]) % q);
            }
          }
          const std::vector<u64> slab = key_slab(kb, ka, n, total, p, rng);
          for (const Backend* b : available_backends()) {
            std::vector<u64> d0 = init0, d1 = init1;
            run_ksw(*b, d0, d1, dig_p, slab, total, n, p, m, true, true);
            ASSERT_EQ(d0, want0) << b->name() << " q=" << q << " n=" << n
                                 << " nd=" << nd << " perm=" << (p != nullptr);
            ASSERT_EQ(d1, want1) << b->name() << " q=" << q << " n=" << n
                                 << " nd=" << nd << " perm=" << (p != nullptr);
          }
        }
      }
    }
  }
}

TEST(KernelKsw, OverwriteModeIgnoresDestinationGarbage) {
  // seedX=false must produce exactly the accumulate-into-zero result no
  // matter what bits dst held before the call — the overwrite-mode ksw in
  // the hoisted-rotation hot path writes into UNINITIALISED leased scratch.
  Xoshiro256 rng(107);
  for (const u64 q : test_moduli(64)) {
    const Modulus m(q);
    const std::size_t n = 256, nd = 5, total = 7;
    std::vector<std::vector<u64>> dig(nd), kb(nd), ka(nd);
    std::vector<const u64*> dig_p(nd);
    for (std::size_t w = 0; w < nd; ++w) {
      dig[w].resize(n), kb[w].resize(n), ka[w].resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        dig[w][i] = rng.below(q);
        kb[w][i] = rng.below(q);
        ka[w][i] = rng.below(q);
      }
      dig_p[w] = dig[w].data();
    }
    std::vector<u32> perm(n);
    std::iota(perm.begin(), perm.end(), 0u);
    for (std::size_t i = n; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.below(i)]);
    }
    std::vector<u64> seed0(n), seed1(n);
    for (std::size_t i = 0; i < n; ++i) {
      seed0[i] = rng.below(q);
      seed1[i] = rng.below(q);
    }
    for (const u32* p : {static_cast<const u32*>(nullptr),
                         static_cast<const u32*>(perm.data())}) {
      // Ground truth per lane: accumulate-mode over a zero (overwrite) or
      // given (accumulate) seed, with per-term reduction.
      auto want_lane = [&](const std::vector<std::vector<u64>>& k,
                           const std::vector<u64>* init) {
        std::vector<u64> want(n, 0);
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t j = p != nullptr ? p[i] : i;
          u128 acc = init != nullptr ? (*init)[i] : u128{0};
          for (std::size_t w = 0; w < nd; ++w) {
            acc = (acc + u128{dig[w][j]} * k[w][i]) % q;
          }
          want[i] = static_cast<u64>(acc);
        }
        return want;
      };
      const std::vector<u64> slab = key_slab(kb, ka, n, total, p, rng);
      for (const Backend* b : available_backends()) {
        // Full overwrite: both lanes start as garbage, both must come out
        // as if seeded with zero.
        std::vector<u64> d0(n), d1(n);
        for (std::size_t i = 0; i < n; ++i) d0[i] = rng.next(), d1[i] = rng.next();
        run_ksw(*b, d0, d1, dig_p, slab, total, n, p, m, /*acc0=*/false,
                /*acc1=*/false);
        ASSERT_EQ(d0, want_lane(kb, nullptr))
            << b->name() << " q=" << q << " perm=" << (p != nullptr);
        ASSERT_EQ(d1, want_lane(ka, nullptr))
            << b->name() << " q=" << q << " perm=" << (p != nullptr);

        // Mixed flags: lane 0 accumulates onto its seed, lane 1 is
        // overwritten (the apply_galois/ingest shape).
        d0 = seed0;
        for (std::size_t i = 0; i < n; ++i) d1[i] = rng.next();
        run_ksw(*b, d0, d1, dig_p, slab, total, n, p, m, /*acc0=*/true,
                /*acc1=*/false);
        ASSERT_EQ(d0, want_lane(kb, &seed0))
            << b->name() << " q=" << q << " perm=" << (p != nullptr);
        ASSERT_EQ(d1, want_lane(ka, nullptr))
            << b->name() << " q=" << q << " perm=" << (p != nullptr);
      }
    }
  }
}

TEST(KernelPermute, PermuteAddBitIdentity) {
  // permute_add fuses the closing automorphism of a hoisted rotation with
  // the c0 addition: dst[i] = a[perm[i]] + b[perm[i]] mod q.
  Xoshiro256 rng(108);
  for (const u64 q : test_moduli(16)) {
    const Modulus m(q);
    for (const std::size_t n : {8u, 33u, 1024u}) {
      std::vector<u64> a(n), b(n);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = rng.below(q);
        b[i] = rng.below(q);
      }
      std::vector<u32> perm(n);
      std::iota(perm.begin(), perm.end(), 0u);
      for (std::size_t i = n; i > 1; --i) {
        std::swap(perm[i - 1], perm[rng.below(i)]);
      }
      for (const Backend* be : available_backends()) {
        std::vector<u64> got(n);
        be->permute_add(got.data(), a.data(), b.data(), perm.data(), n, m);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(got[i], (a[perm[i]] + b[perm[i]]) % q)
              << be->name() << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

TEST(KernelPermute, BitIdentity) {
  Xoshiro256 rng(106);
  for (const std::size_t n : {8u, 33u, 4096u}) {
    std::vector<u64> src(n);
    for (auto& x : src) x = rng.next();
    std::vector<u32> perm(n);
    std::iota(perm.begin(), perm.end(), 0u);
    for (std::size_t i = n; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.below(i)]);
    }
    std::vector<u64> expect(n);
    scalar_backend().permute(expect.data(), src.data(), perm.data(), n);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(expect[i], src[perm[i]]);
    for (const Backend* b : simd_backends()) {
      std::vector<u64> got(n);
      b->permute(got.data(), src.data(), perm.data(), n);
      ASSERT_EQ(got, expect) << b->name() << " n=" << n;
    }
  }
}

#ifndef NDEBUG
TEST(KernelDebugChecks, LazyBoundViolationsAreCaught) {
  const std::size_t n = 64;
  const u64 q = mod::ntt_prime_chain(1, 30, n)[0];
  const fhe::Ntt ntt(q, n);
  const NttTables t = ntt.tables();
  std::vector<u64> x(n, 0);
  x[n / 2] = 4 * q;  // >= 4q: illegal forward input
  EXPECT_THROW(scalar_backend().ntt_inplace(x.data(), t), poe::Error);
  x[n / 2] = 2 * q;  // >= 2q: illegal inverse input
  EXPECT_THROW(scalar_backend().intt_inplace(x.data(), t), poe::Error);
  x[n / 2] = 4 * q - 1;  // legal again
  EXPECT_NO_THROW(scalar_backend().ntt_inplace(x.data(), t));
}
#endif

/// End-to-end: two complete BGV instances that differ ONLY in kernel
/// backend must produce bit-identical ciphertexts through encrypt,
/// tensor/relinearise (exercises the lazy ksw accumulate), and a hoisted
/// rotation (exercises the fused permutation path).
TEST(KernelEndToEnd, BgvCiphertextsBitIdenticalAcrossBackends) {
  const auto simd = simd_backends();
  if (simd.empty()) GTEST_SKIP() << "no SIMD backend on this host";

  const auto params = fhe::BgvParams::toy();
  ExecContext scalar_exec(nullptr, &scalar_backend());
  const fhe::Bgv ref(params, &scalar_exec);

  fhe::Plaintext pt;
  pt.coeffs.assign(params.n, 0);
  for (std::size_t i = 0; i < params.n; ++i) {
    pt.coeffs[i] = (i * 7 + 3) % params.t;
  }
  const auto ref_ct = ref.encrypt(pt);
  const auto ref_prod = ref.multiply_relin(ref_ct, ref_ct);
  const auto ref_keys = ref.make_rotation_keys({1});
  const auto ref_rot = ref.rotate_hoisted(ref.hoist(ref_ct), 1, ref_keys);

  const auto expect_bits = [&](const fhe::Ciphertext& a,
                               const fhe::Ciphertext& b, const char* what,
                               std::string_view backend) {
    ASSERT_EQ(a.size(), b.size()) << what << " " << backend;
    ASSERT_EQ(a.level, b.level) << what << " " << backend;
    for (std::size_t p = 0; p < a.size(); ++p) {
      for (std::size_t i = 0; i < a.level; ++i) {
        const auto lhs = a.parts[p].rns(i);
        const auto rhs = b.parts[p].rns(i);
        ASSERT_TRUE(std::equal(lhs.begin(), lhs.end(), rhs.begin()))
            << what << " part " << p << " rns " << i << " " << backend;
      }
    }
  };

  for (const Backend* b : simd) {
    ExecContext exec(nullptr, b);
    const fhe::Bgv bgv(params, &exec);  // same seed => same keys
    const auto ct = bgv.encrypt(pt);
    expect_bits(ct, ref_ct, "encrypt", b->name());
    expect_bits(bgv.multiply_relin(ct, ct), ref_prod, "multiply_relin",
                b->name());
    const auto keys = bgv.make_rotation_keys({1});
    expect_bits(bgv.rotate_hoisted(bgv.hoist(ct), 1, keys), ref_rot,
                "rotate_hoisted", b->name());
    const auto dec = bgv.decrypt(ct);
    ASSERT_EQ(dec.coeffs, ref.decrypt(ref_ct).coeffs) << b->name();
  }
}

}  // namespace
}  // namespace poe::kernels
