// ScalarBackend — the bit-exact reference implementation.
//
// These are the original hand-written hot loops, moved here verbatim from
// src/fhe/ntt.cpp (Harvey lazy-Shoup butterflies), src/fhe/poly.cpp (the
// Barrett pointwise family and the automorphism slot permutation), and
// src/fhe/bgv.cpp (the lazy 128-bit key-switch inner product). Every SIMD
// backend is differentially tested against this one; change it only with
// the bit-identity suite in hand.

#include "kernels/backend.hpp"
#include "kernels/backend_impl.hpp"

namespace poe::kernels {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

// Lazy Shoup multiplication: r ≡ x * w (mod q) with r < 2q, for any x and
// precomputed w' = floor(w 2^64 / q). Skipping the final conditional
// subtract (Harvey's trick) shortens the butterfly's dependency chain; the
// transform keeps coefficients in [0, 4q) and reduces once at the end.
inline u64 mul_shoup_lazy(u64 x, u64 w, u64 w_shoup, u64 q) {
  const u64 hi = static_cast<u64>((static_cast<u128>(x) * w_shoup) >> 64);
  return x * w - hi * q;
}

class ScalarBackend final : public Backend {
 public:
  std::string_view name() const override { return "scalar"; }

  void add(u64* dst, const u64* src, std::size_t n,
           const mod::Modulus& m) const override {
    for (std::size_t j = 0; j < n; ++j) dst[j] = m.add(dst[j], src[j]);
  }

  void sub(u64* dst, const u64* src, std::size_t n,
           const mod::Modulus& m) const override {
    for (std::size_t j = 0; j < n; ++j) dst[j] = m.sub(dst[j], src[j]);
  }

  void mul(u64* dst, const u64* src, std::size_t n,
           const mod::Modulus& m) const override {
    for (std::size_t j = 0; j < n; ++j) dst[j] = m.mul(dst[j], src[j]);
  }

  void add_mul(u64* dst, const u64* a, const u64* b, std::size_t n,
               const mod::Modulus& m) const override {
    for (std::size_t j = 0; j < n; ++j) {
      dst[j] = m.add(dst[j], m.mul(a[j], b[j]));
    }
  }

  void mul_shoup(u64* dst, const u64* src, std::size_t n, u64 w, u64 w_shoup,
                 u64 q) const override {
    for (std::size_t j = 0; j < n; ++j) {
      u64 r = mul_shoup_lazy(src[j], w, w_shoup, q);
      if (r >= q) r -= q;
      dst[j] = r;
    }
  }

  void reduce128(u64* out, const u64* lo, const u64* hi, std::size_t n,
                 const mod::Modulus& m) const override {
    for (std::size_t j = 0; j < n; ++j) {
      out[j] = m.reduce128_barrett((static_cast<u128>(hi[j]) << 64) | lo[j]);
    }
  }

  void ksw_accumulate(u64* dst0, u64* dst1, const u64* const* dig,
                      const u64* key, std::size_t stride, std::size_t nd,
                      std::size_t n, const mod::Modulus& m, bool seed0,
                      bool seed1) const override {
    // Lazy accumulation: sum the raw 128-bit digit*key products and Barrett-
    // reduce once per slot instead of once per digit.
    detail::ksw_accumulate_slots(dst0, dst1, dig, key, stride, nd, 0, n, m,
                                 seed0, seed1);
  }

  void permute(u64* dst, const u64* src, const std::uint32_t* perm,
               std::size_t n) const override {
    for (std::size_t idx = 0; idx < n; ++idx) dst[idx] = src[perm[idx]];
  }

 protected:
  void ntt_impl(u64* x, const NttTables& t) const override {
    // Harvey lazy butterflies: coefficients ride in [0, 4q) (q < 2^62, so no
    // overflow), with one reduction sweep at the end instead of two
    // conditional corrections per butterfly.
    const u64 q = t.q;
    const u64 two_q = 2 * q;
    const u64* __restrict w = t.psi;
    const u64* __restrict ws = t.psi_shoup;
    const std::size_t n = t.n;
    std::size_t tt = n;
    for (std::size_t m = 1; m < n; m <<= 1) {
      tt >>= 1;
      for (std::size_t i = 0; i < m; ++i) {
        const std::size_t j1 = 2 * i * tt;
        const u64 s = w[m + i];
        const u64 s_shoup = ws[m + i];
        for (std::size_t j = j1; j < j1 + tt; ++j) {
          u64 u = x[j];
          if (u >= two_q) u -= two_q;  // < 2q
          const u64 v = mul_shoup_lazy(x[j + tt], s, s_shoup, q);
          x[j] = u + v;                 // < 4q
          x[j + tt] = u - v + two_q;    // < 4q
        }
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      u64 v = x[j];
      if (v >= two_q) v -= two_q;
      if (v >= q) v -= q;
      x[j] = v;
    }
  }

  void intt_impl(u64* x, const NttTables& t) const override {
    // Lazy Gentleman–Sande butterflies: coefficients stay in [0, 2q); the
    // final n^{-1} scaling pass completes the reduction to [0, q).
    const u64 q = t.q;
    const u64 two_q = 2 * q;
    const u64* __restrict w = t.psi_inv;
    const u64* __restrict ws = t.psi_inv_shoup;
    const std::size_t n = t.n;
    std::size_t tt = 1;
    for (std::size_t m = n; m > 1; m >>= 1) {
      std::size_t j1 = 0;
      const std::size_t h = m >> 1;
      for (std::size_t i = 0; i < h; ++i) {
        const u64 s = w[h + i];
        const u64 s_shoup = ws[h + i];
        for (std::size_t j = j1; j < j1 + tt; ++j) {
          const u64 u = x[j];
          const u64 v = x[j + tt];
          const u64 sum = u + v;  // < 4q
          x[j] = sum >= two_q ? sum - two_q : sum;
          x[j + tt] = mul_shoup_lazy(u - v + two_q, s, s_shoup, q);
        }
        j1 += 2 * tt;
      }
      tt <<= 1;
    }
    for (std::size_t j = 0; j < n; ++j) {
      u64 r = mul_shoup_lazy(x[j], t.n_inv, t.n_inv_shoup, q);
      if (r >= q) r -= q;
      x[j] = r;
    }
  }
};

}  // namespace

const Backend& scalar_backend() {
  static const ScalarBackend backend;
  return backend;
}

}  // namespace poe::kernels
