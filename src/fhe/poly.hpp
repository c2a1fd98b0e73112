// Polynomials in RNS representation over R_q = Z_q[X]/(X^n + 1).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/pool.hpp"
#include "common/rng.hpp"
#include "fhe/context.hpp"

namespace poe::fhe {

/// One element of R_q at a given level. Storage is ONE contiguous flat slab
/// (level * n words, component i at offset i*n) drawn from the context's
/// BufferPool and returned to it on destruction — a warmed-up circuit
/// evaluation allocates nothing. `ntt_form` distinguishes evaluation
/// representation (pointwise multiplication) from coefficient
/// representation.
class RnsPoly {
 public:
  RnsPoly() = default;
  RnsPoly(const RnsContext* ctx, std::size_t level, bool ntt_form);
  RnsPoly(const RnsPoly& o);
  RnsPoly& operator=(const RnsPoly& o);
  RnsPoly(RnsPoly&&) noexcept = default;
  RnsPoly& operator=(RnsPoly&&) noexcept = default;
  ~RnsPoly() = default;

  const RnsContext* context() const { return ctx_; }
  std::size_t level() const { return level_; }
  bool is_ntt() const { return ntt_form_; }

  /// Span over RNS component i (n coefficients mod q_i).
  std::span<std::uint64_t> rns(std::size_t i) {
    return {buf_.data() + i * ctx_->n(), ctx_->n()};
  }
  std::span<const std::uint64_t> rns(std::size_t i) const {
    return {buf_.data() + i * ctx_->n(), ctx_->n()};
  }

  void to_ntt();
  void from_ntt();

  RnsPoly& add_inplace(const RnsPoly& o);
  RnsPoly& sub_inplace(const RnsPoly& o);
  RnsPoly& negate_inplace();
  /// Pointwise product; both operands must be in NTT form. `o` may live at
  /// a HIGHER level (e.g. top-level key material); only the first level()
  /// components are read.
  RnsPoly& mul_inplace(const RnsPoly& o);
  /// this += a * b pointwise (all NTT form) in a single fused pass — the
  /// key-switching/tensoring accumulation without a temporary. `a` and `b`
  /// may live at higher levels.
  RnsPoly& add_mul_inplace(const RnsPoly& a, const RnsPoly& b);
  /// Multiply by an integer scalar (given mod t as a centered lift).
  RnsPoly& mul_scalar_inplace(std::uint64_t scalar_mod_t);

  /// Drop the last RNS component (used by modulus switching after the
  /// correction has been applied). The slab keeps its size class.
  void drop_last_component();

  /// Galois automorphism X -> X^g (g odd, coefficient form): coefficient i
  /// moves to i*g mod 2n with a sign flip when it wraps past n.
  RnsPoly apply_automorphism(std::uint64_t g) const;

  /// The same automorphism applied directly to NTT (evaluation) form: a pure
  /// slot permutation taken from RnsContext::galois_ntt_perm, so it costs a
  /// gather per component instead of an inverse+forward transform pair.
  RnsPoly apply_automorphism_ntt(std::uint64_t g) const;

  /// m -> centered lift of (coeffs mod t) into every RNS component.
  static RnsPoly from_plaintext(const RnsContext* ctx, std::size_t level,
                                std::span<const std::uint64_t> coeffs_mod_t,
                                bool to_ntt_form);
  /// The centred lift of from_plaintext for ONE prime: row[j] = c_j when
  /// c_j <= t/2, else -(t - c_j) mod m; words past coeffs_mod_t.size() are
  /// zeroed. Also the per-prime encode of Bgv::fused_affine.
  static void lift_plaintext_row(std::span<const std::uint64_t> coeffs_mod_t,
                                 std::uint64_t t, const mod::Modulus& m,
                                 std::span<std::uint64_t> row);

  /// Uniform element of R_q (per-prime uniform == CRT uniform).
  static RnsPoly sample_uniform(const RnsContext* ctx, std::size_t level,
                                Xoshiro256& rng, bool ntt_form);
  /// Ternary {-1, 0, 1} secret / encryption randomness.
  static RnsPoly sample_ternary(const RnsContext* ctx, std::size_t level,
                                Xoshiro256& rng);
  /// Centered binomial eta=2 noise (sigma ~ 1; stands in for a discrete
  /// Gaussian of comparable width).
  static RnsPoly sample_noise(const RnsContext* ctx, std::size_t level,
                              Xoshiro256& rng);

  /// Lift a small signed polynomial (given per-coefficient) to RNS.
  static RnsPoly from_signed_coeffs(const RnsContext* ctx, std::size_t level,
                                    std::span<const std::int64_t> coeffs);

  /// Slab with UNINITIALISED coefficients — for hot-loop temporaries that
  /// overwrite every word before reading (skips the zeroing memset the
  /// public constructor performs).
  static RnsPoly uninit(const RnsContext* ctx, std::size_t level,
                        bool ntt_form);

  /// Re-point this poly at (ctx, level, ntt_form) with UNINITIALISED
  /// contents, reusing the current slab whenever it is big enough (the
  /// copy-assignment rule). The backbone of per-context rotation scratch:
  /// after one warm-up pass at a level, reshaping at that level or below
  /// touches the pool zero times. Every word must be written before read.
  RnsPoly& reshape_uninit(const RnsContext* ctx, std::size_t level,
                          bool ntt_form);

  /// Zero the active level_ * n words in place (no pool traffic) — turns a
  /// reshaped scratch poly into a fresh accumulator.
  void set_zero();

 private:
  void check_compatible(const RnsPoly& o) const;
  /// Like check_compatible but allows `o` at a higher level (key material
  /// generated at the top of the chain restricts to any level).
  void check_operand(const RnsPoly& o) const;

  const RnsContext* ctx_ = nullptr;
  std::size_t level_ = 0;
  bool ntt_form_ = false;
  PolyBuffer buf_;  ///< flat slab: level_ * n words, component i at i*n
};

}  // namespace poe::fhe
