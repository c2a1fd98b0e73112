// Static noise-bound tracking for BGV ciphertexts.
//
// The server cannot measure noise (that needs the secret key); it must
// *bound* it. NoiseEstimator mirrors every homomorphic operation with a
// conservative bound in log2 — the invariant, checked by property tests, is
// that the estimated budget is never larger than the true (secret-key
// measured) budget. Circuit designers use it to place modulus switches
// without oracle access; Bgv maintains one bound per ciphertext
// (Ciphertext::noise_bits) and the automatic mod-switch scheduler
// (Bgv::auto_switch_inplace) consults it to drop primes as early as the
// bound allows.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "fhe/bgv.hpp"

namespace poe::fhe {

// The mod-switch scheduler policy: one definition each, read by the live
// evaluator (Bgv::auto_switch_inplace, Bgv::trim_output_inplace and the
// coefficient server's row-aligned drops) and by the parameter-search
// replay (simulate), so live and replayed schedules cannot disagree.

/// Switch margin: mid-circuit, a prime is dropped while noise - prime_bits
/// >= floor - kSwitchMarginBits, i.e. each switch may sacrifice at most
/// this many bits of budget to the rounding floor (auto_drop_target).
inline constexpr double kSwitchMarginBits = 2.0;

/// Output floor: a ciphertext handed back to a client is trimmed to the
/// lowest level whose tracked budget still clears this many bits
/// (trim_target), and the parameter search accepts only chains whose
/// replayed outputs clear it. The CI noise smoke's band_low.
inline constexpr double kOutputFloorBits = 8.0;

class NoiseEstimator {
 public:
  explicit NoiseEstimator(const BgvParams& params)
      : params_(params),
        log_n_(std::log2(static_cast<double>(params.n))),
        log_t_(std::log2(static_cast<double>(params.t))) {}

  /// Bound (bits) on a fresh encryption's invariant |c0 + c1 s|.
  double fresh() const {
    // t * (e0 + u*e_pk + s*e1) + m: eta=2 noise, ternary u/s.
    return log_t_ + std::log2(3.0) + log_n_ + 2.0;
  }

  double add(double a, double b) const { return std::max(a, b) + 1.0; }

  double add_scalar(double a) const { return std::max(a, log_t_) + 1.0; }

  /// Add a plaintext polynomial (coefficients < t, centered <= t/2).
  double add_plain(double a) const { return std::max(a, log_t_) + 1.0; }

  double mul_scalar(double a, std::uint64_t scalar) const {
    const std::uint64_t t = params_.t;
    const std::uint64_t mag = scalar > t / 2 ? t - scalar : scalar;
    return a + std::log2(static_cast<double>(mag) + 1.0);
  }

  /// Multiply by an arbitrary plaintext polynomial (coefficients < t).
  double mul_plain(double a) const { return a + log_t_ + log_n_; }

  double multiply(double a, double b) const { return a + b + log_n_ + 1.0; }

  /// Key-switching additive term (relinearisation or rotation): the digit
  /// decomposition contributes sum_w digit_w * (t e_w) with |digit_w| <
  /// 2^{bits_w} and |e_w| <= 2 (eta=2 key noise), so the coefficient bound
  /// is 2 t n sum_w 2^{bits_w} over the digits actually present at `level`
  /// — the top digit of each prime carries only prime_bits mod digit_bits
  /// bits, which this sum accounts for exactly. (The former bound charged a
  /// full 2^{digit_bits} to every digit plus 2 extra slack bits; that
  /// uniform conservatism forced mod-switches later than necessary.)
  double ksw_bound(std::size_t level) const {
    const unsigned dbits = params_.relin_digit_bits;
    const unsigned qbits = params_.prime_bits;
    double per_prime = 0.0;
    for (unsigned consumed = 0; consumed < qbits; consumed += dbits) {
      per_prime += std::exp2(static_cast<double>(
          std::min(dbits, qbits - consumed)));
    }
    return log_t_ + 1.0 + log_n_ +
           std::log2(static_cast<double>(level) * per_prime);
  }

  double relinearize(double a, std::size_t level) const {
    return std::max(a, ksw_bound(level)) + 1.0;
  }

  double rotate(double a, std::size_t level) const {
    return relinearize(a, level);
  }

  /// Bound after one fused diagonal accumulation: `terms` plaintext-times-
  /// rotation products summed into one accumulator, every source served
  /// from the same hoisted state (the unrotated k=0 term is dominated by
  /// the rotated bound).
  double fused_affine(double state_noise, std::size_t level,
                      std::size_t terms) const {
    return mul_plain(rotate(state_noise, level)) +
           std::log2(static_cast<double>(terms));
  }

  /// Rounding floor of a modulus switch on a ciphertext with `parts`
  /// components: the correction delta_i = t [c_i t^{-1}]_{q_last} adds
  /// (delta_0 + delta_1 s + delta_2 s^2) / q_last to the invariant, so a
  /// 3-part (pre-relinearisation) switch pays an extra ||s^2||_1 <= n
  /// factor on its floor.
  double mod_switch_floor(std::size_t parts) const {
    return parts >= 3 ? log_t_ + 2.0 * log_n_ + 2.0 : log_t_ + log_n_ + 2.0;
  }

  double mod_switch(double a, std::size_t parts) const {
    return std::max(a - params_.prime_bits, mod_switch_floor(parts));
  }

  /// 2-part convenience overload (the post-relinearisation common case).
  double mod_switch(double a) const { return mod_switch(a, 2); }

  /// Greedy scheduler core: the lowest level reachable from (noise_bits,
  /// level) by switches that each sacrifice at most kSwitchMarginBits of
  /// budget to the rounding floor — i.e. while noise - prime_bits >=
  /// floor - kSwitchMarginBits. The tolerance makes the policy CONTRACTING:
  /// two runs whose bounds differ slightly (different nonce scalars, a
  /// native vs an ingest-switched tenant key) drop at the same points and
  /// both clamp to the floor, instead of bifurcating into different
  /// schedules when one of them misses a strict budget-free threshold by a
  /// fraction of a bit.
  /// One policy, three users: Bgv::auto_switch_inplace, the servers'
  /// row-aligned vector variant, and the parameter-search replay
  /// (simulate).
  std::size_t auto_drop_target(double noise_bits, std::size_t level,
                               std::size_t parts) const {
    const double floor = mod_switch_floor(parts);
    while (level > 1 &&
           noise_bits - params_.prime_bits >= floor - kSwitchMarginBits) {
      noise_bits = mod_switch(noise_bits, parts);
      --level;
    }
    return level;
  }

  /// Terminal right-sizing for ciphertexts leaving the server: the lowest
  /// level reachable while the bound-derived budget stays >=
  /// kOutputFloorBits. Unlike auto_drop_target (which only takes
  /// near-free switches mid-circuit), the trim deliberately SPENDS surplus
  /// budget — once no more noise-heavy ops follow, any level beyond the
  /// safety band is wasted modulus: larger download, slower decryption, and
  /// the very parameter surplus the search exists to eliminate.
  std::size_t trim_target(double noise_bits, std::size_t level,
                          std::size_t parts) const {
    while (level > 1) {
      const double dropped = mod_switch(noise_bits, parts);
      if (budget(dropped, level - 1) < kOutputFloorBits) break;
      noise_bits = dropped;
      --level;
    }
    return level;
  }

  /// Budget (bits) left at `level` given a noise bound.
  double budget(double noise_bits, std::size_t level) const {
    return static_cast<double>(level) * params_.prime_bits - 1.0 -
           noise_bits;
  }

 private:
  BgvParams params_;
  double log_n_;
  double log_t_;
};

}  // namespace poe::fhe
