#include "fhe/param_search.hpp"

#include <algorithm>
#include <cmath>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "fhe/noise.hpp"

namespace poe::fhe {

namespace {

/// Per-node replay state.
struct NodeState {
  double noise = 0.0;
  std::size_t level = 0;
  std::size_t parts = 2;
};

/// Relative cost model, in "coefficient visits" weighted by how many RNS
/// limbs each visit touches. Only the RANKING across candidate parameter
/// sets matters; absolute values are meaningless. NTT-bearing ops carry an
/// extra log2(n) factor.
struct WorkModel {
  double n, log_n, digits_per_prime;

  explicit WorkModel(const BgvParams& p)
      : n(static_cast<double>(p.n)),
        log_n(std::log2(static_cast<double>(p.n))),
        digits_per_prime(std::ceil(static_cast<double>(p.prime_bits) /
                                   p.relin_digit_bits)) {}

  double ntt(double level) const { return level * n * log_n; }
  /// Digit decomposition: level*D digit polys, each lifted to `level` limbs
  /// and forward-transformed.
  double decompose(double level) const {
    return level * digits_per_prime * ntt(level);
  }
  /// Key inner product over the decomposed digits.
  double inner_product(double level) const {
    return level * digits_per_prime * level * n;
  }
  double key_switch(double level) const {
    return decompose(level) + inner_product(level) + ntt(level);
  }
  double mod_switch(double level, double parts) const {
    return parts * ntt(level);
  }
};

}  // namespace

SimResult simulate(const CircuitProfile& profile, const BgvParams& params) {
  const NoiseEstimator est(params);
  const WorkModel wm(params);
  const std::size_t top = params.num_primes;

  SimResult r;
  r.min_budget = 1e9;
  r.min_output_budget = 1e9;
  bool ok = true;

  std::vector<NodeState> st(profile.tape.size());

  auto drop_once = [&](NodeState& s) {
    s.noise = est.mod_switch(s.noise, s.parts);
    s.level -= 1;
    r.work += wm.mod_switch(static_cast<double>(s.level),
                            static_cast<double>(s.parts));
    r.mod_switches += 1;
  };
  auto align_to = [&](NodeState& s, std::size_t target) {
    while (s.level > target) drop_once(s);
  };

  for (std::size_t i = 0; i < profile.tape.size(); ++i) {
    const TapeNode& node = profile.tape[i];
    NodeState s;
    // Operand levels are aligned exactly like the live match_levels /
    // mod_switch_to calls the evaluator issues before a binary op.
    NodeState* a = node.a >= 0 ? &st[static_cast<std::size_t>(node.a)]
                               : nullptr;
    NodeState* b = node.b >= 0 ? &st[static_cast<std::size_t>(node.b)]
                               : nullptr;
    if (a != nullptr && b != nullptr) {
      const std::size_t target = std::min(a->level, b->level);
      align_to(*a, target);
      align_to(*b, target);
    }
    const double lvl = a != nullptr ? static_cast<double>(a->level) : 0.0;

    switch (node.op) {
      case NoiseOp::kFresh:
        s.noise = est.fresh();
        s.level = top;
        r.work += 2.0 * wm.ntt(static_cast<double>(top));
        break;
      case NoiseOp::kAdd:
        s.noise = est.add(a->noise, b->noise);
        s.level = a->level;
        s.parts = std::max(a->parts, b->parts);
        r.work += s.parts * lvl * wm.n;
        break;
      case NoiseOp::kAddPlain:
        s.noise = est.add_plain(a->noise);
        s.level = a->level;
        s.parts = a->parts;
        r.work += wm.ntt(lvl);
        break;
      case NoiseOp::kAddScalar:
        s.noise = est.add_scalar(a->noise);
        s.level = a->level;
        s.parts = a->parts;
        r.work += lvl * wm.n;
        break;
      case NoiseOp::kMulScalar:
        // Deliberately worst-case (|scalar| <= t/2) rather than the recorded
        // value: the scalars are nonce-derived, and the search result must
        // stay feasible for every nonce, not just the profiled one.
        s.noise = est.mul_scalar(a->noise, params.t / 2);
        s.level = a->level;
        s.parts = a->parts;
        r.work += a->parts * lvl * wm.n;
        break;
      case NoiseOp::kMulPlain:
        s.noise = est.mul_plain(a->noise);
        s.level = a->level;
        s.parts = a->parts;
        r.work += a->parts * lvl * wm.n + wm.ntt(lvl);
        break;
      case NoiseOp::kMultiply:
        s.noise = est.multiply(a->noise, b->noise);
        s.level = a->level;
        s.parts = 3;
        r.work += 4.0 * lvl * wm.n;
        break;
      case NoiseOp::kRelinearize:
        s.noise = est.relinearize(a->noise, a->level);
        s.level = a->level;
        s.parts = 2;
        r.work += wm.key_switch(lvl);
        break;
      case NoiseOp::kRotate:
      case NoiseOp::kIngest:
        s.noise = est.rotate(a->noise, a->level);
        s.level = a->level;
        s.parts = 2;
        r.work += wm.key_switch(lvl);
        break;
      case NoiseOp::kFusedAffine:
        s.noise = est.fused_affine(a->noise, a->level, node.terms);
        s.level = a->level;
        s.parts = 2;
        // One shared hoist decomposition, then per-diagonal inner product +
        // fused accumulate + diagonal encode.
        r.work += wm.decompose(lvl) +
                  node.terms *
                      (wm.inner_product(lvl) + 2.0 * lvl * wm.n + wm.ntt(lvl));
        break;
    }

    // Greedy scheduler: drop while the switch costs at most
    // kSwitchMarginBits — the same auto_drop_target policy as
    // Bgv::auto_switch_inplace.
    align_to(s, est.auto_drop_target(s.noise, s.level, s.parts));

    const double budget = est.budget(s.noise, s.level);
    r.min_budget = std::min(r.min_budget, budget);
    if (budget < 1.0) ok = false;  // bound says decryption may already fail
    st[i] = s;
  }

  for (const std::int32_t out : profile.outputs) {
    POE_ENSURE(out >= 0 && static_cast<std::size_t>(out) < st.size(),
               "profile output id out of range");
    NodeState s = st[static_cast<std::size_t>(out)];
    // Terminal output trim, mirroring the servers' trim_output_inplace:
    // surplus levels on a result leaving the server are spent down to the
    // band floor (they are pure waste — larger download, bigger q than the
    // circuit needs).
    align_to(s, est.trim_target(s.noise, s.level, s.parts));
    const double budget = est.budget(s.noise, s.level);
    r.min_output_budget = std::min(r.min_output_budget, budget);
    r.final_level = s.level;
    if (budget < kOutputFloorBits) ok = false;
  }
  if (profile.outputs.empty()) ok = false;
  r.feasible = ok;
  return r;
}

double max_log_q(std::size_t n, SecurityLevel level) {
  if (level == SecurityLevel::kDemo) {
    // Documented demo posture (EXPERIMENTS.md): the ceiling is the
    // 18x55-bit modulus the pre-right-sizing configs shipped.
    // Right-sizing under it can only SHRINK q at fixed n — security is
    // monotonically no worse than the documented baseline.
    return 990.0;
  }
  // HE-standard-style maximum log2(q) at 128-bit classical security with a
  // ternary secret.
  switch (n) {
    case 1024:  return 27.0;
    case 2048:  return 54.0;
    case 4096:  return 109.0;
    case 8192:  return 218.0;
    case 16384: return 438.0;
    case 32768: return 881.0;
    default:    return 0.0;
  }
}

SearchResult search_params(const CircuitProfile& profile,
                           const SearchConstraints& c) {
  POE_ENSURE(!profile.tape.empty(), "cannot search an empty profile");
  SearchResult best;

  for (std::size_t n = 1024; n <= c.max_n; n *= 2) {
    if (n < c.min_n) continue;
    if ((c.t - 1) % (2 * n) != 0) continue;  // batch encoder needs 2n | t-1
    const double cap = max_log_q(n, c.security);

    // Smallest admissible prime width: the congruence step 2nt must fit
    // below 2^(prime_bits - 1) (bgv_prime_chain), and the chain generator
    // accepts 20..61 bits.
    const unsigned pb_min = std::max(
        20u, bit_width_u64(2 * static_cast<std::uint64_t>(n) * c.t) + 1);

    for (unsigned pb = pb_min; pb <= 61; ++pb) {
      if (2.0 * pb > cap) break;  // not even a 2-prime chain fits
      const unsigned db_max = std::min(pb, 40u);
      for (unsigned db = 4; db <= db_max; db += 2) {
        // Feasibility is monotone in the prime count (more modulus, same
        // circuit), so take the SMALLEST feasible chain for this shape —
        // it is also the cheapest.
        const auto np_cap = static_cast<std::size_t>(cap / pb);
        for (std::size_t np = 2; np <= std::min<std::size_t>(np_cap, 40);
             ++np) {
          BgvParams cand{.n = n,
                         .t = c.t,
                         .num_primes = np,
                         .prime_bits = pb,
                         .relin_digit_bits = db,
                         .seed = c.seed};
          const SimResult sim = simulate(profile, cand);
          best.candidates_tried += 1;
          if (!sim.feasible) continue;
          const double log_q = static_cast<double>(np) * pb;
          const bool better =
              !best.found || sim.work < best.sim.work ||
              (sim.work == best.sim.work &&
               (log_q < best.log_q ||
                (log_q == best.log_q && db < best.params.relin_digit_bits)));
          if (better) {
            best.found = true;
            best.params = cand;
            best.sim = sim;
            best.log_q = log_q;
            best.security_cap = cap;
          }
          break;  // larger chains at this shape only cost more
        }
      }
    }
    // Every per-limb kernel scales with n (and the noise formulas only move
    // by log2(n)), so once any ring admits a feasible config no larger ring
    // can win the work comparison — stop at the smallest feasible n.
    if (best.found) break;
  }
  return best;
}

}  // namespace poe::fhe
