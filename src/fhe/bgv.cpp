#include "fhe/bgv.hpp"

#include <algorithm>
#include <optional>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "fhe/noise.hpp"
#include "fhe/param_search.hpp"
#include "modular/primes.hpp"

namespace poe::fhe {

namespace {
using u64 = std::uint64_t;
using u128 = unsigned __int128;

// Digits of `relin_digit_bits` bits per residue mod `prime`.
unsigned digit_count(u64 prime, unsigned dbits) {
  return (bit_width_u64(prime) + dbits - 1) / dbits;
}
}  // namespace

// ---------------------------------------------------------- noise tracking

std::int32_t Bgv::record_node(std::uint8_t op, std::int32_t a,
                              std::int32_t b, std::uint64_t scalar,
                              std::uint32_t terms) const {
  NoiseTape* tape = tape_.load(std::memory_order_acquire);
  if (tape == nullptr) return -1;
  TapeNode node;
  node.op = static_cast<NoiseOp>(op);
  node.a = a;
  node.b = b;
  node.scalar = scalar;
  node.terms = terms;
  return tape->append(node);
}

std::int32_t Bgv::record_operand(std::int32_t trace_id) const {
  if (trace_id >= 0) return trace_id;
  // Ciphertext created before recording started: model it as a fresh
  // encryption (the conservative leaf — uploads are always fresh).
  return record_node(static_cast<std::uint8_t>(NoiseOp::kFresh), -1, -1);
}

void Bgv::begin_recording(NoiseTape* tape) const {
  POE_ENSURE(tape != nullptr, "begin_recording requires a tape");
  tape_.store(tape, std::memory_order_release);
}

void Bgv::end_recording() const {
  tape_.store(nullptr, std::memory_order_release);
}

double Bgv::predicted_budget_bits(const Ciphertext& ct) const {
  return NoiseEstimator(params_).budget(ct.noise_bits, ct.level);
}

void Bgv::auto_switch_inplace(Ciphertext& a) const {
  const NoiseEstimator est(params_);
  const std::size_t target =
      est.auto_drop_target(a.noise_bits, a.level, a.size());
  if (target < a.level) mod_switch_to(a, target);
}

void Bgv::trim_output_inplace(Ciphertext& a) const {
  const NoiseEstimator est(params_);
  const std::size_t target = est.trim_target(a.noise_bits, a.level, a.size());
  if (target < a.level) mod_switch_to(a, target);
}

void Bgv::note_mask_mul(Ciphertext& a) const {
  a.noise_bits = NoiseEstimator(params_).mul_plain(a.noise_bits);
  a.trace_id = record_node(static_cast<std::uint8_t>(NoiseOp::kMulPlain),
                           record_operand(a.trace_id), -1);
}

u64 galois_elt_for_step(std::size_t n, long step) {
  const long c = static_cast<long>(n / 2);
  u64 e = static_cast<u64>(((step % c) + c) % c);
  const u64 two_n = 2 * n;
  u64 g = 1;
  u64 base = 3 % two_n;
  while (e != 0) {
    if (e & 1) g = g * base % two_n;  // operands < 2n << 2^32: no overflow
    base = base * base % two_n;
    e >>= 1;
  }
  return g;
}

BgvParams BgvParams::toy() {
  return BgvParams{.n = 1024,
                   .t = 65537,
                   .num_primes = 3,
                   .prime_bits = 40,
                   .relin_digit_bits = 14,
                   .seed = 7};
}

BgvParams BgvParams::demo() {
  return BgvParams{.n = 4096,
                   .t = 65537,
                   .num_primes = 11,
                   .prime_bits = 45,
                   .relin_digit_bits = 16,
                   .seed = 7};
}

BgvParams BgvParams::secure() {
  return BgvParams{.n = 32768,
                   .t = 65537,
                   .num_primes = 11,
                   .prime_bits = 45,
                   .relin_digit_bits = 16,
                   .seed = 7};
}

RnsPoly restrict_to_level(const RnsPoly& p, std::size_t level) {
  POE_ENSURE(level <= p.level(), "cannot extend a polynomial");
  RnsPoly out = RnsPoly::uninit(p.context(), level, p.is_ntt());
  for (std::size_t i = 0; i < level; ++i) {
    auto dst = out.rns(i);
    auto src = p.rns(i);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  return out;
}

Bgv::Bgv(const BgvParams& params) : Bgv(params, nullptr) {}

Bgv::Bgv(const BgvParams& params, ExecContext* exec)
    : params_(params),
      ctx_(params.n, params.t,
           mod::bgv_prime_chain(params.num_primes, params.prime_bits,
                                params.n, params.t),
           exec),
      rng_(params.seed) {
  const std::size_t top = ctx_.num_primes();

  // Secret key and its square.
  RnsPoly s = RnsPoly::sample_ternary(&ctx_, top, rng_);
  s.to_ntt();
  s_ntt_ = s;
  s_sq_ntt_ = s;
  s_sq_ntt_.mul_inplace(s_ntt_);

  // Public key: b = -(a s) + t e.
  pk_a_ = RnsPoly::sample_uniform(&ctx_, top, rng_, /*ntt_form=*/true);
  pk_b_ = pk_a_;
  pk_b_.mul_inplace(s_ntt_).negate_inplace();
  pk_b_.add_inplace(sample_t_noise());

  // Relinearisation keys switch the s^2 component onto s.
  rlk_ = make_ksw_key(s_sq_ntt_);
}

RnsPoly Bgv::sample_t_noise() const {
  const std::size_t top = ctx_.num_primes();
  RnsPoly te = RnsPoly::sample_noise(&ctx_, top, rng_);
  te.to_ntt();
  for (std::size_t i = 0; i < top; ++i) {
    const auto& m = ctx_.mod(i);
    auto span = te.rns(i);
    for (auto& x : span) x = m.mul(x, params_.t % m.value());
  }
  return te;
}

KswKey::KswKey(BufferPool& pool, std::size_t components, std::size_t num_keys,
               std::size_t n)
    : num_keys_(num_keys) {
  const std::size_t groups = (n + kernels::kKswLanes - 1) / kernels::kKswLanes;
  for (std::size_t i = 0; i < components; ++i) {
    slabs_.push_back(pool.acquire(group_stride() * groups, /*zero=*/false));
  }
}

KswKey Bgv::make_ksw_key(const RnsPoly& target_ntt,
                         std::span<const std::uint32_t> perm) const {
  // For each prime j and digit d: b = -(a s) + t e + B^d q~_j target, where
  // q~_j's RNS image is the idempotent delta_ij — the target term only
  // appears in component j, scaled by B^d.
  const std::size_t top = ctx_.num_primes();
  const std::size_t n = ctx_.n();
  const unsigned dbits = params_.relin_digit_bits;
  KswKey out(ctx_.exec().pool(), top, num_digits(top), n);
  const std::size_t stride = out.group_stride();
  RnsPoly neg_s = s_ntt_;
  neg_s.negate_inplace();
  const auto& kern = ctx_.exec().kernels();
  auto& counters = ctx_.exec().counters();
  std::vector<RnsPoly> a, te;
  for (std::size_t j = 0, w0 = 0; j < top; ++j) {
    // The random draws stay serial and in (j, d) order — each digit key's
    // uniform a, then its noise e — so the seed fixes the keys.
    const unsigned digits = digit_count(ctx_.prime(j), dbits);
    a.clear();
    te.clear();
    for (unsigned d = 0; d < digits; ++d) {
      a.push_back(RnsPoly::sample_uniform(&ctx_, top, rng_, true));
      te.push_back(RnsPoly::sample_noise(&ctx_, top, rng_));
    }
    counters.bump(counters.ntt_forward, digits * top);
    // The rest draws nothing, so it runs per component: b = t e - a s
    // (+ the target term), written with a into key w0 + d of the slab.
    parallel_for(top, [&](std::size_t i) {
      const auto& m = ctx_.mod(i);
      const u64 t_mod = params_.t % m.value();
      const u64 t_shoup = kernels::shoup_precompute(t_mod, m.value());
      u64* const slab = out.component(i);
      for (unsigned d = 0; d < digits; ++d) {
        const auto ra = a[d].rns(i);
        const auto rb = te[d].rns(i);
        ctx_.ntt(i).forward(rb, kern);
        kern.mul_shoup(rb.data(), rb.data(), n, t_mod, t_shoup, m.value());
        kern.add_mul(rb.data(), ra.data(), neg_s.rns(i).data(), n, m);
        if (i == j) {
          const u64 factor = m.pow(2, d * dbits);
          const auto rt = target_ntt.rns(i);
          for (std::size_t idx = 0; idx < n; ++idx) {
            rb[idx] = m.add(rb[idx], m.mul(factor, rt[idx]));
          }
        }
        for (std::size_t idx = 0; idx < n; ++idx) {
          const std::size_t src = perm.empty() ? idx : perm[idx];
          u64* const slot = slab + kernels::ksw_key_offset(idx, w0 + d, stride);
          slot[0] = rb[src];
          slot[kernels::kKswLanes] = ra[src];
        }
      }
    });
    w0 += digits;
  }
  return out;
}

Bgv::HoistScratch& Bgv::lease_hoist_scratch() const {
  // Chaos site: simulated scratch-acquisition failure, typed like any other
  // allocation fault so the service retry path absorbs it organically.
  fault_point(ctx_.exec(), "fhe.hoist.scratch.alloc_fail");
  std::lock_guard<std::mutex> lock(hoist_mu_);
  for (auto& sc : hoist_scratch_) {
    bool expected = false;
    if (sc->in_use.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel)) {
      return *sc;
    }
  }
  hoist_scratch_.push_back(std::make_unique<HoistScratch>());
  HoistScratch& sc = *hoist_scratch_.back();
  sc.in_use.store(true, std::memory_order_release);
  return sc;
}

void Bgv::release_hoist_scratch(HoistScratch& sc) const noexcept {
  const bool was_leased = sc.in_use.exchange(false, std::memory_order_acq_rel);
  POE_DCHECK(was_leased, "HoistScratch released without a lease");
  (void)was_leased;
}

/// RAII lease over one HoistScratch. In debug builds the `active` counter
/// doubles as a concurrent-aliasing detector: if two workers ever operate
/// on the same scratch (a bug in the lease discipline), the second entrant
/// observes a nonzero count and fails loudly instead of corrupting both
/// rotations silently.
class Bgv::ScratchLease {
 public:
  explicit ScratchLease(const Bgv& bgv)
      : bgv_(bgv), sc_(&bgv.lease_hoist_scratch()) {
#ifndef NDEBUG
    const int prev = sc_->active.fetch_add(1, std::memory_order_acq_rel);
    POE_DCHECK(prev == 0, "HoistScratch aliased by two concurrent workers");
#endif
  }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;
  ~ScratchLease() {
#ifndef NDEBUG
    sc_->active.fetch_sub(1, std::memory_order_acq_rel);
#endif
    bgv_.release_hoist_scratch(*sc_);
  }
  HoistScratch& operator*() const { return *sc_; }

 private:
  const Bgv& bgv_;
  HoistScratch* sc_;
};

std::size_t Bgv::num_digits(std::size_t level) const {
  std::size_t nd = 0;
  for (std::size_t j = 0; j < level; ++j) {
    nd += digit_count(ctx_.prime(j), params_.relin_digit_bits);
  }
  return nd;
}

RnsPoly Bgv::coefficient_form(const RnsPoly& c) const {
  POE_ENSURE(c.is_ntt(), "key-switch input must be in NTT form");
  const std::size_t level = c.level();
  RnsPoly out = RnsPoly::uninit(&ctx_, level, /*ntt_form=*/false);
  const auto& kern = ctx_.exec().kernels();
  parallel_for(level, [&](std::size_t i) {
    const auto src = c.rns(i);
    const auto dst = out.rns(i);
    std::copy(src.begin(), src.end(), dst.begin());
    ctx_.ntt(i).inverse(dst, kern);
  });
  auto& counters = ctx_.exec().counters();
  counters.bump(counters.ntt_inverse, level);
  return out;
}

void Bgv::build_digits(const RnsPoly& coeff, std::size_t i,
                       u64* const* dig) const {
  // Digit (j, d) is ((c mod q_j) >> d*dbits) & mask. It is below 2^dbits,
  // so reducing it mod q_i is the identity whenever the mask is below q_i
  // (always, for the shipped parameter sets).
  const std::size_t n = ctx_.n();
  const unsigned dbits = params_.relin_digit_bits;
  const u64 mask = (u64{1} << dbits) - 1;
  const auto& m = ctx_.mod(i);
  const bool exact = mask < m.value();
  const auto& kern = ctx_.exec().kernels();
  std::size_t w = 0;
  for (std::size_t j = 0; j < coeff.level(); ++j) {
    const u64* const src = coeff.rns(j).data();
    const unsigned digits = digit_count(ctx_.prime(j), dbits);
    for (unsigned d = 0; d < digits; ++d) {
      u64* const row = dig[w++];
      const unsigned shift = d * dbits;
      for (std::size_t idx = 0; idx < n; ++idx) {
        row[idx] = (src[idx] >> shift) & mask;
      }
      if (!exact) {
        for (std::size_t idx = 0; idx < n; ++idx) row[idx] %= m.value();
      }
      ctx_.ntt(i).forward({row, n}, kern);
    }
  }
}

template <typename Task>
void Bgv::switch_prime_major(const RnsPoly& c, Task&& task) const {
  const std::size_t n = ctx_.n();
  const std::size_t level = c.level();
  const std::size_t nd = num_digits(level);
  const RnsPoly coeff = coefficient_form(c);
  auto& counters = ctx_.exec().counters();
  counters.bump(counters.ntt_forward, nd * level);
  const std::size_t rows = num_digits(top_level()) + kSpareRows;
  std::vector<std::optional<ScratchLease>> leases(level);
  for (auto& lease : leases) {
    HoistScratch& sc = *lease.emplace(*this);
    if (sc.row.size() < rows) {
      sc.rows = ctx_.exec().pool().acquire(rows * n, /*zero=*/false);
      sc.row.resize(rows);
      for (std::size_t r = 0; r < rows; ++r) {
        sc.row[r] = sc.rows.data() + r * n;
      }
    }
  }
  parallel_for(level, [&](std::size_t i) {
    HoistScratch& sc = **leases[i];
    build_digits(coeff, i, sc.row.data());
    task(i, static_cast<const u64* const*>(sc.row.data()), nd,
         sc.row[rows - kSpareRows]);
  });
}

void Bgv::switch_accumulate(const RnsPoly& c, const KswKey& key,
                            const RnsPoly* seed0, RnsPoly& out0,
                            RnsPoly& out1, bool acc1) const {
  const std::size_t n = ctx_.n();
  const auto& kern = ctx_.exec().kernels();
  switch_prime_major(c, [&](std::size_t i, const u64* const* dig,
                            std::size_t nd, u64*) {
    if (seed0 != nullptr) {
      const auto src = seed0->rns(i);
      std::copy(src.begin(), src.end(), out0.rns(i).begin());
    }
    kern.ksw_accumulate(out0.rns(i).data(), out1.rns(i).data(), dig,
                        key.component(i), key.group_stride(), nd, n,
                        ctx_.mod(i), /*acc0=*/true, acc1);
  });
}

void Bgv::rotate_prime(std::size_t i, const u64* const* dig, std::size_t nd,
                       const KswKey& key, const std::uint32_t* perm,
                       const u64* src0, u64* dst0, u64* dst1,
                       u64* spare) const {
  const std::size_t n = ctx_.n();
  const auto& m = ctx_.mod(i);
  const auto& kern = ctx_.exec().kernels();
  u64* const acc0 = spare;
  u64* const acc1 = spare + n;
  kern.ksw_accumulate(acc0, acc1, dig, key.component(i), key.group_stride(),
                      nd, n, m, /*acc0=*/false, /*acc1=*/false);
  kern.permute_add(dst0, src0, acc0, perm, n, m);
  kern.permute(dst1, acc1, perm, n);
}

void Bgv::ksw_accumulate(RnsPoly& out0, RnsPoly& out1, std::size_t level,
                         std::span<const RnsPoly> digits, const KswKey& key,
                         bool acc0, bool acc1) const {
  const std::size_t n = ctx_.n();
  const std::size_t nd = digits.size();
  auto& counters = ctx_.exec().counters();
  counters.bump(counters.key_switch);
  POE_ENSURE(nd <= key.num_keys(), "missing ksw digits");
  // Prime i's digit rows, gathered once on the calling thread.
  std::vector<const u64*> dig(level * nd);
  for (std::size_t i = 0; i < level; ++i) {
    for (std::size_t w = 0; w < nd; ++w) {
      dig[i * nd + w] = digits[w].rns(i).data();
    }
  }
  const auto& kern = ctx_.exec().kernels();
  parallel_for(level, [&](std::size_t i) {
    kern.ksw_accumulate(out0.rns(i).data(), out1.rns(i).data(),
                        dig.data() + i * nd, key.component(i),
                        key.group_stride(), nd, n, ctx_.mod(i), acc0, acc1);
  });
}

namespace {
// g^-1 mod 2n (g odd, 2n a power of two, so the inverse exists). Keygen
// only — a few Newton iterations beat carrying an extended-gcd helper.
std::uint64_t inverse_mod_2n(std::uint64_t g, std::size_t n) {
  const std::uint64_t mask = 2 * static_cast<std::uint64_t>(n) - 1;
  std::uint64_t inv = g;  // correct mod 8 for odd g
  for (int it = 0; it < 6; ++it) inv = (inv * (2 - g * inv)) & mask;
  POE_ENSURE(((g * inv) & mask) == 1, "automorphism element not invertible");
  return inv;
}
}  // namespace

KswKey Bgv::make_galois_key(u64 galois_element,
                            const RnsPoly& s_coeff) const {
  // Key switches tau_g(s) onto s. The key is stored PRE-PERMUTED by
  // tau_g^-1: since the eventual inner product pairs digit slot perm_g(i)
  // with key slot i, storing k'[j] = k[perm_g^-1(j)] lets the hot path run
  // the inner product contiguously (full SIMD width, no gathers) and apply
  // tau_g once to the two output polys instead of to every digit row:
  //   sum_w d_w[perm_g(i)] * k_w[i]  ==  perm_g( sum_w d_w[j] * k'_w[j] ).
  // Slot-for-slot the same products and the same lazy-flush schedule, so
  // rotation outputs are bit-identical to the permuted-digit formulation.
  // The permutation is folded into the slab write (slot j reads the
  // unpermuted key at perm_{g^-1}(j)), so no permuted copy is made.
  RnsPoly tau_s = s_coeff.apply_automorphism(galois_element);
  tau_s.to_ntt();
  return make_ksw_key(
      tau_s, ctx_.galois_ntt_perm(inverse_mod_2n(galois_element, ctx_.n())));
}

void Bgv::apply_galois_inplace(Ciphertext& a, u64 galois_element,
                               const KswKey& key) const {
  POE_ENSURE(a.size() == 2, "automorphism requires a 2-part ciphertext");
  POE_ENSURE(num_digits(a.level) <= key.num_keys(), "missing ksw digits");
  auto& counters = ctx_.exec().counters();
  counters.bump(counters.automorphism);
  counters.bump(counters.key_switch);
  // tau(ct) decrypts under tau(s); key-switch the c1 part back to s. tau
  // distributes over the digit decomposition (the scale factors B^d q~_j
  // are integers, fixed by tau), and the galois key is stored tau^-1
  // -permuted, so the whole switch runs on the UNPERMUTED digits and tau is
  // applied once to each finished output part (see make_galois_key): per
  // prime, c0' = tau(c0 + sum) and c1' = tau(sum), as one fused
  // permute(-add) out of the spare rows.
  const auto perm = ctx_.galois_ntt_perm(galois_element);
  RnsPoly c0 = RnsPoly::uninit(&ctx_, a.level, /*ntt_form=*/true);
  switch_prime_major(a.parts[1], [&](std::size_t i, const u64* const* dig,
                                     std::size_t nd, u64* spare) {
    rotate_prime(i, dig, nd, key, perm.data(), a.parts[0].rns(i).data(),
                 c0.rns(i).data(), a.parts[1].rns(i).data(), spare);
  });
  a.parts[0] = std::move(c0);
  a.noise_bits = NoiseEstimator(params_).rotate(a.noise_bits, a.level);
  a.trace_id = record_node(static_cast<std::uint8_t>(NoiseOp::kRotate),
                           record_operand(a.trace_id), -1);
}

KswKey Bgv::make_ingest_key(const Bgv& tenant) const {
  POE_ENSURE(tenant.ctx_.n() == ctx_.n(), "ingest requires matching rings");
  POE_ENSURE(tenant.ctx_.num_primes() == ctx_.num_primes(),
             "ingest requires matching RNS chains");
  POE_ENSURE(tenant.params_.t == params_.t,
             "ingest requires matching plaintext moduli");
  for (std::size_t j = 0; j < ctx_.num_primes(); ++j) {
    POE_ENSURE(tenant.ctx_.prime(j) == ctx_.prime(j),
               "ingest requires identical RNS primes");
  }
  // Same ring + same primes => identical NTT tables, so the tenant's secret
  // (NTT form, foreign context) is read span-for-span.
  return make_ksw_key(tenant.s_ntt_);
}

Ciphertext Bgv::ingest_switch(const Ciphertext& ct,
                              const KswKey& ingest_key) const {
  POE_ENSURE(ct.size() == 2, "ingest switch requires a 2-part ciphertext");
  const std::size_t level = ct.level;
  POE_ENSURE(level >= 1 && level <= ctx_.num_primes(),
             "ingest switch: bad level");
  POE_ENSURE(num_digits(level) <= ingest_key.num_keys(), "missing ksw digits");
  auto& counters = ctx_.exec().counters();
  counters.bump(counters.key_switch);
  // The upload was built over the same ring by the tenant's own Bgv, so its
  // raw RNS words carry over verbatim into this evaluator's context: c0
  // stays, c1 is key-switched from the tenant's secret onto ours — the
  // shape of apply_galois_inplace with the identity automorphism.
  Ciphertext out;
  out.level = level;
  out.parts.push_back(RnsPoly::uninit(&ctx_, level, /*ntt_form=*/true));
  out.parts.push_back(RnsPoly::uninit(&ctx_, level, /*ntt_form=*/true));
  switch_accumulate(ct.parts[1], ingest_key, &ct.parts[0], out.parts[0],
                    out.parts[1], /*acc1=*/false);
  out.noise_bits = NoiseEstimator(params_).relinearize(ct.noise_bits, level);
  out.trace_id = record_node(static_cast<std::uint8_t>(NoiseOp::kIngest),
                             record_operand(ct.trace_id), -1);
  return out;
}

HoistedCt Bgv::hoist(const Ciphertext& ct) const {
  POE_ENSURE(ct.size() == 2, "hoisting requires a 2-part ciphertext");
  const std::size_t level = ct.level;
  const std::size_t nd = num_digits(level);
  HoistedCt h;
  h.level = level;
  h.noise_bits = ct.noise_bits;
  h.trace_id = ct.trace_id;
  h.c0 = ct.parts[0];
  for (std::size_t w = 0; w < nd; ++w) {
    h.digits.push_back(RnsPoly::uninit(&ctx_, level, /*ntt_form=*/true));
  }
  std::vector<u64*> dig(level * nd);  // prime i's rows at i * nd
  for (std::size_t i = 0; i < level; ++i) {
    for (std::size_t w = 0; w < nd; ++w) {
      dig[i * nd + w] = h.digits[w].rns(i).data();
    }
  }
  const RnsPoly coeff = coefficient_form(ct.parts[1]);
  parallel_for(level,
               [&](std::size_t i) { build_digits(coeff, i, &dig[i * nd]); });
  auto& counters = ctx_.exec().counters();
  counters.bump(counters.ntt_forward, nd * level);
  return h;
}

Ciphertext Bgv::rotate_hoisted(const HoistedCt& hoisted, long step,
                               const GaloisKeys& keys) const {
  const std::size_t n = ctx_.n();
  const long c = static_cast<long>(n / 2);
  const long s = ((step % c) + c) % c;
  POE_ENSURE(s != 0, "rotate_hoisted requires a nonzero step");
  const auto it = keys.keys.find(s);
  POE_ENSURE(it != keys.keys.end(), "no rotation key for step " << s);
  const u64 g = galois_elt_for_step(n, s);
  auto& counters = ctx_.exec().counters();
  counters.bump(counters.automorphism);
  counters.bump(counters.hoisted_rotation);
  // tau distributes over the decomposition (the B^d q~_j scale factors are
  // integers, fixed by tau), so rotating the shared NTT-form digits inside
  // the inner product yields a valid encryption of the rotated plaintext —
  // without a single forward NTT. The galois key is stored tau^-1-permuted
  // (make_galois_key), which moves the permutation off the nd digit rows
  // and onto the two finished output parts: the inner product itself runs
  // contiguously at full SIMD width, and tau folds over c0 for free
  // (perm(c0 + sum) == perm(c0) + perm(sum)).
  Ciphertext out;
  out.level = hoisted.level;
  out.parts.resize(2);
  out.parts[0] = hoisted.c0;
  out.parts[1] = RnsPoly(&ctx_, hoisted.level, /*ntt_form=*/true);
  ksw_accumulate(out.parts[0], out.parts[1], hoisted.level, hoisted.digits,
                 it->second, /*acc0=*/true, /*acc1=*/true);
  out.parts[0] = out.parts[0].apply_automorphism_ntt(g);
  out.parts[1] = out.parts[1].apply_automorphism_ntt(g);
  out.noise_bits =
      NoiseEstimator(params_).rotate(hoisted.noise_bits, hoisted.level);
  out.trace_id = record_node(static_cast<std::uint8_t>(NoiseOp::kRotate),
                             record_operand(hoisted.trace_id), -1);
  return out;
}

void Bgv::rotate_hoisted_into(const HoistedCt& hoisted, long step,
                              const GaloisKeys& keys, Ciphertext& out) const {
  const std::size_t n = ctx_.n();
  const long c = static_cast<long>(n / 2);
  const long s = ((step % c) + c) % c;
  POE_ENSURE(s != 0, "rotate_hoisted requires a nonzero step");
  const auto it = keys.keys.find(s);
  POE_ENSURE(it != keys.keys.end(), "no rotation key for step " << s);
  const u64 g = galois_elt_for_step(n, s);
  auto& counters = ctx_.exec().counters();
  counters.bump(counters.automorphism);
  counters.bump(counters.hoisted_rotation);
  // Same formulation as rotate_hoisted, with the allocation/copy traffic
  // squeezed out: the inner product runs in overwrite mode into leased
  // scratch (no c0 copy, no zero-fill of c1), and the closing tau is a
  // fused permute(-add) straight into out's reshaped slabs. Residues are
  // exact at every hand-off — reduce128(c0 + sum) == add(c0,
  // reduce128(sum)) — so the two paths are bit-identical, which the
  // differential suite pins per backend.
  const std::size_t level = hoisted.level;
  ScratchLease lease(*this);
  HoistScratch& sc = *lease;
  sc.acc0.reshape_uninit(&ctx_, level, /*ntt_form=*/true);
  sc.acc1.reshape_uninit(&ctx_, level, /*ntt_form=*/true);
  ksw_accumulate(sc.acc0, sc.acc1, level, hoisted.digits, it->second,
                 /*acc0=*/false, /*acc1=*/false);
  out.level = level;
  out.parts.resize(2);
  out.parts[0].reshape_uninit(&ctx_, level, /*ntt_form=*/true);
  out.parts[1].reshape_uninit(&ctx_, level, /*ntt_form=*/true);
  const auto perm = ctx_.galois_ntt_perm(g);
  const auto& kern = ctx_.exec().kernels();
  parallel_for(level, [&](std::size_t i) {
    kern.permute_add(out.parts[0].rns(i).data(), hoisted.c0.rns(i).data(),
                     sc.acc0.rns(i).data(), perm.data(), n, ctx_.mod(i));
    kern.permute(out.parts[1].rns(i).data(), sc.acc1.rns(i).data(),
                 perm.data(), n);
  });
  out.noise_bits =
      NoiseEstimator(params_).rotate(hoisted.noise_bits, hoisted.level);
  out.trace_id = record_node(static_cast<std::uint8_t>(NoiseOp::kRotate),
                             record_operand(hoisted.trace_id), -1);
}

std::array<Ciphertext, 2> Bgv::fused_affine(
    const Ciphertext& state, std::span<const std::array<Plaintext, 2>> diags,
    const GaloisKeys& keys) const {
  POE_ENSURE(state.size() == 2, "fused_affine requires a 2-part ciphertext");
  const std::size_t n = ctx_.n();
  const std::size_t level = state.level;
  const std::size_t nd = num_digits(level);
  POE_ENSURE(diags.size() <= n / 2, "more diagonals than slot columns");

  // Everything order-sensitive happens here, on the calling thread and in
  // k order, exactly as the per-diagonal composition would do it: the key
  // lookups, the op counters and the kRotate tape nodes.
  struct Rotation {
    const KswKey* key = nullptr;
    const std::uint32_t* perm = nullptr;
  };
  std::vector<Rotation> rotations(diags.size());
  std::array<std::uint32_t, 2> terms{0, 0};
  auto& counters = ctx_.exec().counters();
  for (std::size_t k = 0; k < diags.size(); ++k) {
    if (diags[k][0].coeffs.empty() && diags[k][1].coeffs.empty()) continue;
    if (k != 0) {
      const auto it = keys.keys.find(static_cast<long>(k));
      POE_ENSURE(it != keys.keys.end(), "no rotation key for step " << k);
      POE_ENSURE(nd <= it->second.num_keys(), "missing ksw digits");
      rotations[k] = {&it->second,
                      ctx_.galois_ntt_perm(galois_elt_for_step(n, k)).data()};
      counters.bump(counters.automorphism);
      counters.bump(counters.hoisted_rotation);
      counters.bump(counters.key_switch);
      record_node(static_cast<std::uint8_t>(NoiseOp::kRotate),
                  record_operand(state.trace_id), -1);
    }
    for (std::size_t v = 0; v < 2; ++v) {
      if (diags[k][v].coeffs.empty()) continue;
      ++terms[v];
      counters.bump(counters.ntt_forward, level);  // the diagonal's encode
    }
  }
  POE_ENSURE(terms[0] + terms[1] > 0, "affine layer produced no terms");

  std::array<Ciphertext, 2> out;
  for (std::size_t v = 0; v < 2; ++v) {
    if (terms[v] == 0) continue;
    out[v].level = level;
    out[v].parts.emplace_back(&ctx_, level, /*ntt_form=*/true);
    out[v].parts.emplace_back(&ctx_, level, /*ntt_form=*/true);
  }
  const auto& kern = ctx_.exec().kernels();
  switch_prime_major(state.parts[1], [&](std::size_t i, const u64* const* dig,
                                         std::size_t, u64* spare) {
    const auto& m = ctx_.mod(i);
    // Spare rows: the inner product's two outputs, then the rotated parts
    // and the lifted diagonal.
    u64* const rot0 = spare + 2 * n;
    u64* const rot1 = rot0 + n;
    u64* const diag = rot1 + n;
    for (std::size_t k = 0; k < diags.size(); ++k) {
      const auto& pair = diags[k];
      if (pair[0].coeffs.empty() && pair[1].coeffs.empty()) continue;
      const u64* src0 = state.parts[0].rns(i).data();
      const u64* src1 = state.parts[1].rns(i).data();
      if (k != 0) {
        // rotate_hoisted_into for this prime.
        const Rotation& r = rotations[k];
        rotate_prime(i, dig, nd, *r.key, r.perm, src0, rot0, rot1, spare);
        src0 = rot0;
        src1 = rot1;
      }
      for (std::size_t v = 0; v < 2; ++v) {
        if (pair[v].coeffs.empty()) continue;
        RnsPoly::lift_plaintext_row(pair[v].coeffs, ctx_.t(), m, {diag, n});
        ctx_.ntt(i).forward({diag, n}, kern);
        kern.add_mul(out[v].parts[0].rns(i).data(), src0, diag, n, m);
        kern.add_mul(out[v].parts[1].rns(i).data(), src1, diag, n, m);
      }
    }
  });

  const NoiseEstimator est(params_);
  for (std::size_t v = 0; v < 2; ++v) {
    if (terms[v] == 0) continue;
    out[v].noise_bits = est.fused_affine(state.noise_bits, level, terms[v]);
    out[v].trace_id =
        record_node(static_cast<std::uint8_t>(NoiseOp::kFusedAffine),
                    record_operand(state.trace_id), -1, 0, terms[v]);
  }
  return out;
}

GaloisKeys Bgv::make_rotation_keys(const std::vector<long>& steps) const {
  const std::size_t n = ctx_.n();
  GaloisKeys out;
  RnsPoly s_coeff = s_ntt_;
  s_coeff.from_ntt();
  for (long step : steps) {
    if (step == GaloisKeys::kRowSwap) {
      if (out.keys.count(GaloisKeys::kRowSwap) == 0) {
        out.keys.emplace(GaloisKeys::kRowSwap,
                         make_galois_key(2 * n - 1, s_coeff));
      }
      continue;
    }
    const long c = static_cast<long>(n / 2);
    const long s = ((step % c) + c) % c;
    if (out.keys.count(s) != 0 || s == 0) continue;
    out.keys.emplace(s, make_galois_key(galois_elt_for_step(n, s), s_coeff));
  }
  return out;
}

void Bgv::rotate_columns_inplace(Ciphertext& a, long step,
                                 const GaloisKeys& keys) const {
  const std::size_t n = ctx_.n();
  const long c = static_cast<long>(n / 2);
  const long s = ((step % c) + c) % c;
  if (s == 0) return;
  const auto it = keys.keys.find(s);
  POE_ENSURE(it != keys.keys.end(), "no rotation key for step " << s);
  apply_galois_inplace(a, galois_elt_for_step(n, s), it->second);
}

void Bgv::swap_rows_inplace(Ciphertext& a, const GaloisKeys& keys) const {
  const auto it = keys.keys.find(GaloisKeys::kRowSwap);
  POE_ENSURE(it != keys.keys.end(), "no row-swap key");
  apply_galois_inplace(a, 2 * ctx_.n() - 1, it->second);
}

Ciphertext Bgv::encrypt(const Plaintext& pt) const {
  const std::size_t top = ctx_.num_primes();
  RnsPoly u = RnsPoly::sample_ternary(&ctx_, top, rng_);
  u.to_ntt();

  Ciphertext ct;
  ct.level = top;
  ct.parts.resize(2);

  ct.parts[0] = pk_b_;
  ct.parts[0].mul_inplace(u);
  ct.parts[1] = pk_a_;
  ct.parts[1].mul_inplace(u);

  for (int which = 0; which < 2; ++which) {
    RnsPoly e = RnsPoly::sample_noise(&ctx_, top, rng_);
    e.to_ntt();
    for (std::size_t i = 0; i < top; ++i) {
      const auto& m = ctx_.mod(i);
      auto span = e.rns(i);
      for (auto& x : span) x = m.mul(x, params_.t % m.value());
    }
    ct.parts[which].add_inplace(e);
  }

  RnsPoly m = RnsPoly::from_plaintext(&ctx_, top, pt.coeffs, true);
  ct.parts[0].add_inplace(m);
  ct.noise_bits = NoiseEstimator(params_).fresh();
  ct.trace_id = record_node(static_cast<std::uint8_t>(NoiseOp::kFresh), -1, -1);
  return ct;
}

RnsPoly Bgv::decrypt_core(const Ciphertext& ct) const {
  POE_ENSURE(ct.size() >= 2 && ct.size() <= 3, "unsupported ciphertext size");
  // The secret (and its square) live at the top level; the fused accumulate
  // reads only the ciphertext's active components.
  RnsPoly v = ct.parts[0];
  v.add_mul_inplace(ct.parts[1], s_ntt_);
  if (ct.size() == 3) {
    v.add_mul_inplace(ct.parts[2], s_sq_ntt_);
  }
  v.from_ntt();
  return v;
}

Plaintext Bgv::decrypt(const Ciphertext& ct) const {
  RnsPoly v = decrypt_core(ct);
  const LevelData& lvl = ctx_.level(ct.level);
  const std::size_t n = ctx_.n();
  Plaintext out;
  out.coeffs.resize(n);
  for (std::size_t idx = 0; idx < n; ++idx) {
    // CRT reconstruction: sum [v_i * q_hat_inv_i]_{q_i} * q_hat_i mod q.
    UBig acc;
    for (std::size_t i = 0; i < ct.level; ++i) {
      const auto& m = ctx_.mod(i);
      const u64 term = m.mul(v.rns(i)[idx], lvl.q_hat_inv[i]);
      UBig contrib = lvl.q_hat[i];
      contrib.mul_u64(term);
      acc.add(contrib);
    }
    acc.mod_by_subtraction(lvl.q);
    // Centered reduction, then mod t.
    const bool negative = acc > lvl.q_half;
    if (negative) {
      UBig tmp = lvl.q;
      tmp.sub(acc);
      acc = std::move(tmp);
    }
    const u64 r = acc.mod_u64(params_.t);
    out.coeffs[idx] = negative ? (r == 0 ? 0 : params_.t - r) : r;
  }
  return out;
}

double Bgv::noise_budget_bits(const Ciphertext& ct) const {
  const RnsPoly v = decrypt_core(ct);
  const LevelData& lvl = ctx_.level(ct.level);
  // The centred CRT lift of every coefficient, in parallel over fixed
  // coefficient ranges. The pool slab above is the only one taken, on the
  // calling thread, so the measurement's allocations do not depend on the
  // schedule.
  const std::size_t n = ctx_.n();
  const std::size_t ranges = std::min<std::size_t>(n, kBudgetRanges);
  std::vector<unsigned> range_bits(ranges, 0);
  parallel_for(ranges, [&](std::size_t r) {
    unsigned max_bits = 0;
    for (std::size_t idx = r * n / ranges; idx < (r + 1) * n / ranges; ++idx) {
      UBig acc;
      for (std::size_t i = 0; i < ct.level; ++i) {
        const auto& m = ctx_.mod(i);
        const u64 term = m.mul(v.rns(i)[idx], lvl.q_hat_inv[i]);
        UBig contrib = lvl.q_hat[i];
        contrib.mul_u64(term);
        acc.add(contrib);
      }
      acc.mod_by_subtraction(lvl.q);
      if (acc > lvl.q_half) {
        UBig tmp = lvl.q;
        tmp.sub(acc);
        acc = std::move(tmp);
      }
      max_bits = std::max(max_bits, acc.bit_length());
    }
    range_bits[r] = max_bits;
  });
  const unsigned max_bits =
      *std::max_element(range_bits.begin(), range_bits.end());
  return static_cast<double>(lvl.q.bit_length()) - 1.0 -
         static_cast<double>(max_bits);
}

void Bgv::add_inplace(Ciphertext& a, const Ciphertext& b) const {
  POE_ENSURE(a.level == b.level, "level mismatch (use match_levels)");
  POE_ENSURE(a.size() == b.size(), "ciphertext size mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.parts[i].add_inplace(b.parts[i]);
  }
  a.noise_bits = NoiseEstimator(params_).add(a.noise_bits, b.noise_bits);
  a.trace_id = record_node(static_cast<std::uint8_t>(NoiseOp::kAdd),
                           record_operand(a.trace_id),
                           record_operand(b.trace_id));
}

void Bgv::sub_inplace(Ciphertext& a, const Ciphertext& b) const {
  POE_ENSURE(a.level == b.level, "level mismatch (use match_levels)");
  POE_ENSURE(a.size() == b.size(), "ciphertext size mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.parts[i].sub_inplace(b.parts[i]);
  }
  a.noise_bits = NoiseEstimator(params_).add(a.noise_bits, b.noise_bits);
  a.trace_id = record_node(static_cast<std::uint8_t>(NoiseOp::kAdd),
                           record_operand(a.trace_id),
                           record_operand(b.trace_id));
}

void Bgv::negate_inplace(Ciphertext& a) const {
  for (auto& part : a.parts) part.negate_inplace();
}

void Bgv::add_plain_inplace(Ciphertext& a, const Plaintext& pt) const {
  RnsPoly m = RnsPoly::from_plaintext(&ctx_, a.level, pt.coeffs, true);
  a.parts[0].add_inplace(m);
  a.noise_bits = NoiseEstimator(params_).add_plain(a.noise_bits);
  a.trace_id = record_node(static_cast<std::uint8_t>(NoiseOp::kAddPlain),
                           record_operand(a.trace_id), -1);
}

void Bgv::sub_plain_inplace(Ciphertext& a, const Plaintext& pt) const {
  RnsPoly m = RnsPoly::from_plaintext(&ctx_, a.level, pt.coeffs, true);
  a.parts[0].sub_inplace(m);
  a.noise_bits = NoiseEstimator(params_).add_plain(a.noise_bits);
  a.trace_id = record_node(static_cast<std::uint8_t>(NoiseOp::kAddPlain),
                           record_operand(a.trace_id), -1);
}

void Bgv::mul_plain_inplace(Ciphertext& a, const Plaintext& pt) const {
  RnsPoly m = RnsPoly::from_plaintext(&ctx_, a.level, pt.coeffs, true);
  for (auto& part : a.parts) part.mul_inplace(m);
  a.noise_bits = NoiseEstimator(params_).mul_plain(a.noise_bits);
  a.trace_id = record_node(static_cast<std::uint8_t>(NoiseOp::kMulPlain),
                           record_operand(a.trace_id), -1);
}

Ciphertext Bgv::sum_mul_plain(std::span<const Ciphertext* const> cts,
                              std::span<const Plaintext> pts) const {
  POE_ENSURE(!cts.empty() && cts.size() == pts.size(),
             "sum_mul_plain needs one plaintext per ciphertext");
  const std::size_t level = cts[0]->level;
  const std::size_t parts = cts[0]->size();
  for (const Ciphertext* ct : cts) {
    POE_ENSURE(ct->level == level && ct->size() == parts,
               "sum_mul_plain terms must share one level and size");
    for (const RnsPoly& part : ct->parts) {
      POE_ENSURE(part.context() == &ctx_, "polynomials from different contexts");
      POE_ENSURE(part.level() >= level,
                 "operand level " << part.level() << " below " << level);
      POE_ENSURE(part.is_ntt(), "pointwise multiply requires NTT form");
    }
  }
  auto& counters = ctx_.exec().counters();
  counters.bump(counters.ntt_forward, level * cts.size());  // the encodes
  Ciphertext out;
  out.level = level;
  for (std::size_t p = 0; p < parts; ++p) {
    out.parts.push_back(RnsPoly::uninit(&ctx_, level, /*ntt_form=*/true));
  }
  RnsPoly lifted = RnsPoly::uninit(&ctx_, level, /*ntt_form=*/false);
  const std::size_t n = ctx_.n();
  const auto& kern = ctx_.exec().kernels();
  parallel_for(level, [&](std::size_t i) {
    const auto& m = ctx_.mod(i);
    u64* const row = lifted.rns(i).data();
    for (std::size_t k = 0; k < cts.size(); ++k) {
      RnsPoly::lift_plaintext_row(pts[k].coeffs, ctx_.t(), m, {row, n});
      ctx_.ntt(i).forward({row, n}, kern);
      for (std::size_t p = 0; p < parts; ++p) {
        const u64* const src = cts[k]->parts[p].rns(i).data();
        u64* const dst = out.parts[p].rns(i).data();
        if (k == 0) {
          std::copy_n(src, n, dst);
          kern.mul(dst, row, n, m);
        } else {
          kern.add_mul(dst, src, row, n, m);
        }
      }
    }
  });
  const NoiseEstimator est(params_);
  for (std::size_t k = 0; k < cts.size(); ++k) {
    const double bits = est.mul_plain(cts[k]->noise_bits);
    const std::int32_t id =
        record_node(static_cast<std::uint8_t>(NoiseOp::kMulPlain),
                    record_operand(cts[k]->trace_id), -1);
    if (k == 0) {
      out.noise_bits = bits;
      out.trace_id = id;
      continue;
    }
    out.noise_bits = est.add(out.noise_bits, bits);
    out.trace_id = record_node(static_cast<std::uint8_t>(NoiseOp::kAdd),
                               record_operand(out.trace_id),
                               record_operand(id));
  }
  return out;
}

void Bgv::mul_scalar_inplace(Ciphertext& a, u64 scalar) const {
  for (auto& part : a.parts) part.mul_scalar_inplace(scalar);
  a.noise_bits = NoiseEstimator(params_).mul_scalar(a.noise_bits, scalar);
  a.trace_id = record_node(static_cast<std::uint8_t>(NoiseOp::kMulScalar),
                           record_operand(a.trace_id), -1, scalar);
}

void Bgv::add_scalar_inplace(Ciphertext& a, u64 scalar) const {
  POE_ENSURE(scalar < params_.t, "scalar out of range");
  // The NTT of a constant polynomial is that constant in every slot.
  const bool negative = scalar > params_.t / 2;
  const u64 magnitude = negative ? params_.t - scalar : scalar;
  for (std::size_t i = 0; i < a.level; ++i) {
    const auto& m = ctx_.mod(i);
    const u64 lifted = negative ? m.neg(magnitude) : magnitude;
    auto span = a.parts[0].rns(i);
    for (auto& x : span) x = m.add(x, lifted);
  }
  a.noise_bits = NoiseEstimator(params_).add_scalar(a.noise_bits);
  a.trace_id = record_node(static_cast<std::uint8_t>(NoiseOp::kAddScalar),
                           record_operand(a.trace_id), -1);
}

Ciphertext Bgv::multiply(const Ciphertext& a, const Ciphertext& b) const {
  POE_ENSURE(a.level == b.level, "level mismatch (use match_levels)");
  POE_ENSURE(a.size() == 2 && b.size() == 2,
             "multiply requires relinearised inputs");
  for (const Ciphertext* ct : {&a, &b}) {
    for (const RnsPoly& part : ct->parts) {
      POE_ENSURE(part.context() == &ctx_, "polynomials from different contexts");
      POE_ENSURE(part.level() >= a.level,
                 "operand level " << part.level() << " below " << a.level);
      POE_ENSURE(part.is_ntt(), "pointwise multiply requires NTT form");
    }
  }
  auto& counters = ctx_.exec().counters();
  counters.bump(counters.ct_ct_mul);
  const std::size_t n = ctx_.n();
  Ciphertext out;
  out.level = a.level;
  for (int p = 0; p < 3; ++p) {
    out.parts.push_back(RnsPoly::uninit(&ctx_, a.level, /*ntt_form=*/true));
  }
  // (a0 b0, a0 b1 + a1 b0, a1 b1), one task per prime.
  const auto& kern = ctx_.exec().kernels();
  parallel_for(a.level, [&](std::size_t i) {
    const auto& m = ctx_.mod(i);
    const u64* const a0 = a.parts[0].rns(i).data();
    const u64* const a1 = a.parts[1].rns(i).data();
    const u64* const b0 = b.parts[0].rns(i).data();
    const u64* const b1 = b.parts[1].rns(i).data();
    u64* const d0 = out.parts[0].rns(i).data();
    u64* const d1 = out.parts[1].rns(i).data();
    u64* const d2 = out.parts[2].rns(i).data();
    std::copy_n(a0, n, d0);
    kern.mul(d0, b0, n, m);
    std::copy_n(a0, n, d1);
    kern.mul(d1, b1, n, m);
    kern.add_mul(d1, a1, b0, n, m);
    std::copy_n(a1, n, d2);
    kern.mul(d2, b1, n, m);
  });
  out.noise_bits = NoiseEstimator(params_).multiply(a.noise_bits, b.noise_bits);
  out.trace_id = record_node(static_cast<std::uint8_t>(NoiseOp::kMultiply),
                             record_operand(a.trace_id),
                             record_operand(b.trace_id));
  return out;
}

Ciphertext Bgv::multiply_relin(const Ciphertext& a,
                               const Ciphertext& b) const {
  Ciphertext out = multiply(a, b);
  relinearize_inplace(out);
  mod_switch_inplace(out);
  return out;
}

void Bgv::relinearize_inplace(Ciphertext& a) const {
  if (a.size() == 2) return;
  POE_ENSURE(a.size() == 3, "unexpected ciphertext size");
  auto& counters = ctx_.exec().counters();
  counters.bump(counters.key_switch);
  // c0 += sum_w digit_w(c2) * b_w and c1 += sum_w digit_w(c2) * a_w.
  switch_accumulate(a.parts[2], rlk_, /*seed0=*/nullptr, a.parts[0],
                    a.parts[1], /*acc1=*/true);
  a.parts.pop_back();
  a.noise_bits = NoiseEstimator(params_).relinearize(a.noise_bits, a.level);
  a.trace_id = record_node(static_cast<std::uint8_t>(NoiseOp::kRelinearize),
                           record_operand(a.trace_id), -1);
}

void Bgv::mod_switch_inplace(Ciphertext& a) const {
  POE_ENSURE(a.level >= 2, "cannot switch below the last prime");
  mod_switch_to(a, a.level - 1);
}

void Bgv::mod_switch_to(Ciphertext& a, std::size_t level) const {
  POE_ENSURE(level >= 1 && level <= a.level, "invalid target level");
  if (level == a.level) return;
  auto& counters = ctx_.exec().counters();
  counters.bump(counters.mod_switch, a.level - level);
  // The whole chain of prime drops runs in coefficient form, so a k-level
  // switch costs ONE inverse/forward transform pair per part instead of k —
  // bit-identical to sequential switching, since the NTT round trips between
  // drops are exact identities. The parts stay flagged NTT: their words are
  // coefficients only inside this function.
  const std::size_t from = a.level;
  const std::size_t parts = a.size();
  for (const auto& part : a.parts) {
    POE_ENSURE(part.is_ntt(), "mod switch expects NTT-form parts");
  }
  const auto& kern = ctx_.exec().kernels();
  parallel_for(parts * from, [&](std::size_t k) {
    ctx_.ntt(k % from).inverse(a.parts[k / from].rns(k % from), kern);
  });
  counters.bump(counters.ntt_inverse, parts * from);

  // Drop `cur` (q_last = q_{cur-1} leaves) on component i < cur-1:
  //   c_i' = (c_i - delta) / q_last,  delta = t [c_last t^-1]_{q_last}
  // (centred). It reads only c_i and c_last, and t*u mod q_i is one Shoup
  // product, exact for any 64-bit u.
  const auto drop = [&](RnsPoly& part, std::size_t cur, std::size_t i) {
    const LevelData& lvl = ctx_.level(cur);
    const std::size_t last = cur - 1;
    const auto& mlast = ctx_.mod(last);
    const u64 qlast = mlast.value();
    const auto& m = ctx_.mod(i);
    const u64 q = m.value();
    const u64 t_mod = params_.t % q;
    const u64 t_shoup = kernels::shoup_precompute(t_mod, q);
    const u64 t_qlast_mod = m.mul(t_mod, qlast % q);
    const auto clast = part.rns(last);
    auto ci = part.rns(i);
    for (std::size_t idx = 0; idx < ci.size(); ++idx) {
      const u64 u = mlast.mul(clast[idx], lvl.t_inv_mod_qlast);
      u64 delta = u * t_mod -
                  static_cast<u64>((static_cast<u128>(u) * t_shoup) >> 64) * q;
      if (delta >= q) delta -= q;
      if (u > qlast / 2) delta = m.sub(delta, t_qlast_mod);
      ci[idx] = m.mul(m.sub(ci[idx], delta), lvl.qlast_inv[i]);
    }
  };
  // Later drops read the dropped components, so those are corrected first,
  // in drop order (none for a one-prime switch): one parallel pass over
  // (part, dropped component) per drop. Every surviving (part, component)
  // is then independent: all its drops, then its forward NTT.
  for (std::size_t cur = from; cur > level + 1; --cur) {
    const std::size_t count = cur - 1 - level;
    parallel_for(parts * count, [&](std::size_t k) {
      drop(a.parts[k / count], cur, level + k % count);
    });
  }
  parallel_for(parts * level, [&](std::size_t k) {
    RnsPoly& part = a.parts[k / level];
    const std::size_t i = k % level;
    for (std::size_t cur = from; cur > level; --cur) drop(part, cur, i);
    ctx_.ntt(i).forward(part.rns(i), kern);
  });
  counters.bump(counters.ntt_forward, parts * level);
  for (auto& part : a.parts) {
    for (std::size_t cur = from; cur > level; --cur) {
      part.drop_last_component();
    }
  }
  // One estimator step per dropped prime; the tape deliberately records
  // nothing (the parameter-search replay schedules its own switches).
  const NoiseEstimator est(params_);
  for (std::size_t cur = from; cur > level; --cur) {
    a.noise_bits = est.mod_switch(a.noise_bits, a.size());
  }
  a.level = level;
}

void Bgv::match_levels(Ciphertext& a, Ciphertext& b) const {
  const std::size_t target = std::min(a.level, b.level);
  mod_switch_to(a, target);
  mod_switch_to(b, target);
}

}  // namespace poe::fhe
