// RNS-BGV: the FHE substrate used by the HHE server to evaluate PASTA's
// decryption circuit homomorphically (paper Fig. 1).
//
// Scheme summary (plaintext modulus t, ciphertext modulus q = prod q_i):
//   sk:  ternary s.            pk: (b = -(a s) + t e, a), a uniform.
//   enc: c = (b u + t e0 + m, a u + t e1)   with ternary u.
//   dec: m = [[c0 + c1 s (+ c2 s^2)]_q]_t   (centered reduction mod q).
//   mul: tensor product; relinearisation via per-prime, per-digit
//        key-switching keys (the RNS idempotent q~_j has image delta_ij, so
//        one key set generated at the top level restricts to every level).
//   modulus switching: divide by the last prime with the t-divisibility
//        correction delta = t [c t^{-1}]_{q_last} (centered), preserving the
//        plaintext while shrinking noise.
//
// This is an exact-arithmetic BGV sufficient for transciphering; it is not a
// hardened implementation (no constant-time sampling, seeded randomness) —
// see DESIGN.md for the substitution rationale.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "fhe/poly.hpp"
#include "kernels/backend.hpp"

namespace poe::fhe {

struct BgvParams {
  std::size_t n = 4096;
  std::uint64_t t = 65537;
  std::size_t num_primes = 10;
  unsigned prime_bits = 45;
  unsigned relin_digit_bits = 20;
  std::uint64_t seed = 1;  ///< deterministic randomness for reproducibility

  /// Tiny parameters for fast unit tests (depth ~2).
  static BgvParams toy();
  /// Parameters deep enough for homomorphic PASTA-4 decryption. NOTE:
  /// demo-grade security (documented in EXPERIMENTS.md); use secure() for a
  /// production-sized ring.
  static BgvParams demo();
  /// Ring large enough to support the demo modulus at a conservative
  /// security margin (slower; used by the opt-in e2e bench).
  static BgvParams secure();
};

struct Plaintext {
  std::vector<std::uint64_t> coeffs;  ///< mod t, length <= n
};

struct Ciphertext {
  std::vector<RnsPoly> parts;  ///< NTT form, 2 (fresh) or 3 (post-tensor)
  std::size_t level = 0;       ///< active primes
  /// Static log2 bound on the invariant noise |c0 + c1 s (+ c2 s^2)|,
  /// maintained by every Bgv operation (NoiseEstimator formulas). The
  /// server-side analogue of the secret-key-measured noise_budget_bits; the
  /// automatic mod-switch scheduler consults it.
  double noise_bits = 0.0;
  /// Node id on the active NoiseTape (circuit-profile recording); -1 when
  /// not recorded. Only meaningful for ciphertexts produced while the
  /// creating Bgv's recording mode is on.
  std::int32_t trace_id = -1;

  std::size_t size() const { return parts.size(); }
};

/// A key-switching key: for each RNS prime j and digit d, a pair
/// (b, a) with b = -(a s) + t e + B^d q~_j target. Switches a ciphertext
/// component known to multiply `target` onto the secret s. Generated at the
/// top level; restricts to any lower level (the RNS idempotent q~_j has the
/// level-independent image delta_ij).
///
/// Layout: the (j, d) pairs are flattened prime-major into one digit-key
/// index w (the order Bgv's digit decomposition produces), so a level-L
/// switch uses exactly the prefix w < nd(L). Each RNS component i is ONE
/// contiguous, 64-byte-aligned slab laid out
///   [coefficient group idx / 8][w][b | a][8 coefficients]
/// (kernels::ksw_key_offset), so the key inner product reads the keys as
/// one forward stream. The slabs come from the context's BufferPool, like
/// every polynomial's; the key is move-only, since there is never a reason
/// to hold a second copy.
class KswKey {
 public:
  KswKey() = default;
  /// Uninitialised slabs for `num_keys` digit keys over `components` RNS
  /// components of an n-coefficient ring.
  KswKey(BufferPool& pool, std::size_t components, std::size_t num_keys,
         std::size_t n);

  /// Digit keys held (nd at the top level).
  std::size_t num_keys() const { return num_keys_; }
  /// Words between consecutive coefficient groups of one slab.
  std::size_t group_stride() const {
    return 2 * kernels::kKswLanes * num_keys_;
  }
  const std::uint64_t* component(std::size_t i) const {
    return slabs_[i].data();
  }
  std::uint64_t* component(std::size_t i) { return slabs_[i].data(); }

 private:
  std::size_t num_keys_ = 0;
  std::vector<PolyBuffer> slabs_;  ///< one per RNS component
};

/// Rotation keys: column-rotation step -> key for tau_{3^step}(s); step -1
/// denotes the row swap (tau_{2n-1}, the conjugation). Each key's NTT-form
/// components are stored tau^-1-permuted (see make_galois_key) so rotations
/// run the key inner product contiguously and permute only the outputs.
struct GaloisKeys {
  std::map<long, KswKey> keys;
  static constexpr long kRowSwap = -1;
};

/// The reusable (expensive) half of a rotation — Halevi–Shoup hoisting. The
/// digit decomposition of c1 (digit extraction + one forward NTT per digit)
/// dominates rotation cost; it is also rotation-independent: the per-digit
/// scale factors B^d q~_j are integers, hence fixed by every automorphism,
/// so tau(c1) = sum_d tau(digit_d) * B^d q~_j for ANY tau. Bgv::hoist
/// materialises the whole decomposition (nd x level words); the serving
/// path never does — fused_affine builds each prime's digits where they are
/// used — so this form is the reference its differential tests build from.
struct HoistedCt {
  RnsPoly c0;                   ///< NTT form, at `level`
  /// NTT form, flattened over (prime, digit) in KswKey's digit-key order:
  /// digits[w] pairs with key w.
  std::vector<RnsPoly> digits;
  std::size_t level = 0;
  double noise_bits = 0.0;     ///< carried over from the hoisted ciphertext
  std::int32_t trace_id = -1;  ///< carried over (profile recording)
};

class NoiseTape;  // fhe/param_search.hpp

class Bgv {
 public:
  explicit Bgv(const BgvParams& params);
  /// Same, but pinned to a caller-owned ExecContext (nullptr = the
  /// process-wide one). Tests use this to run otherwise-identical schemes
  /// on different kernel backends side by side.
  Bgv(const BgvParams& params, ExecContext* exec);

  const BgvParams& params() const { return params_; }
  const RnsContext& rns() const { return ctx_; }
  std::size_t top_level() const { return ctx_.num_primes(); }

  // --- Encryption / decryption.
  Ciphertext encrypt(const Plaintext& pt) const;
  Plaintext decrypt(const Ciphertext& ct) const;

  // --- Homomorphic operations (operands must share a level; use
  // --- match_levels / mod_switch_to to align).
  void add_inplace(Ciphertext& a, const Ciphertext& b) const;
  void sub_inplace(Ciphertext& a, const Ciphertext& b) const;
  void negate_inplace(Ciphertext& a) const;
  void add_plain_inplace(Ciphertext& a, const Plaintext& pt) const;
  void sub_plain_inplace(Ciphertext& a, const Plaintext& pt) const;
  /// Multiply by the plaintext polynomial (NTT product).
  void mul_plain_inplace(Ciphertext& a, const Plaintext& pt) const;
  /// sum_k cts[k] * pts[k] as ONE parallel pass over the RNS primes (each
  /// prime lifts and transforms every plaintext itself). The cts must share
  /// one level and size. Bit-identical to, and accounted exactly like,
  /// mul_plain_inplace on a copy of each term and add_inplace in k order.
  Ciphertext sum_mul_plain(std::span<const Ciphertext* const> cts,
                           std::span<const Plaintext> pts) const;
  /// Multiply by an integer constant mod t (no NTT, cheap).
  void mul_scalar_inplace(Ciphertext& a, std::uint64_t scalar) const;
  /// Add an integer constant mod t.
  void add_scalar_inplace(Ciphertext& a, std::uint64_t scalar) const;

  /// Tensor product; result has 3 parts until relinearised.
  Ciphertext multiply(const Ciphertext& a, const Ciphertext& b) const;
  /// multiply + relinearise + one modulus switch (the common idiom).
  Ciphertext multiply_relin(const Ciphertext& a, const Ciphertext& b) const;
  void relinearize_inplace(Ciphertext& a) const;

  // --- Slot rotations (for SIMD/batched evaluation).
  /// Keys for the given column-rotation steps (see fhe/galois.hpp for the
  /// slot-grid semantics).
  GaloisKeys make_rotation_keys(const std::vector<long>& steps) const;
  /// new(row, col) = old(row, col + step): applies tau_{3^step} and
  /// key-switches back to s. Requires a relinearised (2-part) ciphertext.
  void rotate_columns_inplace(Ciphertext& a, long step,
                              const GaloisKeys& keys) const;
  /// Swap the two slot rows (tau_{2n-1}); requires a key made with
  /// make_rotation_keys including GaloisKeys::kRowSwap.
  void swap_rows_inplace(Ciphertext& a, const GaloisKeys& keys) const;

  /// Digit-decompose a 2-part ciphertext once, so that any number of
  /// rotations of it can be served by rotate_hoisted at a fraction of the
  /// usual cost. Built from the same per-prime digit builder as every key
  /// switch. A hoisted rotation is bit-identical to rotate_columns_inplace:
  /// both decompose the UNROTATED c1 and apply tau once to the finished
  /// parts (the galois key is stored tau^-1-permuted, make_galois_key).
  HoistedCt hoist(const Ciphertext& ct) const;
  /// Rotated copy from a hoisted decomposition (step != 0 mod n/2): one NTT
  /// slot permutation of c0 + a permuted key inner product over the shared
  /// digits. No forward NTTs at all. Only tests call it: it is the
  /// independent allocating reference that
  /// HoistedRotationDifferential.InPlaceMatchesAllocating* hold
  /// rotate_hoisted_into to, so it stays a separate implementation rather
  /// than a wrapper over the in-place path.
  Ciphertext rotate_hoisted(const HoistedCt& hoisted, long step,
                            const GaloisKeys& keys) const;
  /// Allocation-free variant of rotate_hoisted: the key inner product runs
  /// in overwrite mode into a leased per-evaluator HoistScratch, and the
  /// closing automorphism is a fused permute(-add) straight into `out`,
  /// whose slabs are reshaped in place — a warmed-up caller touches the
  /// pool zero times and copies zero bytes. The serving path runs its
  /// rotations inside fused_affine instead; this one-rotation form is the
  /// reference the fused-layer differential builds from. Bit-identical to
  /// rotate_hoisted (the preserved allocating reference): both compute the
  /// exact residues reduce128(c0 + sum) == add(c0, reduce128(sum)), then
  /// the same slot permutation. `out` may be empty or any previous result;
  /// it must not alias a live operand. Thread-safe: concurrent callers
  /// lease distinct scratches.
  void rotate_hoisted_into(const HoistedCt& hoisted, long step,
                           const GaloisKeys& keys, Ciphertext& out) const;
  /// The diagonal products of one plaintext-diagonal affine layer: for
  /// v = 0, 1,
  ///   out[v] = sum_k diags[k][v] * rot_k(state)      (rot_0 = state),
  /// where an empty Plaintext is an identically-zero diagonal and is
  /// skipped. Bit-identical to hoist(state), then zero-seeded add_mul_inplace
  /// over rotate_hoisted_into and from_plaintext, with the same op counters
  /// (the hoist's NTTs included), tape nodes (one kRotate per served
  /// rotation, then one kFusedAffine per non-empty output) and noise
  /// bounds. It is a prime-major key switch: after one parallel
  /// inverse-NTT pass over state's c1, ONE parallel_for over the RNS primes
  /// runs, for prime i, the digit build, every rotation, diagonal encode
  /// and product, in the rows of a HoistScratch leased for it on the
  /// calling thread — so prime i's digits are built where they are used.
  /// An output with no terms comes back with no parts; at least one output
  /// must have a term.
  std::array<Ciphertext, 2> fused_affine(
      const Ciphertext& state,
      std::span<const std::array<Plaintext, 2>> diags,
      const GaloisKeys& keys) const;

  // --- Cross-domain ingest (multi-tenant serving).
  /// Key-switching key that moves a 2-part ciphertext encrypted under
  /// `tenant`'s secret onto THIS evaluator's secret ("key-switch on
  /// ingest"). Both instances must share the ring exactly (n and the RNS
  /// prime chain); the plaintext modulus t must match too. In the real
  /// protocol the tenant derives this from the evaluator's public key-switch
  /// material; here the tenant Bgv carries its secret, so the helper reads
  /// it directly — the same trust shape as decrypt living on Bgv.
  KswKey make_ingest_key(const Bgv& tenant) const;
  /// Re-encrypt `ct` (2 parts, any level) from the tenant's domain into this
  /// evaluator's domain without decrypting: the result decrypts under THIS
  /// secret. Costs one key switch of noise; the plaintext is unchanged.
  Ciphertext ingest_switch(const Ciphertext& ct, const KswKey& ingest_key)
      const;

  /// Drop the last active prime (noise /= q_last).
  void mod_switch_inplace(Ciphertext& a) const;
  void mod_switch_to(Ciphertext& a, std::size_t level) const;
  /// Bring both to the lower of the two levels.
  void match_levels(Ciphertext& a, Ciphertext& b) const;

  // --- Diagnostics.
  /// log2 of the remaining noise budget (decryption fails below ~0).
  double noise_budget_bits(const Ciphertext& ct) const;
  /// Budget implied by the tracked static bound (ct.noise_bits) — no secret
  /// key involved, so the server can report it. Sound lower bound on
  /// noise_budget_bits (property-tested).
  double predicted_budget_bits(const Ciphertext& ct) const;

  // --- Noise-aware scheduling / circuit profiling.
  /// Automatic mod-switch scheduler: drop primes (one fused mod_switch_to)
  /// while the tracked bound says each switch sacrifices at most
  /// kSwitchMarginBits (fhe/noise.hpp) to the rounding floor, where the
  /// floor accounts for the part count (a 3-part tensor switch pays an
  /// extra ||s^2||_1 on its rounding term). simulate() in
  /// fhe/param_search.hpp replays the identical policy
  /// (NoiseEstimator::auto_drop_target).
  void auto_switch_inplace(Ciphertext& a) const;
  /// Terminal output trim: drop primes while the tracked bound keeps at
  /// least kOutputFloorBits of budget at the reduced level. Applied once to
  /// ciphertexts leaving the server (no further noise-heavy ops), where
  /// surplus levels are pure waste (NoiseEstimator::trim_target).
  void trim_output_inplace(Ciphertext& a) const;
  /// Start/stop appending this evaluator's operations to `tape` (SSA node
  /// per op; ciphertexts carry their node id in trace_id). Operands created
  /// before recording started appear as fresh-encryption leaves. Modulus
  /// switches are deliberately NOT recorded — the parameter-search replay
  /// schedules its own.
  void begin_recording(NoiseTape* tape) const;
  void end_recording() const;
  /// Accounting hook for server loops that multiply raw RnsPoly parts
  /// (bypassing the Ciphertext API): `a` was multiplied part-wise by an
  /// encoded plaintext mask.
  void note_mask_mul(Ciphertext& a) const;

 private:
  /// Append one node to the active tape (no-op when not recording);
  /// returns the node id (-1 when not recording).
  std::int32_t record_node(std::uint8_t op, std::int32_t a, std::int32_t b,
                           std::uint64_t scalar = 0,
                           std::uint32_t terms = 0) const;
  /// Operand id for recording: the ciphertext's own node if it has one, a
  /// conservative fresh leaf otherwise.
  std::int32_t record_operand(std::int32_t trace_id) const;

  /// c0 + c1 s (+ c2 s^2) in coefficient form.
  RnsPoly decrypt_core(const Ciphertext& ct) const;
  /// t * fresh-noise polynomial in NTT form at the top level.
  RnsPoly sample_t_noise() const;
  /// Key-switching key for an arbitrary target polynomial (NTT, top level).
  /// A non-empty `perm` stores every key component permuted, slot idx
  /// holding the value of slot perm[idx] (make_galois_key's tau^-1).
  KswKey make_ksw_key(const RnsPoly& target_ntt,
                      std::span<const std::uint32_t> perm = {}) const;
  /// `s_coeff` is the secret in coefficient form (callers generating many
  /// keys convert it once).
  KswKey make_galois_key(std::uint64_t galois_element,
                         const RnsPoly& s_coeff) const;
  void apply_galois_inplace(Ciphertext& a, std::uint64_t galois_element,
                            const KswKey& key) const;
  /// Digits per key switch at `level`: sum over the active primes of
  /// ceil(bits(q_j) / relin_digit_bits).
  std::size_t num_digits(std::size_t level) const;
  /// `c` (NTT form) copied to coefficient form: one parallel_for over its
  /// primes, each an in-cache copy plus inverse NTT.
  RnsPoly coefficient_form(const RnsPoly& c) const;
  /// The per-prime digit builder: digit w of `coeff` (coefficient form; w
  /// flattened prime-major over (prime j, digit d), KswKey's order), reduced
  /// mod q_i and forward-transformed at prime i, into dig[w] for every
  /// w < num_digits(coeff.level()). Reads every prime of `coeff`, writes
  /// only the given rows, so tasks for different primes run in parallel.
  void build_digits(const RnsPoly& coeff, std::size_t i,
                    std::uint64_t* const* dig) const;
  /// The prime-major key switch every switch runs on. `c` (NTT form, at
  /// level L) is brought to coefficient form by coefficient_form; then ONE
  /// parallel_for over the primes i < L builds all nd = num_digits(L) digits
  /// at prime i into the rows of a HoistScratch leased for i on the calling
  /// thread (so the fault site and the bank's growth do not depend on the
  /// pool's schedule) and calls task(i, dig, nd, spare) while those rows
  /// are still in cache; `spare` is kSpareRows free n-word rows. The task
  /// may overwrite `c` itself: only its coefficient copy is read. Counts
  /// the decomposition's NTTs; the caller counts the switch.
  template <typename Task>
  void switch_prime_major(const RnsPoly& c, Task&& task) const;
  /// The accumulate-mode switch of relinearisation and ingest, on
  /// switch_prime_major: per prime, out0 += sum_w digit_w(c) * key_w.b and
  /// out1 (+)= sum_w digit_w(c) * key_w.a (`acc1` false overwrites out1).
  /// A non-null `seed0` is first copied into out0, prime by prime.
  void switch_accumulate(const RnsPoly& c, const KswKey& key,
                         const RnsPoly* seed0, RnsPoly& out0, RnsPoly& out1,
                         bool acc1) const;
  /// Prime i of a rotation by the tau^-1-stored galois key `key`, with
  /// `perm` tau's NTT slot permutation: the overwrite-mode inner product
  /// into the first two `spare` rows, then dst0 = tau(src0 + sum_b) and
  /// dst1 = tau(sum_a), fused as permute_add/permute.
  void rotate_prime(std::size_t i, const std::uint64_t* const* dig,
                    std::size_t nd, const KswKey& key,
                    const std::uint32_t* perm, const std::uint64_t* src0,
                    std::uint64_t* dst0, std::uint64_t* dst1,
                    std::uint64_t* spare) const;
  /// The key inner product of the digit-form reference (rotate_hoisted*):
  /// out0/out1 (+)= sum_w digits[w] * key_w.b/.a, accumulated lazily in 128
  /// bits and parallelised over RNS components. `acc0`/`acc1` select
  /// accumulate vs overwrite mode per output (overwrite never reads the
  /// destination, so reshaped-uninitialised scratch is a valid target).
  /// Rotations need no digit permutation here: galois keys are stored
  /// tau^-1-permuted (make_galois_key).
  void ksw_accumulate(RnsPoly& out0, RnsPoly& out1, std::size_t level,
                      std::span<const RnsPoly> digits, const KswKey& key,
                      bool acc0, bool acc1) const;

  /// Coefficient ranges noise_budget_bits measures in parallel.
  static constexpr std::size_t kBudgetRanges = 16;
  /// Free rows per prime past the digits: fused_affine's two inner-product
  /// outputs, two rotated parts and lifted diagonal.
  static constexpr std::size_t kSpareRows = 5;
  /// Reusable key-switch scratch, leased (never shared) per use; the bank
  /// grows to the peak number of live leases and then stops touching the
  /// pool. acc0/acc1: the overwrite-mode key-switch outputs that
  /// rotate_hoisted_into flushes into before the closing permute. rows:
  /// one prime's num_digits(top) digit rows, then kSpareRows spare rows, n
  /// words each; row[r] points at row r.
  struct HoistScratch {
    RnsPoly acc0, acc1;
    PolyBuffer rows;
    std::vector<std::uint64_t*> row;
    std::atomic<bool> in_use{false};
#ifndef NDEBUG
    std::atomic<int> active{0};  ///< concurrent-aliasing detector
#endif
  };
  class ScratchLease;
  HoistScratch& lease_hoist_scratch() const;
  void release_hoist_scratch(HoistScratch& sc) const noexcept;

  BgvParams params_;
  RnsContext ctx_;
  mutable Xoshiro256 rng_;
  RnsPoly s_ntt_;    // top level
  RnsPoly s_sq_ntt_;
  RnsPoly pk_a_;     // NTT
  RnsPoly pk_b_;
  KswKey rlk_;
  mutable std::mutex hoist_mu_;  // guards the scratch bank's vector only
  mutable std::vector<std::unique_ptr<HoistScratch>> hoist_scratch_;
  /// Active circuit-profile recorder (nullptr = off). Atomic so the
  /// parallel_for server loops read it without tearing; appends themselves
  /// are serialized inside NoiseTape.
  mutable std::atomic<NoiseTape*> tape_{nullptr};
};

/// Restrict an NTT-form polynomial to its first `level` RNS components.
RnsPoly restrict_to_level(const RnsPoly& p, std::size_t level);

/// Galois element 3^step mod 2n for a column rotation by `step` (normalised
/// to [0, n/2)). One modpow — shared by key generation, rotation, and the
/// slot layout, replacing the former O(step) repeated-multiplication loops.
std::uint64_t galois_elt_for_step(std::size_t n, long step);

}  // namespace poe::fhe
