// Circuit-profile-driven BGV parameter right-sizing.
//
// The pipeline has three stages:
//
//   1. RECORD. A dry run of the transcipher circuit under the checked-in
//      config appends one TapeNode per noise-relevant operation to a
//      NoiseTape (Bgv::begin_recording). The tape is an SSA-style flattened
//      DAG — node ids are operand references — and is deliberately
//      PARAMETER-INDEPENDENT: modulus switches are never recorded (the
//      replay schedules its own) and no node carries n, t, prime counts or
//      digit sizes. Together with the ExecContext counter delta this forms
//      a CircuitProfile. Two recordings of one config give the same DAG
//      but not the same node ORDER: rows evaluated in parallel_for append
//      in whatever order the threads reach the tape. The replay visits
//      nodes in any topological order to the same result, so the search
//      result does not depend on the order (param_search_test checks this
//      at the default thread count).
//
//   2. REPLAY. simulate() re-evaluates the tape's NoiseEstimator bounds
//      under a *candidate* BgvParams, applying the same greedy
//      drop-as-early-as-the-bound-allows policy Bgv::auto_switch_inplace
//      uses live, and reports the worst budget seen anywhere plus a
//      relative work estimate (limb-weighted op costs).
//
//   3. SEARCH. search_params() sweeps (n, num_primes, prime_bits,
//      relin_digit_bits) under a security ceiling on log2(q) (HE-standard
//      style table checked in below), keeps candidates whose replayed
//      output budget clears kOutputFloorBits, and returns the cheapest by the
//      work model. The chosen configs are pasted into protocol.cpp and a
//      fixed-point test re-derives them so they cannot drift.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/exec_context.hpp"
#include "fhe/bgv.hpp"

namespace poe::fhe {

/// Operation kinds mirrored by the noise replay. kFusedAffine covers the
/// servers' raw-slab diagonal loops (terms plaintext-times-rotation
/// products accumulated into one ciphertext); kIngest is the cross-domain
/// key switch.
enum class NoiseOp : std::uint8_t {
  kFresh,
  kAdd,
  kAddPlain,
  kAddScalar,
  kMulScalar,
  kMulPlain,
  kMultiply,
  kRelinearize,
  kRotate,
  kIngest,
  kFusedAffine,
};

struct TapeNode {
  NoiseOp op = NoiseOp::kFresh;
  std::int32_t a = -1;      ///< first operand node id (-1 = none)
  std::int32_t b = -1;      ///< second operand node id (-1 = none)
  std::uint64_t scalar = 0; ///< kMulScalar: the scalar (mod t)
  std::uint32_t terms = 0;  ///< kFusedAffine: accumulated diagonal count
};

/// Append-only op recorder. Thread-safe: the servers evaluate rows in
/// parallel_for, so concurrent appends take a mutex (recording is a dry-run
/// diagnostic mode, never the serving hot path).
class NoiseTape {
 public:
  std::int32_t append(const TapeNode& node) {
    std::lock_guard<std::mutex> lock(mu_);
    nodes_.push_back(node);
    return static_cast<std::int32_t>(nodes_.size() - 1);
  }
  const std::vector<TapeNode>& nodes() const { return nodes_; }

 private:
  std::mutex mu_;
  std::vector<TapeNode> nodes_;
};

/// Everything the parameter search needs from one instrumented dry run.
struct CircuitProfile {
  std::string name;
  std::vector<TapeNode> tape;
  /// Node ids of the ciphertexts handed back to clients — their replayed
  /// budget must clear the safety band (interior nodes only need to stay
  /// decryptable).
  std::vector<std::int32_t> outputs;
  /// ExecContext counter delta over the dry run (NTTs, key switches,
  /// rotations, ...), for reports and bench emission.
  CounterSnapshot ops;
};

struct SimResult {
  bool feasible = false;        ///< every node decryptable, outputs clear
                                ///< kOutputFloorBits
  double min_budget = 0.0;      ///< worst bound-derived budget at any node
  double min_output_budget = 0.0;
  std::size_t final_level = 0;  ///< level of the last output node
  std::size_t mod_switches = 0; ///< prime drops the scheduler inserted
  double work = 0.0;            ///< relative cost (limb-weighted op model)
};

/// Replay `profile` under `params`: NoiseEstimator bounds per node, the
/// greedy mod-switch policy (kSwitchMarginBits) after every node, operand
/// levels aligned like match_levels, and the output trim to
/// kOutputFloorBits — the budget the output nodes must clear.
SimResult simulate(const CircuitProfile& profile, const BgvParams& params);

enum class SecurityLevel {
  /// The repo's documented demo posture (EXPERIMENTS.md): rings sized for
  /// speed, not security. The ceiling only enforces "no more modulus than
  /// the 18x55-bit modulus the pre-right-sizing configs shipped", so
  /// right-sizing can shrink q (strictly improving security at fixed n) but
  /// never grow past the documented baseline.
  kDemo,
  /// HE-standard-style 128-bit classical ceiling (ternary secret).
  k128Classical,
};

/// Maximum log2(q) admissible at ring size n for the given level.
double max_log_q(std::size_t n, SecurityLevel level);

struct SearchConstraints {
  SecurityLevel security = SecurityLevel::kDemo;
  /// Ceiling of the steady-state output budget band whose floor is
  /// kOutputFloorBits. Not a search input (the CI noise smoke enforces
  /// measured budget <= band_high to catch surplus regressions).
  double band_high = 40.0;
  std::uint64_t t = 65537;      ///< plaintext modulus (must match the cipher)
  std::size_t min_n = 1024;     ///< slot-layout floor: 2t_pasta | n/2
  std::size_t max_n = 32768;    ///< batch-encoder ceiling: 2n | t-1
  std::uint64_t seed = 11;      ///< copied into the emitted BgvParams
};

struct SearchResult {
  bool found = false;
  BgvParams params;
  SimResult sim;
  double log_q = 0.0;
  double security_cap = 0.0;  ///< max_log_q at the chosen n
  std::size_t candidates_tried = 0;
};

/// Exhaustive sweep of (n, num_primes, prime_bits, relin_digit_bits) under
/// the constraints; returns the feasible candidate with the least replayed
/// work. Deterministic: ties break toward smaller (n, log_q, digit bits).
SearchResult search_params(const CircuitProfile& profile,
                           const SearchConstraints& constraints);

}  // namespace poe::fhe
