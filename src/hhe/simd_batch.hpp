// The batched (SIMD) transcipher engine: PASTA blocks of one or several
// sessions in a single BGV ciphertext. It is the only batched evaluator;
// the coefficient-wise HheServer (hhe/protocol.hpp) is its oracle in the
// differential tests.
//
// The 2 x (n/2) slot grid is cut into cols/2t tiles of 2t columns each; tile
// m carries the PASTA state of block m. Because every tile holds the SAME
// key (encrypt_key_batched tiles the key periodically), one evaluation of
// the keystream circuit produces cols/2t independent keystream blocks, each
// under its own (nonce, counter) randomness — the diagonal values are
// per-slot, so tile m simply uses block m's matrices and round constants.
// A batch with one occupied tile is the single-block case; the circuit and
// its operation counts do not depend on occupancy.
//
// Two algebraic folds keep the circuit as shallow as one block's:
//
//  * Block-local rotations. A global column rotation by k leaks across tile
//    boundaries; the tile-local rotation decomposes as
//      rho_k(x) = A_k ⊙ rot_k(x) + B_k ⊙ rot_{k-2t}(x)
//    with complementary masks A_k(col) = [off(col) < 2t-k]. Both masks are
//    FOLDED INTO the diagonals (u ⊙ rot_r(z) = rot_r(rot_{-r}(u) ⊙ z)): the
//    in-tile parts apply directly to rot_k(state), the wrap parts collect
//    into one accumulator that takes a single closing rotation by cols-2t.
//
//    The affine layer runs the FULL diagonal method on a hoisted state:
//    Bgv::fused_affine digit-decomposes the state once per RNS prime and
//    serves all 2t-1 rotations from those digits (key inner product + slot
//    permutation, no forward NTTs on the ciphertext), encodes each diagonal
//    and accumulates the products, in one parallel pass over the primes. With hoisting, 2t shared-decomposition rotations are cheaper
//    than a baby/giant split whose giant steps would each redo the
//    decomposition.
//  * The linear Mix layer is folded into the preceding affine matrix
//    (M = Mix · diag(M_L, M_R), rc = Mix(rc_l || rc_r)), removing the
//    rotate-by-t half swap entirely.
//
// The Feistel S-box is ONE squaring of the whole state: the shifted addend
// is rot_{-1}(x^2) with a mask killing the tile heads (offsets 0 and t) —
// the across-tile leak at offset 0 lands exactly on a masked slot. All of
// PASTA-4 costs 5 ct-ct multiplications for the whole batch (three Feistel
// squarings and the two of the final cube).
//
// prepare() is pure plaintext-side CPU work (SHAKE squeeze, rejection
// sampling, matrix generation, diagonal encoding); evaluate() is pure BGV
// work. The serving layer runs them one after the other for each batch;
// each parallelises internally over the thread pool.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fhe/encoding.hpp"
#include "fhe/galois.hpp"
#include "hhe/protocol.hpp"

namespace poe::hhe {

/// One PASTA block to transcipher: its keystream coordinates plus the
/// symmetric ciphertext elements (1..t of them).
struct SimdBlockRequest {
  std::uint64_t nonce = 0;
  std::uint64_t counter = 0;
  std::vector<std::uint64_t> symmetric_ct;
};

/// Everything evaluate() needs, built ahead of time by prepare(): the
/// mask-folded diagonals and round constants of every affine layer
/// (Mix pre-composed), the Feistel tile-head mask and the symmetric
/// ciphertext values, all encoded as slot plaintexts.
struct PreparedSimdBatch {
  std::size_t blocks = 0;                    ///< occupied tiles
  std::vector<std::size_t> lens;             ///< message length per block
  std::vector<std::uint64_t> nonces, counters;
  /// diags[layer][k] = {uA, uB}: in-tile and wrap mask-folded parts of
  /// diagonal k. A Plaintext with empty coeffs means "identically zero —
  /// skip".
  std::vector<std::vector<std::array<fhe::Plaintext, 2>>> diags;
  std::vector<fhe::Plaintext> rc;            ///< per affine layer
  /// Feistel mask pre-encoded in NTT form at the top level (it is reused in
  /// every round; mul_inplace restricts it to the round's level), shifting
  /// that encode work into prepare().
  fhe::RnsPoly feistel_mask_ntt;
  fhe::Plaintext message_plain;              ///< symmetric ct, tile-wise
};

/// One tenant's contribution to a cross-tenant packed batch: its tiled key
/// ciphertext (encrypt_key_batched puts the key in EVERY tile, so any tile
/// subset works) and the tiles the scheduler assigned to it. Tiles need not
/// be contiguous — interleaved submissions produce scattered ownership.
struct TenantTiles {
  const fhe::Ciphertext* key_ct = nullptr;
  std::vector<std::size_t> tiles;
};

class SimdBatchEngine {
 public:
  SimdBatchEngine(const HheConfig& config, const fhe::Bgv& bgv);
  /// Rotation keys depend only on (config, bgv): a serving layer builds
  /// them once and shares them across sessions.
  SimdBatchEngine(const HheConfig& config, const fhe::Bgv& bgv,
                  std::shared_ptr<const fhe::GaloisKeys> shared_keys);

  /// All 2t-1 hoisted diagonal steps, the wrap closing step (cols - 2t) and
  /// the Feistel shift (cols - 1).
  static std::vector<long> rotation_steps(const HheConfig& config);
  static std::shared_ptr<const fhe::GaloisKeys> make_shared_rotation_keys(
      const HheConfig& config, const fhe::Bgv& bgv);

  /// Blocks per batch = cols / 2t.
  std::size_t capacity() const { return capacity_; }
  const fhe::SlotLayout& layout() const { return layout_; }

  /// Plaintext-side precomputation (XOF, sampling, matrices, encoding) for
  /// up to capacity() blocks. No ciphertext operations. Two parallel_for
  /// loops: one over blocks (per-block randomness, matrices and the Mix
  /// composition), one over (layer, k) for the diagonal encodes.
  PreparedSimdBatch prepare(std::span<const SimdBlockRequest> requests) const;

  /// Homomorphically decrypt all blocks of the batch against the session's
  /// tiled key ciphertext; tile m of the result holds message m.
  fhe::Ciphertext evaluate(const fhe::Ciphertext& key_ct,
                           const PreparedSimdBatch& batch,
                           ServerReport* report = nullptr) const;

  /// Cross-tenant slot packing: restrict each tenant's tiled key to its
  /// assigned tiles with a 0/1 column mask and sum, so tile m of the merged
  /// ciphertext holds exactly the key of the tenant owning tile m. Tiles
  /// owned by nobody end up with an all-zero key (their output tiles carry
  /// well-defined garbage that extract_tiles discards). Because the whole
  /// keystream circuit is tile-local, tenant A's output slots are
  /// independent of what any other tile's key is — dropping (quarantining)
  /// a tenant from the merge cannot perturb co-packed tenants.
  fhe::Ciphertext merge_tenant_keys(std::span<const TenantTiles> tenants)
      const;

  /// Masked extraction on output: zero every slot outside `tiles`, so the
  /// ciphertext returned to one tenant carries no other tenant's plaintext.
  /// Costs one plaintext multiplication of noise at the output level.
  fhe::Ciphertext extract_tiles(const fhe::Ciphertext& ct,
                                std::span<const std::size_t> tiles) const;

  /// Client-side: read block `tile`'s message back out.
  static std::vector<std::uint64_t> decode_block(const HheConfig& config,
                                                 const fhe::Bgv& bgv,
                                                 const fhe::Ciphertext& ct,
                                                 std::size_t tile,
                                                 std::size_t len);

 private:
  /// Encode a per-column vector (duplicated into both slot-grid rows).
  fhe::Plaintext encode_cols(const std::vector<std::uint64_t>& per_col) const;
  /// 0/1 column mask selecting exactly the slots of `tiles`.
  fhe::Plaintext tile_mask(std::span<const std::size_t> tiles) const;

  const HheConfig& config_;
  const fhe::Bgv& bgv_;
  fhe::BatchEncoder encoder_;
  fhe::SlotLayout layout_;
  std::shared_ptr<const fhe::GaloisKeys> rotation_keys_;
  std::size_t capacity_ = 0;
};

}  // namespace poe::hhe
