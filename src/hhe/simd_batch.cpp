#include "hhe/simd_batch.hpp"

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "modular/modulus.hpp"

namespace poe::hhe {

namespace {
using fhe::Ciphertext;
using u64 = std::uint64_t;
}  // namespace

std::vector<long> SimdBatchEngine::rotation_steps(const HheConfig& config) {
  const std::size_t s = config.pasta.state_size();
  const std::size_t cols = config.bgv.n / 2;
  std::set<long> steps;
  for (std::size_t k = 1; k < s; ++k) {
    steps.insert(static_cast<long>(k));  // hoisted diagonal rotations
  }
  // Closing rotation of the wrap accumulator: rot_{-s} == rot_{cols - s}.
  const std::size_t wrap = (cols - s) % cols;
  if (wrap != 0) steps.insert(static_cast<long>(wrap));
  steps.insert(static_cast<long>(cols - 1));  // Feistel shift rot_{-1}
  return {steps.begin(), steps.end()};
}

std::shared_ptr<const fhe::GaloisKeys> SimdBatchEngine::make_shared_rotation_keys(
    const HheConfig& config, const fhe::Bgv& bgv) {
  return std::make_shared<const fhe::GaloisKeys>(
      bgv.make_rotation_keys(rotation_steps(config)));
}

SimdBatchEngine::SimdBatchEngine(const HheConfig& config, const fhe::Bgv& bgv)
    : SimdBatchEngine(config, bgv, make_shared_rotation_keys(config, bgv)) {}

SimdBatchEngine::SimdBatchEngine(
    const HheConfig& config, const fhe::Bgv& bgv,
    std::shared_ptr<const fhe::GaloisKeys> shared_keys)
    : config_(config),
      bgv_(bgv),
      encoder_(config.bgv.n, config.bgv.t),
      layout_(config.bgv.n, config.bgv.t) {
  const std::size_t s = config_.pasta.state_size();
  POE_ENSURE(layout_.cols() % s == 0,
             "ring too small: 2t must divide n/2 (2t=" << s
                                                       << ", n=" << config.bgv.n
                                                       << ")");
  POE_ENSURE(shared_keys != nullptr, "rotation keys must be non-null");
  rotation_keys_ = std::move(shared_keys);
  capacity_ = layout_.cols() / s;
}

fhe::Plaintext SimdBatchEngine::encode_cols(
    const std::vector<u64>& per_col) const {
  const std::size_t cols = layout_.cols();
  POE_ENSURE(per_col.size() == cols, "per-column vector has wrong size");
  std::vector<u64> logical(2 * cols);
  for (std::size_t col = 0; col < cols; ++col) {
    logical[col] = per_col[col];
    logical[cols + col] = per_col[col];
  }
  return encoder_.encode(layout_.to_slots(logical));
}

PreparedSimdBatch SimdBatchEngine::prepare(
    std::span<const SimdBlockRequest> requests) const {
  const auto& params = config_.pasta;
  const std::size_t t = params.t;
  const std::size_t s = 2 * t;
  const std::size_t cols = layout_.cols();
  const std::size_t layers = params.rounds + 1;
  const std::size_t blocks = requests.size();
  POE_ENSURE(blocks >= 1 && blocks <= capacity_,
             "batch must have 1.." << capacity_ << " blocks");
  const mod::Modulus pm(params.p);

  PreparedSimdBatch batch;
  batch.blocks = blocks;
  for (const auto& req : requests) {
    POE_ENSURE(!req.symmetric_ct.empty() && req.symmetric_ct.size() <= t,
               "block must have 1.." << t << " elements");
    batch.lens.push_back(req.symmetric_ct.size());
    batch.nonces.push_back(req.nonce);
    batch.counters.push_back(req.counter);
  }

  // Per block and affine layer: the Mix-composed matrix
  //   M = Mix * diag(M_L, M_R)   (top: 2*M_L | M_R, bottom: M_L | 2*M_R)
  // and round constants rc = Mix(rc_l || rc_r), all s x s / s dense. One
  // task per block (XOF, sampling, MatGen, composition).
  std::vector<std::vector<std::vector<u64>>> comp(blocks), crc(blocks);
  parallel_for(blocks, [&](std::size_t m) {
    const PreparedBlock pb =
        prepare_block(params, requests[m].nonce, requests[m].counter);
    comp[m].resize(layers);
    crc[m].resize(layers);
    for (std::size_t l = 0; l < layers; ++l) {
      const pasta::Matrix& ml = pb.mat_l[l];
      const pasta::Matrix& mr = pb.mat_r[l];
      const auto& d = pb.rnd.layers[l];
      auto& M = comp[m][l];
      M.assign(s * s, 0);
      for (std::size_t i = 0; i < t; ++i) {
        for (std::size_t j = 0; j < t; ++j) {
          M[i * s + j] = pm.add(ml.at(i, j), ml.at(i, j));
          M[i * s + t + j] = mr.at(i, j);
          M[(t + i) * s + j] = ml.at(i, j);
          M[(t + i) * s + t + j] = pm.add(mr.at(i, j), mr.at(i, j));
        }
      }
      auto& rcv = crc[m][l];
      rcv.resize(s);
      for (std::size_t i = 0; i < t; ++i) {
        rcv[i] = pm.add(pm.add(d.rc_l[i], d.rc_l[i]), d.rc_r[i]);
        rcv[t + i] = pm.add(d.rc_l[i], pm.add(d.rc_r[i], d.rc_r[i]));
      }
    }
  });

  // Mask-folded diagonals. Diagonal k of the tile-local matrix product
  // (D_k(col) = M^{(tile)}(off, (off+k) mod s)) splits into the in-tile part
  // A (off < s-k, read directly off rot_k(state)) and the wrap part B
  // (off >= s-k, logically read via rot_{k-s}); the wrap parts are
  // pre-rotated by +s (uB(col) = (D_k*B_k)(col + s)) so every one of them
  // applies to the SAME hoisted rot_k output and the whole wrap accumulator
  // takes a single closing rotation by cols - s. One task per (layer, k).
  batch.diags.assign(layers, std::vector<std::array<fhe::Plaintext, 2>>(s));
  parallel_for(layers * s, [&](std::size_t idx) {
    const std::size_t l = idx / s, k = idx % s;
    std::vector<u64> ua(cols, 0), ub(cols, 0);
    bool any_a = false, any_b = false;
    for (std::size_t col = 0; col < cols; ++col) {
      {
        const std::size_t m = col / s, off = col % s;
        if (m < blocks && off + k < s) {
          const u64 v = comp[m][l][off * s + off + k];
          ua[col] = v;
          any_a = any_a || v != 0;
        }
      }
      {
        const std::size_t src = (col + s) % cols;
        const std::size_t m = src / s, off = src % s;
        if (m < blocks && off + k >= s) {
          const u64 v = comp[m][l][off * s + off + k - s];
          ub[col] = v;
          any_b = any_b || v != 0;
        }
      }
    }
    auto& pair = batch.diags[l][k];
    if (any_a) pair[0] = encode_cols(ua);
    if (any_b) pair[1] = encode_cols(ub);
  });
  batch.rc.resize(layers);
  for (std::size_t l = 0; l < layers; ++l) {
    std::vector<u64> rcv(cols, 0);
    for (std::size_t col = 0; col < cols; ++col) {
      const std::size_t m = col / s, off = col % s;
      if (m < blocks) rcv[col] = crc[m][l][off];
    }
    batch.rc[l] = encode_cols(rcv);
  }

  // Feistel mask: kill the tile heads (offsets 0 and t — those state
  // elements take no shifted addend) and every unoccupied tile.
  std::vector<u64> mask(cols, 0);
  std::vector<u64> msg(cols, 0);
  for (std::size_t col = 0; col < cols; ++col) {
    const std::size_t m = col / s, off = col % s;
    if (m >= blocks) continue;
    if (off != 0 && off != t) mask[col] = 1;
    if (off < batch.lens[m]) msg[col] = requests[m].symmetric_ct[off];
  }
  batch.feistel_mask_ntt = fhe::RnsPoly::from_plaintext(
      &bgv_.rns(), bgv_.top_level(), encode_cols(mask).coeffs,
      /*to_ntt_form=*/true);
  batch.message_plain = encode_cols(msg);
  return batch;
}

Ciphertext SimdBatchEngine::evaluate(const Ciphertext& key_ct,
                                     const PreparedSimdBatch& batch,
                                     ServerReport* report) const {
  const auto& params = config_.pasta;
  const std::size_t s = 2 * params.t;
  const std::size_t cols = layout_.cols();
  POE_ENSURE(batch.blocks >= 1 && batch.blocks <= capacity_,
             "batch must have 1.." << capacity_ << " blocks");
  POE_ENSURE(batch.diags.size() == params.rounds + 1,
             "batch was prepared for a different cipher");

  ServerReport local;
  ServerReport& rep = report != nullptr ? *report : local;
  rep = ServerReport{};
  const CounterSnapshot before = bgv_.rns().exec().snapshot();

  Ciphertext state = key_ct;

  // One Mix-composed affine layer: full diagonal method over a hoisted
  // state — its digit build, rotations, diagonal encodes and products —
  // in one Bgv::fused_affine pass. The in-tile parts accumulate directly;
  // the wrap parts (already pre-rotated by +s in prepare()) accumulate
  // separately and take ONE closing rotation by cols - s.
  auto affine = [&](std::size_t l) {
    auto [acc, wrap_acc] =
        bgv_.fused_affine(state, batch.diags[l], *rotation_keys_);
    for (const auto& pair : batch.diags[l]) {
      for (const auto& diag : pair) {
        if (!diag.coeffs.empty()) rep.scalar_multiplications += s;
      }
    }
    if (wrap_acc.size() != 0) {
      const std::size_t wrap = (cols - s) % cols;
      if (wrap != 0) {
        bgv_.rotate_columns_inplace(wrap_acc, static_cast<long>(wrap),
                                    *rotation_keys_);
      }
      if (acc.size() == 0) {
        acc = std::move(wrap_acc);
      } else {
        bgv_.add_inplace(acc, wrap_acc);
      }
    }
    bgv_.add_plain_inplace(acc, batch.rc[l]);
    state = std::move(acc);
    bgv_.auto_switch_inplace(state);
  };

  // The dense diagonals inflate the noise by ~||pt|| * n per layer. The
  // tracked bound places the drops; the first runs fused on the 3-part
  // tensor BEFORE relinearising, so the relin digit decomposition works at
  // the lower level.
  auto square_reduced = [&](const Ciphertext& x) {
    Ciphertext sq = bgv_.multiply(x, x);
    bgv_.auto_switch_inplace(sq);
    bgv_.relinearize_inplace(sq);
    bgv_.auto_switch_inplace(sq);
    ++rep.ct_ct_multiplications;
    return sq;
  };

  auto feistel = [&] {
    Ciphertext sq = square_reduced(state);
    // Tile-local shift by -1; the cross-tile leak at offset 0 is masked.
    bgv_.rotate_columns_inplace(sq, static_cast<long>(cols - 1),
                                *rotation_keys_);
    for (auto& part : sq.parts) part.mul_inplace(batch.feistel_mask_ntt);
    bgv_.note_mask_mul(sq);
    // The mask multiply is a full plaintext product (~log2(t) + log2(n)
    // bits); on an elevated trajectory (e.g. an ingest-switched tenant key)
    // that can cross a drop threshold mid-feistel, and the replayed
    // schedule drops here — the live path must offer the same drop point.
    bgv_.auto_switch_inplace(sq);
    bgv_.mod_switch_to(state, sq.level);
    bgv_.add_inplace(state, sq);
  };

  auto cube = [&] {
    Ciphertext sq = square_reduced(state);
    bgv_.mod_switch_to(state, sq.level);
    Ciphertext prod = bgv_.multiply(sq, state);
    bgv_.auto_switch_inplace(prod);
    bgv_.relinearize_inplace(prod);
    bgv_.auto_switch_inplace(prod);
    state = std::move(prod);
    ++rep.ct_ct_multiplications;
  };

  for (std::size_t round = 0; round < params.rounds; ++round) {
    affine(round);
    if (round == params.rounds - 1) {
      cube();
    } else {
      feistel();
    }
  }
  affine(params.rounds);  // final affine layer (Mix folded in)

  // enc(m) = c - KS, all tiles at once.
  bgv_.negate_inplace(state);
  bgv_.add_plain_inplace(state, batch.message_plain);

  rep.final_level = state.level;
  rep.exec_ops = bgv_.rns().exec().snapshot() - before;
  rep.min_noise_budget_bits = bgv_.noise_budget_bits(state);
  rep.predicted_min_budget_bits = bgv_.predicted_budget_bits(state);
  return state;
}

fhe::Plaintext SimdBatchEngine::tile_mask(
    std::span<const std::size_t> tiles) const {
  const std::size_t s = config_.pasta.state_size();
  std::vector<u64> mask(layout_.cols(), 0);
  for (const std::size_t tile : tiles) {
    POE_ENSURE((tile + 1) * s <= layout_.cols(), "tile out of range");
    for (std::size_t off = 0; off < s; ++off) mask[tile * s + off] = 1;
  }
  return encode_cols(mask);
}

Ciphertext SimdBatchEngine::merge_tenant_keys(
    std::span<const TenantTiles> tenants) const {
  POE_ENSURE(!tenants.empty(), "merge requires at least one tenant");
  std::vector<const Ciphertext*> keys;
  for (const auto& tenant : tenants) {
    POE_ENSURE(tenant.key_ct != nullptr, "merge: null tenant key");
    POE_ENSURE(!tenant.tiles.empty(), "merge: tenant owns no tiles");
    keys.push_back(tenant.key_ct);
  }
  std::vector<fhe::Plaintext> masks(tenants.size());
  parallel_for(tenants.size(),
               [&](std::size_t k) { masks[k] = tile_mask(tenants[k].tiles); });
  const bool one_shape = std::all_of(keys.begin(), keys.end(), [&](auto* key) {
    return key->level == keys[0]->level && key->size() == keys[0]->size();
  });
  if (one_shape) return bgv_.sum_mul_plain(keys, masks);
  // Keys at different levels: mask each, and switch the running sum or the
  // next term down to the lower of the two before adding.
  Ciphertext merged = *keys[0];
  bgv_.mul_plain_inplace(merged, masks[0]);
  for (std::size_t k = 1; k < keys.size(); ++k) {
    Ciphertext masked = *keys[k];
    bgv_.mul_plain_inplace(masked, masks[k]);
    bgv_.match_levels(merged, masked);
    bgv_.add_inplace(merged, masked);
  }
  return merged;
}

Ciphertext SimdBatchEngine::extract_tiles(
    const Ciphertext& ct, std::span<const std::size_t> tiles) const {
  Ciphertext out = ct;
  bgv_.mul_plain_inplace(out, tile_mask(tiles));
  // Per-tenant results leave the service here — trim surplus levels so the
  // download is no larger than the safety band requires.
  bgv_.trim_output_inplace(out);
  return out;
}

std::vector<u64> SimdBatchEngine::decode_block(const HheConfig& config,
                                               const fhe::Bgv& bgv,
                                               const Ciphertext& ct,
                                               std::size_t tile,
                                               std::size_t len) {
  const std::size_t s = config.pasta.state_size();
  fhe::BatchEncoder encoder(config.bgv.n, config.bgv.t);
  fhe::SlotLayout layout(config.bgv.n, config.bgv.t);
  POE_ENSURE((tile + 1) * s <= layout.cols(), "tile out of range");
  POE_ENSURE(len <= config.pasta.t, "len out of range");
  const auto logical = layout.from_slots(encoder.decode(bgv.decrypt(ct)));
  const auto begin = logical.begin() + static_cast<long>(tile * s);
  return {begin, begin + static_cast<long>(len)};
}

}  // namespace poe::hhe
