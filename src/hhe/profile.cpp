#include "hhe/profile.hpp"

#include <algorithm>
#include <utility>

#include "fhe/encoding.hpp"
#include "hhe/batched_server.hpp"
#include "hhe/simd_batch.hpp"

namespace poe::hhe {

namespace {
using u64 = std::uint64_t;

// Deterministic nonzero key material mod p. With it and the fixed nonces
// below (which fix every mul_scalar magnitude on the tape), every
// recording of one config describes the same DAG; the node ORDER still
// varies above one thread (see profile.hpp).
std::vector<u64> profile_key(const pasta::PastaParams& params) {
  std::vector<u64> key(params.key_size());
  u64 x = 0x9e3779b97f4a7c15ull;
  for (auto& k : key) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    k = 1 + (x >> 11) % (params.p - 1);
  }
  return key;
}

}  // namespace

fhe::CircuitProfile record_coefficient_profile(const HheConfig& config) {
  fhe::Bgv bgv(config.bgv);
  HheClient client(config, bgv, profile_key(config.pasta));

  fhe::NoiseTape tape;
  const CounterSnapshot before = bgv.rns().exec().snapshot();
  bgv.begin_recording(&tape);
  HheServer server(config, bgv, client.encrypt_key());
  const std::vector<u64> sym(config.pasta.t, 1);
  const auto outs = server.transcipher_block(sym, /*nonce=*/0, /*counter=*/0);
  bgv.end_recording();

  fhe::CircuitProfile profile;
  profile.name = "hhe/coefficient/" + config.pasta.name;
  profile.tape = tape.nodes();
  for (const auto& ct : outs) profile.outputs.push_back(ct.trace_id);
  profile.ops = bgv.rns().exec().snapshot() - before;
  return profile;
}

fhe::CircuitProfile record_batched_profile(const HheConfig& config) {
  fhe::Bgv bgv(config.bgv);
  const fhe::BatchEncoder encoder(config.bgv.n, config.bgv.t);
  SimdBatchEngine engine(config, bgv);
  const std::size_t capacity = engine.capacity();
  const std::size_t t = config.pasta.t;

  // Two tenants splitting the tile space (one if the ring only fits one
  // block), so the merge's match_levels + add path is on the tape. Tenant B
  // uploads from its OWN BGV domain and is switched on ingest — the
  // noisiest admissible key ciphertext (fresh + one key switch), so the
  // search provisions for ingest-switched tenants too, not just native
  // ones.
  const auto key_a = profile_key(config.pasta);
  auto key_b = key_a;
  std::reverse(key_b.begin(), key_b.end());
  fhe::BgvParams foreign_params = config.bgv;
  foreign_params.seed = config.bgv.seed + 17;
  const fhe::Bgv foreign_bgv(foreign_params);
  std::vector<std::size_t> tiles_a, tiles_b;
  for (std::size_t m = 0; m < capacity; ++m) {
    (m % 2 == 0 ? tiles_a : tiles_b).push_back(m);
  }

  fhe::NoiseTape tape;
  const CounterSnapshot before = bgv.rns().exec().snapshot();
  bgv.begin_recording(&tape);

  const fhe::Ciphertext key_ct_a =
      encrypt_key_batched(config, bgv, encoder, engine.layout(), key_a);
  const fhe::Ciphertext key_ct_b = bgv.ingest_switch(
      encrypt_key_batched(config, foreign_bgv, encoder, engine.layout(),
                          key_b),
      bgv.make_ingest_key(foreign_bgv));
  std::vector<TenantTiles> tenants;
  tenants.push_back({&key_ct_a, tiles_a});
  if (!tiles_b.empty()) tenants.push_back({&key_ct_b, tiles_b});
  const fhe::Ciphertext merged = engine.merge_tenant_keys(tenants);

  std::vector<SimdBlockRequest> requests(capacity);
  for (std::size_t m = 0; m < capacity; ++m) {
    requests[m].nonce = 1;
    requests[m].counter = m;
    requests[m].symmetric_ct.assign(t, 1);
  }
  const PreparedSimdBatch batch = engine.prepare(requests);
  const fhe::Ciphertext out = engine.evaluate(merged, batch);

  fhe::CircuitProfile profile;
  const fhe::Ciphertext extracted_a = engine.extract_tiles(out, tiles_a);
  profile.outputs.push_back(extracted_a.trace_id);
  if (!tiles_b.empty()) {
    const fhe::Ciphertext extracted_b = engine.extract_tiles(out, tiles_b);
    profile.outputs.push_back(extracted_b.trace_id);
  }
  bgv.end_recording();
  profile.ops = bgv.rns().exec().snapshot() - before;

  profile.name = "hhe/batched/" + config.pasta.name;
  profile.tape = tape.nodes();
  return profile;
}

}  // namespace poe::hhe
