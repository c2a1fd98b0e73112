// End-to-end HHE benchmark (the workflow of Fig. 1): client PASTA-encrypts,
// server homomorphically decrypts under BGV, client verifies.
//
// Default: the reduced PASTA-mini instance (t = 8, identical circuit
// structure) so the whole suite stays fast. Set POE_FULL_HHE=1 to run the
// full PASTA-4 transciphering (t = 32; takes on the order of a minute).
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/table.hpp"
#include "core/poe.hpp"
#include "hhe/batched_server.hpp"
#include "hhe/protocol.hpp"
#include "hhe/simd_batch.hpp"

namespace {
using namespace poe;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

std::string counter_line(const CounterSnapshot& ops) {
  std::ostringstream os;
  os << ops.ntts() << " NTTs, " << ops.key_switch << " key switches ("
     << ops.hoisted_rotations << " hoisted rotations, " << ops.automorphisms
     << " automorphisms), " << ops.mod_switch
     << " mod switches, pool hit rate "
     << fixed(100.0 * ops.pool_hit_rate(), 1) << "% (" << ops.pool_misses
     << " fresh allocations, " << ops.bytes_copied << " bytes copied)";
  return os.str();
}

// One benchmark record for BENCH_hhe.json. Carries the BgvParams the run
// used plus the predicted-vs-measured budget slack, so the noise-budget CI
// smoke (scripts/check_noise_budget.py) can pin both the safety band and
// the soundness invariant predicted <= measured.
std::string json_record(const char* name, double seconds,
                        const fhe::BgvParams& params,
                        const hhe::ServerReport& rep) {
  const CounterSnapshot& ops = rep.exec_ops;
  std::ostringstream os;
  os << "    {\"name\": \"" << name << "\", \"ns_per_op\": "
     << static_cast<std::uint64_t>(seconds * 1e9)
     << ", \"ct_ct_mults\": " << rep.ct_ct_multiplications
     << ", \"ntt_forward\": " << ops.ntt_forward
     << ", \"ntt_inverse\": " << ops.ntt_inverse
     << ", \"key_switches\": " << ops.key_switch
     << ", \"automorphisms\": " << ops.automorphisms
     << ", \"hoisted_rotations\": " << ops.hoisted_rotations
     << ", \"mod_switches\": " << ops.mod_switch
     << ", \"pool_hits\": " << ops.pool_hits
     << ", \"pool_misses\": " << ops.pool_misses
     << ", \"pool_hit_rate\": " << fixed(ops.pool_hit_rate(), 4)
     << ", \"bytes_copied\": " << ops.bytes_copied
     << ", \"n\": " << params.n
     << ", \"num_primes\": " << params.num_primes
     << ", \"prime_bits\": " << params.prime_bits
     << ", \"relin_digit_bits\": " << params.relin_digit_bits
     << ", \"noise_budget_bits\": " << fixed(rep.min_noise_budget_bits, 1)
     << ", \"predicted_budget_bits\": "
     << fixed(rep.predicted_min_budget_bits, 1)
     << ", \"budget_slack_bits\": "
     << fixed(rep.min_noise_budget_bits - rep.predicted_min_budget_bits, 1)
     << "}";
  return os.str();
}

// The SIMD engine serving ONE block for one tenant, in the service's shape:
// key merge -> evaluate -> masked extraction, tile 0. `rep` covers all
// three steps (exec counters) and reports the extracted deliverable's
// budget. Warm-up runs first so the record reflects the steady-state
// serving loop (zero pool misses once every slab size class is cached —
// scripts/check_alloc_budget.py pins this). Returns the decoded message.
std::vector<std::uint64_t> serve_one_tile(
    const hhe::HheConfig& cfg, const fhe::Bgv& bgv,
    const hhe::SimdBatchEngine& engine, const fhe::Ciphertext& key_ct,
    std::vector<std::uint64_t> sym_ct, std::uint64_t nonce,
    hhe::ServerReport& rep, double& seconds) {
  const std::size_t len = sym_ct.size();
  const std::vector<hhe::SimdBlockRequest> block{
      {.nonce = nonce, .counter = 0, .symmetric_ct = std::move(sym_ct)}};
  const std::vector<std::size_t> tiles{0};
  const std::vector<hhe::TenantTiles> tenant{{&key_ct, tiles}};
  const hhe::PreparedSimdBatch batch = engine.prepare(block);
  auto serve = [&](hhe::ServerReport* report) {
    return engine.extract_tiles(
        engine.evaluate(engine.merge_tenant_keys(tenant), batch, report),
        tiles);
  };
  serve(nullptr);  // warm-up
  const CounterSnapshot before = bgv.rns().exec().snapshot();
  const auto t0 = Clock::now();
  const fhe::Ciphertext out = serve(&rep);
  seconds = seconds_since(t0);
  rep.exec_ops = bgv.rns().exec().snapshot() - before;
  rep.final_level = out.level;
  rep.min_noise_budget_bits = bgv.noise_budget_bits(out);
  rep.predicted_min_budget_bits = bgv.predicted_budget_bits(out);
  return hhe::SimdBatchEngine::decode_block(cfg, bgv, out, 0, len);
}
}  // namespace

int main() {
  const bool full = std::getenv("POE_FULL_HHE") != nullptr;
  const auto config = full ? hhe::HheConfig::demo() : hhe::HheConfig::test();
  std::cout << "=== HHE transciphering (Fig. 1 workflow) — "
            << config.pasta.name << ", BGV n=" << config.bgv.n << ", "
            << config.bgv.num_primes << "x" << config.bgv.prime_bits
            << "-bit primes ===\n";
  if (!full) {
    std::cout << "(reduced instance; POE_FULL_HHE=1 runs full PASTA-4)\n";
  }

  auto t0 = Clock::now();
  fhe::Bgv bgv(config.bgv);
  std::cout << "BGV keygen: " << fixed(seconds_since(t0), 2) << " s\n";

  Xoshiro256 rng(1);
  const auto key = pasta::PastaCipher::random_key(config.pasta, rng);
  hhe::HheClient client(config, bgv, key);

  t0 = Clock::now();
  auto key_cts = client.encrypt_key();
  const double key_enc_s = seconds_since(t0);
  hhe::HheServer server(config, bgv, std::move(key_cts));

  std::vector<std::uint64_t> msg(config.pasta.t);
  for (auto& m : msg) m = rng.below(config.pasta.p);
  const std::uint64_t nonce = 0xABCDEF;

  t0 = Clock::now();
  const auto sym_ct = client.encrypt(msg, nonce);
  const double sym_enc_s = seconds_since(t0);

  hhe::ServerReport report;
  t0 = Clock::now();
  const auto fhe_cts = server.transcipher_block(sym_ct, nonce, 0, &report);
  const double transcipher_s = seconds_since(t0);

  const auto recovered = client.decrypt_result(fhe_cts);
  const bool ok = recovered == msg;

  TextTable t;
  t.header({"Step", "Where", "Result"});
  t.row({"FHE-encrypt PASTA key (once)", "client",
         fixed(key_enc_s, 3) + " s, " +
             std::to_string(config.pasta.key_size()) + " cts"});
  t.row({"PASTA-encrypt one block", "client",
         fixed(sym_enc_s * 1e6, 0) + " us, " +
             std::to_string(pasta::ciphertext_bytes(config.pasta,
                                                    sym_ct.size())) +
             " B on the wire"});
  t.row({"Homomorphic PASTA decryption", "server",
         fixed(transcipher_s, 2) + " s, " +
             std::to_string(report.ct_ct_multiplications) + " ct-ct mults, " +
             std::to_string(report.scalar_multiplications) + " scalar mults"});
  t.row({"Noise budget after circuit", "server",
         fixed(report.min_noise_budget_bits, 1) + " bits at level " +
             std::to_string(report.final_level)});
  t.row({"Client decrypts server output", "client",
         ok ? "matches the original message" : "MISMATCH"});
  t.print(std::cout);
  std::cout << "exec counters: " << counter_line(report.exec_ops) << "\n";

  // --- Batched (SIMD) engine serving one block: the whole state in one
  // tile of one ciphertext.
  hhe::ServerReport brep;
  double bs = 0;
  const auto bcfg =
      full ? hhe::HheConfig::batched_demo() : hhe::HheConfig::batched_test();
  {
    std::cout << "\n=== Batched (SIMD) engine, one block — hoisted diagonal "
                 "evaluation ===\n";
    t0 = Clock::now();
    fhe::Bgv bbgv(bcfg.bgv);
    fhe::BatchEncoder encoder(bcfg.bgv.n, bcfg.bgv.t);
    hhe::HheClient bclient(bcfg, bbgv, key);
    const hhe::SimdBatchEngine engine(bcfg, bbgv);
    const fhe::Ciphertext key_ct =
        hhe::encrypt_key_batched(bcfg, bbgv, encoder, engine.layout(), key);
    std::cout << "keygen + rotation keys: " << fixed(seconds_since(t0), 2)
              << " s\n";

    const auto bmsg = serve_one_tile(bcfg, bbgv, engine, key_ct,
                                     bclient.encrypt(msg, nonce), nonce, brep,
                                     bs);
    std::cout << "transcipher: " << fixed(bs, 2) << " s with "
              << brep.ct_ct_multiplications << " ct-ct mults (vs "
              << report.ct_ct_multiplications
              << " coefficient-wise) — key upload is 1 ciphertext instead of "
              << config.pasta.key_size() << "; result "
              << (bmsg == msg ? "matches" : "MISMATCH") << ", noise budget "
              << fixed(brep.min_noise_budget_bits, 1) << " bits\n";
    std::cout << "exec counters: " << counter_line(brep.exec_ops) << "\n";
  }

  // --- Multi-tenant service: the batched circuit amortised over a SIMD
  // batch of blocks, plaintext-side preparation followed by BGV evaluation
  // (see bench_service for the full client-count sweep).
  {
    const auto scfg =
        full ? hhe::HheConfig::batched_demo() : hhe::HheConfig::batched_test();
    std::cout << "\n=== Transcipher service — SIMD batch of "
              << "one client's blocks ===\n";
    fhe::Bgv sbgv(scfg.bgv);
    fhe::BatchEncoder senc(scfg.bgv.n, scfg.bgv.t);
    fhe::SlotLayout slay(scfg.bgv.n, scfg.bgv.t);
    service::TranscipherService svc(scfg, sbgv);
    svc.open_session(1, hhe::encrypt_key_batched(scfg, sbgv, senc, slay, key));

    const std::size_t nblocks = std::min<std::size_t>(8, svc.batch_capacity());
    pasta::PastaCipher cipher(scfg.pasta, key);
    std::vector<std::uint64_t> smsg(nblocks * scfg.pasta.t);
    Xoshiro256 srng(7);
    for (auto& m : smsg) m = srng.below(scfg.pasta.p);
    service::ServiceReport srep;
    const auto sres = svc.process(
        std::vector{service::TranscipherRequest{
            .client_id = 1,
            .nonce = 99,
            .symmetric_ct = cipher.encrypt(smsg, 99)}},
        &srep);
    std::vector<std::uint64_t> sgot;
    for (const auto& block : sres[0].blocks) {
      const auto vals =
          service::TranscipherService::decode_block(scfg, sbgv, block);
      sgot.insert(sgot.end(), vals.begin(), vals.end());
    }
    std::cout << nblocks << " blocks in " << fixed(srep.total_s, 2) << " s ("
              << fixed(srep.total_s / double(nblocks), 3)
              << " s/block vs " << fixed(bs, 2) << " one-block batch, "
              << fixed(transcipher_s, 2)
              << " coefficient-wise) — prepare "
              << fixed(srep.prepare_s, 3) << " s of it; result "
              << (sgot == smsg ? "matches" : "MISMATCH") << "\n";
  }

  // --- PASTA-3 vs PASTA-4 on the SERVER (the flip side of the paper's
  // §IV-C client trade-off: fewer rounds means a cheaper homomorphic
  // decryption per element, which is why the HHE literature prefers
  // PASTA-3 server-side). Batched evaluation, full variants — only with
  // POE_FULL_HHE=1.
  if (full) {
    std::cout << "\n=== Server-side variant trade-off (batched) ===\n";
    for (const int variant : {3, 4}) {
      hhe::HheConfig vcfg = hhe::HheConfig::batched_demo();
      vcfg.pasta = variant == 3 ? pasta::pasta3() : pasta::pasta4();
      vcfg.bgv.n = 2048;  // cols = 1024, multiple of both state sizes
      fhe::Bgv vbgv(vcfg.bgv);
      Xoshiro256 vrng(9);
      const auto vkey = pasta::PastaCipher::random_key(vcfg.pasta, vrng);
      hhe::HheClient vclient(vcfg, vbgv, vkey);
      fhe::BatchEncoder venc(vcfg.bgv.n, vcfg.bgv.t);
      const hhe::SimdBatchEngine vengine(vcfg, vbgv);
      const fhe::Ciphertext vkey_ct =
          hhe::encrypt_key_batched(vcfg, vbgv, venc, vengine.layout(), vkey);
      std::vector<std::uint64_t> vmsg(vcfg.pasta.t, 123);
      hhe::ServerReport vrep;
      double vs = 0;
      const auto vgot = serve_one_tile(vcfg, vbgv, vengine, vkey_ct,
                                       vclient.encrypt(vmsg, 1), 1, vrep, vs);
      std::cout << "  " << vcfg.pasta.name << ": " << fixed(vs, 2) << " s, "
                << vrep.ct_ct_multiplications << " ct-ct mults, "
                << fixed(vs * 1000 / vcfg.pasta.t, 1)
                << " ms per element transciphered, budget "
                << fixed(vrep.min_noise_budget_bits, 0) << " bits — "
                << (vgot == vmsg ? "OK" : "MISMATCH") << "\n";
    }
    std::cout << "  (PASTA-3's single extra-wide block amortises the server "
                 "circuit over 4x the elements with one fewer round — the "
                 "inverse of the client-side area trade-off.)\n";
  }

  // Communication comparison: HHE vs sending a fresh BGV ciphertext.
  const std::uint64_t bgv_ct_bytes =
      2ull * config.bgv.num_primes * config.bgv.n * 8;
  const std::uint64_t pasta_bytes =
      pasta::ciphertext_bytes(config.pasta, config.pasta.t);
  std::cout << "Communication per block: PASTA " << pasta_bytes
            << " B vs direct FHE upload " << with_commas(bgv_ct_bytes)
            << " B — " << fixed(static_cast<double>(bgv_ct_bytes) / pasta_bytes, 0)
            << "x expansion avoided (the point of HHE).\n";

  // Machine-readable record for regression tracking across PRs.
  {
    std::ofstream json("BENCH_hhe.json");
    json << "{\n  \"config\": \"" << config.pasta.name << "\",\n"
         << "  \"kernel_backend\": \""
         << ExecContext::global().kernel_backend_name() << "\",\n"
         << "  \"benchmarks\": [\n"
         << json_record("transcipher_block_coefficient", transcipher_s,
                        config.bgv, report)
         << ",\n"
         << json_record("transcipher_block_batched", bs, bcfg.bgv, brep)
         << "\n"
         << "  ]\n}\n";
    std::cout << "(wrote BENCH_hhe.json)\n";
  }
  return ok ? 0 : 1;
}
