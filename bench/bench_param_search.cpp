// Noise-aware parameter right-sizing tool (profile -> replay -> search).
//
// Records each transcipher server's circuit under its checked-in config,
// searches the smallest BgvParams whose replayed output budget clears the
// output floor under the security table, and validates the result LIVE:
// under the searched parameters one block must decrypt correctly (the CI
// noise smoke holds the measured budget it writes inside the band). The
// right-sizing A/B against the pre-right-sizing configs is recorded in
// EXPERIMENTS.md.
//
// The chosen parameters are pasted into HheConfig::{test,demo,batched_*}
// (src/hhe/protocol.cpp); the param_search fixed-point test re-derives
// them so they cannot drift from this tool or the security table.
//
// Default: the PASTA-mini test profiles. POE_FULL_HHE=1 adds the full
// PASTA-4 demo profiles (minutes).
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "common/table.hpp"
#include "fhe/encoding.hpp"
#include "fhe/noise.hpp"
#include "fhe/param_search.hpp"
#include "hhe/batched_server.hpp"
#include "hhe/profile.hpp"
#include "hhe/protocol.hpp"
#include "hhe/simd_batch.hpp"

namespace {
using namespace poe;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

struct CaseResult {
  std::string name;
  fhe::SearchResult search;
  double block_s = 0;  ///< end-to-end block time under the searched params
  double measured_budget = 0;
  double predicted_budget = 0;
  bool decrypt_ok = false;
  bool matches_checked_in = false;
};

std::string params_literal(const fhe::BgvParams& p) {
  std::ostringstream os;
  os << "{n=" << p.n << ", num_primes=" << p.num_primes << ", prime_bits="
     << p.prime_bits << ", relin_digit_bits=" << p.relin_digit_bits << "}";
  return os.str();
}

bool same_params(const fhe::BgvParams& a, const fhe::BgvParams& b) {
  return a.n == b.n && a.t == b.t && a.num_primes == b.num_primes &&
         a.prime_bits == b.prime_bits &&
         a.relin_digit_bits == b.relin_digit_bits;
}

// Run one coefficient-wise transcipher block under `cfg`; returns seconds.
double run_coefficient(const hhe::HheConfig& cfg, hhe::ServerReport& rep,
                       bool& ok) {
  fhe::Bgv bgv(cfg.bgv);
  Xoshiro256 rng(3);
  const auto key = pasta::PastaCipher::random_key(cfg.pasta, rng);
  hhe::HheClient client(cfg, bgv, key);
  hhe::HheServer server(cfg, bgv, client.encrypt_key());
  std::vector<std::uint64_t> msg(cfg.pasta.t);
  for (auto& m : msg) m = rng.below(cfg.pasta.p);
  const auto sym = client.encrypt(msg, /*nonce=*/5);
  const auto t0 = Clock::now();
  const auto out = server.transcipher_block(sym, /*nonce=*/5, 0, &rep);
  const double s = seconds_since(t0);
  ok = client.decrypt_result(out) == msg;
  return s;
}

// Run one batched transcipher block under `cfg` through the SIMD engine's
// one-tile serving shape (key merge -> evaluate -> masked extraction), warmed
// up; returns seconds.
double run_batched(const hhe::HheConfig& cfg, hhe::ServerReport& rep,
                   bool& ok) {
  fhe::Bgv bgv(cfg.bgv);
  Xoshiro256 rng(3);
  const auto key = pasta::PastaCipher::random_key(cfg.pasta, rng);
  hhe::HheClient client(cfg, bgv, key);
  fhe::BatchEncoder encoder(cfg.bgv.n, cfg.bgv.t);
  const hhe::SimdBatchEngine engine(cfg, bgv);
  const fhe::Ciphertext key_ct =
      hhe::encrypt_key_batched(cfg, bgv, encoder, engine.layout(), key);
  std::vector<std::uint64_t> msg(cfg.pasta.t);
  for (auto& m : msg) m = rng.below(cfg.pasta.p);
  const std::vector<hhe::SimdBlockRequest> block{
      {.nonce = 5, .counter = 0, .symmetric_ct = client.encrypt(msg, 5)}};
  const std::vector<std::size_t> tiles{0};
  const std::vector<hhe::TenantTiles> tenant{{&key_ct, tiles}};
  const hhe::PreparedSimdBatch batch = engine.prepare(block);
  auto serve = [&](hhe::ServerReport* report) {
    const fhe::Ciphertext merged = engine.merge_tenant_keys(tenant);
    return engine.extract_tiles(engine.evaluate(merged, batch, report),
                                tiles);
  };
  serve(nullptr);  // warm-up
  const auto t0 = Clock::now();
  const fhe::Ciphertext out = serve(&rep);
  const double s = seconds_since(t0);
  // Report the deliverable's budget: the extraction mask costs noise.
  rep.min_noise_budget_bits = bgv.noise_budget_bits(out);
  rep.predicted_min_budget_bits = bgv.predicted_budget_bits(out);
  ok = hhe::SimdBatchEngine::decode_block(cfg, bgv, out, 0, msg.size()) == msg;
  return s;
}

CaseResult run_case(const std::string& name, const hhe::HheConfig& checked_in,
                    bool batched) {
  CaseResult r;
  r.name = name;
  std::cout << "\n=== " << name << " ===\n";

  auto t0 = Clock::now();
  const fhe::CircuitProfile profile =
      batched ? hhe::record_batched_profile(checked_in)
              : hhe::record_coefficient_profile(checked_in);
  std::cout << "profile: " << profile.tape.size() << " tape nodes, "
            << profile.outputs.size() << " outputs, recorded in "
            << fixed(seconds_since(t0), 2) << " s under "
            << params_literal(checked_in.bgv) << "\n";

  fhe::SearchConstraints c;
  c.t = checked_in.bgv.t;
  c.seed = checked_in.bgv.seed;
  t0 = Clock::now();
  r.search = fhe::search_params(profile, c);
  POE_ENSURE(r.search.found, "search found no feasible parameters");
  r.matches_checked_in = same_params(r.search.params, checked_in.bgv);
  std::cout << "search: " << r.search.candidates_tried << " candidates in "
            << fixed(seconds_since(t0), 2) << " s\n"
            << "chosen: " << params_literal(r.search.params) << " — log2(q) "
            << fixed(r.search.log_q, 0) << " (cap "
            << fixed(r.search.security_cap, 0) << "), "
            << r.search.sim.mod_switches << " scheduled switches, predicted "
            << "output budget " << fixed(r.search.sim.min_output_budget, 1)
            << " bits (floor " << fixed(fhe::kOutputFloorBits, 0) << ")\n"
            << (r.matches_checked_in
                    ? "checked-in config matches the search output\n"
                    : "NOTE: checked-in config differs — paste the params "
                      "above into protocol.cpp\n");

  // Live check of the searched parameters.
  hhe::HheConfig searched = checked_in;
  searched.bgv = r.search.params;
  hhe::ServerReport rep;
  r.block_s = batched ? run_batched(searched, rep, r.decrypt_ok)
                      : run_coefficient(searched, rep, r.decrypt_ok);
  r.measured_budget = rep.min_noise_budget_bits;
  r.predicted_budget = rep.predicted_min_budget_bits;
  std::cout << "live: " << fixed(r.block_s, 3) << " s/block, measured budget "
            << fixed(r.measured_budget, 1) << " bits (predicted "
            << fixed(r.predicted_budget, 1) << "), decrypt "
            << (r.decrypt_ok ? "OK" : "MISMATCH") << "\n";
  return r;
}

}  // namespace

int main() {
  const bool full = std::getenv("POE_FULL_HHE") != nullptr;
  std::cout << "=== Circuit-profile parameter search (noise right-sizing) "
            << "===\n";
  if (!full) {
    std::cout << "(test profiles only; POE_FULL_HHE=1 adds full PASTA-4)\n";
  }

  std::vector<CaseResult> results;
  results.push_back(run_case("coefficient/test", hhe::HheConfig::test(),
                             /*batched=*/false));
  results.push_back(run_case("batched/test", hhe::HheConfig::batched_test(),
                             /*batched=*/true));
  if (full) {
    results.push_back(run_case("coefficient/demo", hhe::HheConfig::demo(),
                               /*batched=*/false));
    results.push_back(run_case("batched/demo",
                               hhe::HheConfig::batched_demo(),
                               /*batched=*/true));
  }

  bool ok = true;
  {
    std::ofstream json("BENCH_param_search.json");
    json << "{\n  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const CaseResult& r = results[i];
      const fhe::BgvParams& p = r.search.params;
      json << "    {\"name\": \"" << r.name << "\", \"n\": " << p.n
           << ", \"num_primes\": " << p.num_primes
           << ", \"prime_bits\": " << p.prime_bits
           << ", \"relin_digit_bits\": " << p.relin_digit_bits
           << ", \"log_q\": " << fixed(r.search.log_q, 0)
           << ", \"security_cap\": " << fixed(r.search.security_cap, 0)
           << ", \"mod_switches\": " << r.search.sim.mod_switches
           << ", \"predicted_budget_bits\": " << fixed(r.predicted_budget, 1)
           << ", \"noise_budget_bits\": " << fixed(r.measured_budget, 1)
           << ", \"block_s\": " << fixed(r.block_s, 4)
           << ", \"matches_checked_in\": "
           << (r.matches_checked_in ? "true" : "false")
           << ", \"decrypt_ok\": " << (r.decrypt_ok ? "true" : "false")
           << "}" << (i + 1 < results.size() ? "," : "") << "\n";
      ok = ok && r.decrypt_ok && r.matches_checked_in;
    }
    json << "  ]\n}\n";
    std::cout << "\n(wrote BENCH_param_search.json)\n";
  }
  return ok ? 0 : 1;
}
