// Google-benchmark microbenchmarks for the primitive layers: Keccak-f,
// SHAKE squeeze throughput, modular multiplication, the NTT, PASTA block
// encryption (the CPU baseline of Table II), and BGV primitives.
#include <benchmark/benchmark.h>

#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "common/exec_context.hpp"
#include "kernels/backend.hpp"
#include "common/rng.hpp"
#include "fhe/bgv.hpp"
#include "fhe/encoding.hpp"
#include "fhe/ntt.hpp"
#include "keccak/shake.hpp"
#include "modular/primes.hpp"
#include "fhe/serialize.hpp"
#include "hw/accelerator.hpp"
#include "pasta/cipher.hpp"
#include "pasta/serialize.hpp"

namespace {

using namespace poe;

void BM_KeccakF1600(benchmark::State& state) {
  keccak::State s{};
  s[0] = 1;
  for (auto _ : state) {
    keccak::f1600(s);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_KeccakF1600);

void BM_Shake128Squeeze(benchmark::State& state) {
  keccak::Shake xof = keccak::Shake::shake128();
  std::uint8_t seed[16] = {1};
  xof.absorb(seed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(xof.squeeze_u64());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 8);
}
BENCHMARK(BM_Shake128Squeeze);

void BM_ModMul(benchmark::State& state) {
  const mod::Modulus m(pasta::pasta_prime(static_cast<unsigned>(state.range(0))));
  Xoshiro256 rng(1);
  std::uint64_t a = rng.below(m.value()), b = rng.below(m.value());
  for (auto _ : state) {
    a = m.mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_ModMul)->Arg(17)->Arg(33)->Arg(60);

void BM_FermatReduce(benchmark::State& state) {
  Xoshiro256 rng(2);
  mod::u128 x = static_cast<mod::u128>(rng.next()) * 65536;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mod::fermat_reduce(x, 16, 65537));
  }
}
BENCHMARK(BM_FermatReduce);

void BM_Ntt(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto q = mod::ntt_prime_chain(1, 50, n)[0];
  fhe::Ntt ntt(q, n);
  Xoshiro256 rng(3);
  std::vector<std::uint64_t> a(n);
  for (auto& x : a) x = rng.below(q);
  for (auto _ : state) {
    ntt.forward(a);
    benchmark::DoNotOptimize(a.data());
  }
}
BENCHMARK(BM_Ntt)->Arg(1024)->Arg(4096)->Arg(8192);

void BM_PastaBlockEncrypt(benchmark::State& state) {
  const auto params =
      state.range(0) == 3 ? pasta::pasta3() : pasta::pasta4();
  Xoshiro256 rng(4);
  pasta::PastaCipher cipher(params,
                            pasta::PastaCipher::random_key(params, rng));
  std::uint64_t ctr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cipher.keystream(1, ctr++));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(params.t));
}
BENCHMARK(BM_PastaBlockEncrypt)->Arg(3)->Arg(4);

void BM_BgvEncrypt(benchmark::State& state) {
  static fhe::Bgv bgv(fhe::BgvParams::toy());
  fhe::BatchEncoder enc(bgv.params().n, bgv.params().t);
  const auto pt = enc.encode({1, 2, 3});
  for (auto _ : state) {
    benchmark::DoNotOptimize(bgv.encrypt(pt));
  }
}
BENCHMARK(BM_BgvEncrypt);

void BM_BgvMultiplyRelin(benchmark::State& state) {
  static fhe::Bgv bgv(fhe::BgvParams::toy());
  fhe::BatchEncoder enc(bgv.params().n, bgv.params().t);
  const auto ct = bgv.encrypt(enc.encode({5, 6}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bgv.multiply_relin(ct, ct));
  }
}
BENCHMARK(BM_BgvMultiplyRelin);

void BM_BgvRotation(benchmark::State& state) {
  static fhe::Bgv bgv(fhe::BgvParams::toy());
  static fhe::GaloisKeys keys = bgv.make_rotation_keys({1});
  fhe::BatchEncoder enc(bgv.params().n, bgv.params().t);
  const auto base = bgv.encrypt(enc.encode({1, 2, 3, 4}));
  for (auto _ : state) {
    fhe::Ciphertext ct = base;
    bgv.rotate_columns_inplace(ct, 1, keys);
    benchmark::DoNotOptimize(ct);
  }
}
BENCHMARK(BM_BgvRotation);

void BM_BgvModSwitch(benchmark::State& state) {
  static fhe::Bgv bgv(fhe::BgvParams::toy());
  fhe::BatchEncoder enc(bgv.params().n, bgv.params().t);
  const auto base = bgv.encrypt(enc.encode({9, 8}));
  for (auto _ : state) {
    fhe::Ciphertext ct = base;
    bgv.mod_switch_inplace(ct);
    benchmark::DoNotOptimize(ct);
  }
}
BENCHMARK(BM_BgvModSwitch);

void BM_SerializeCiphertext(benchmark::State& state) {
  static fhe::Bgv bgv(fhe::BgvParams::toy());
  fhe::BatchEncoder enc(bgv.params().n, bgv.params().t);
  const auto ct = bgv.encrypt(enc.encode({5}));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto wire = fhe::serialize_ciphertext(bgv.rns(), ct);
    bytes = wire.size();
    benchmark::DoNotOptimize(wire.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_SerializeCiphertext);

void BM_PastaPackElements(benchmark::State& state) {
  const auto params = pasta::pasta4(pasta::pasta_prime(33));
  Xoshiro256 rng(9);
  std::vector<std::uint64_t> elems(1024);
  for (auto& e : elems) e = rng.below(params.p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pasta::pack_elements(params, elems));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
}
BENCHMARK(BM_PastaPackElements);

void BM_AcceleratorBlock(benchmark::State& state) {
  // Host-side cost of simulating one accelerator block (meta-benchmark:
  // how fast the simulator itself runs).
  const auto params =
      state.range(0) == 3 ? pasta::pasta3() : pasta::pasta4();
  Xoshiro256 rng(10);
  const auto key = pasta::PastaCipher::random_key(params, rng);
  hw::AcceleratorSim sim(params);
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run_block(key, nonce++, 0));
  }
}
BENCHMARK(BM_AcceleratorBlock)->Arg(3)->Arg(4);

// ---- Kernel-backend comparison epilogue. ---------------------------------
// Times the three hot kernels (forward NTT, pointwise Barrett mul, lazy ksw
// inner product) on EVERY backend usable on this machine and splices the
// results into BENCH_hhe.json as "kernel_backends", so a regression in the
// SIMD paths is visible next to the end-to-end transcipher numbers. The ksw
// inner product is timed twice more at the batched circuit's shape, in ns
// per multiply-accumulate: with cache-hot keys, and streaming the keys of a
// whole affine layer the way Bgv::fused_affine reads them.

/// ns/op of `op`, timed until the sample is at least ~30 ms long.
template <typename F>
double time_ns_per_op(F&& op) {
  using Clock = std::chrono::steady_clock;
  op();  // warm caches and page in the tables
  std::size_t reps = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) op();
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    if (s >= 0.03) return s * 1e9 / static_cast<double>(reps);
    reps = s <= 0 ? reps * 16 : static_cast<std::size_t>(
                                    static_cast<double>(reps) * 0.05 / s) + 1;
  }
}

void run_kernel_backend_comparison() {
  const std::size_t n = 4096;
  const std::size_t nd = 16;  // digits in the ksw inner product
  const auto q = mod::ntt_prime_chain(1, 50, n)[0];
  const mod::Modulus m(q);
  const fhe::Ntt ntt(q, n);
  const auto tables = ntt.tables();
  Xoshiro256 rng(42);

  std::vector<std::uint64_t> a(n), b(n), lo(n), hi(n);
  for (auto& x : a) x = rng.below(q);
  for (auto& x : b) x = rng.below(q);
  std::vector<std::vector<std::uint64_t>> dig(nd);
  std::vector<const std::uint64_t*> dig_p(nd);
  for (std::size_t w = 0; w < nd; ++w) {
    dig[w].resize(n);
    for (auto& x : dig[w]) x = rng.below(q);
    dig_p[w] = dig[w].data();
  }
  const std::size_t stride = 2 * kernels::kKswLanes * nd;
  std::vector<std::uint64_t> key(stride * n / kernels::kKswLanes);
  for (auto& x : key) x = rng.below(q);

  // One affine layer of the batched circuit at the top level (batched_test:
  // n = 1024, 12 primes of 57 bits, 3 digits each): 15 rotations, each with
  // its own 36-key slab per prime — 106 MB of keys, far beyond L2.
  const std::size_t sn = 1024, primes = 12, rotations = 15, snd = 36;
  const auto chain = mod::ntt_prime_chain(primes, 57, sn);
  const std::size_t sstride = 2 * kernels::kKswLanes * snd;
  std::vector<std::vector<std::uint64_t>> sdig(primes * snd);
  std::vector<std::vector<const std::uint64_t*>> sdig_p(primes);
  std::vector<std::vector<std::uint64_t>> skeys(rotations * primes);
  for (std::size_t i = 0; i < primes; ++i) {
    for (std::size_t w = 0; w < snd; ++w) {
      auto& row = sdig[i * snd + w];
      row.resize(sn);
      for (auto& x : row) x = rng.below(chain[i]);
      sdig_p[i].push_back(row.data());
    }
    for (std::size_t k = 0; k < rotations; ++k) {
      auto& slab = skeys[k * primes + i];
      slab.resize(sstride * sn / kernels::kKswLanes);
      for (auto& x : slab) x = rng.below(chain[i]);
    }
  }
  std::vector<mod::Modulus> smods;
  for (const auto p : chain) smods.emplace_back(p);
  std::vector<std::uint64_t> acc0(sn), acc1(sn);
  const double macs_per_call = 2.0 * static_cast<double>(sn * snd);

  struct Row {
    const char* kernel;
    std::vector<std::pair<std::string, double>> ns;  // backend -> ns
    int decimals = 0;
  };
  std::vector<Row> rows = {{"ntt_4096", {}},
                           {"pointwise_mul_4096", {}},
                           {"ksw_accumulate_4096x16", {}},
                           {"ksw_1024x36_hot_ns_per_mac", {}, 2},
                           {"ksw_1024x36_streamed_ns_per_mac", {}, 2}};
  for (const kernels::Backend* bk : kernels::available_backends()) {
    // NTT output is < q < 4q, so feeding it back in is a legal steady state.
    std::vector<std::uint64_t> x = a;
    rows[0].ns.emplace_back(bk->name(), time_ns_per_op([&] {
                              bk->ntt_inplace(x.data(), tables);
                            }));
    std::vector<std::uint64_t> d = a;
    rows[1].ns.emplace_back(bk->name(), time_ns_per_op([&] {
                              bk->mul(d.data(), b.data(), n, m);
                            }));
    std::vector<std::uint64_t> d0 = a, d1 = b;
    rows[2].ns.emplace_back(bk->name(), time_ns_per_op([&] {
                              bk->ksw_accumulate(d0.data(), d1.data(),
                                                 dig_p.data(), key.data(),
                                                 stride, nd, n, m);
                            }));
    // Hot: every call re-reads prime 0's digits and ONE key slab (about
    // 0.9 MB together). Streamed: fused_affine's order — per prime, every
    // rotation's slab once.
    const auto layer_call = [&](std::size_t i, std::size_t k) {
      bk->ksw_accumulate(acc0.data(), acc1.data(), sdig_p[i].data(),
                         skeys[k * primes + i].data(), sstride, snd, sn,
                         smods[i], false, false);
    };
    rows[3].ns.emplace_back(bk->name(), time_ns_per_op([&] {
                              for (std::size_t k = 0; k < rotations; ++k) {
                                layer_call(0, 0);
                              }
                            }) / (rotations * macs_per_call));
    rows[4].ns.emplace_back(bk->name(), time_ns_per_op([&] {
                              for (std::size_t i = 0; i < primes; ++i) {
                                for (std::size_t k = 0; k < rotations; ++k) {
                                  layer_call(i, k);
                                }
                              }
                            }) / (primes * rotations * macs_per_call));
  }

  std::cout << "\nkernel backends (ns/op, speedup vs scalar):\n";
  std::ostringstream js;
  js << "  \"kernel_backends\": {\n    \"selected\": \""
     << kernels::select_backend().name() << "\"";
  for (const Row& row : rows) {
    std::cout << "  " << row.kernel << ":";
    js << ",\n    \"" << row.kernel << "\": {";
    const double scalar_ns = row.ns.front().second;
    for (std::size_t i = 0; i < row.ns.size(); ++i) {
      const auto& [name, ns] = row.ns[i];
      std::ostringstream value;
      value << std::fixed << std::setprecision(row.decimals) << ns;
      std::cout << "  " << name << "=" << value.str();
      if (i > 0) {
        std::cout << " (" << std::fixed << std::setprecision(2)
                  << scalar_ns / ns << "x)" << std::defaultfloat;
      }
      js << (i > 0 ? ", " : "") << "\"" << name << "\": " << value.str();
    }
    js << "}";
    std::cout << "\n";
  }
  js << "\n  }";

  // Splice into BENCH_hhe.json (idempotent: an existing kernel_backends
  // section is replaced; a missing file gets a minimal skeleton).
  std::string doc;
  {
    std::ifstream in("BENCH_hhe.json");
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      doc = ss.str();
    }
  }
  const std::string marker = ",\n  \"kernel_backends\"";
  if (const auto pos = doc.find(marker); pos != std::string::npos) {
    doc.erase(pos);
  } else {
    while (!doc.empty() && (doc.back() == '\n' || doc.back() == ' ')) {
      doc.pop_back();
    }
    if (!doc.empty() && doc.back() == '}') doc.pop_back();
    while (!doc.empty() && (doc.back() == '\n' || doc.back() == ' ')) {
      doc.pop_back();
    }
  }
  if (doc.empty()) doc = "{\n  \"config\": \"micro-only\"";
  std::ofstream out("BENCH_hhe.json");
  out << doc << ",\n" << js.str() << "\n}\n";
  std::cout << "(spliced kernel_backends into BENCH_hhe.json)\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Cumulative ExecContext counters across every benchmark above — a quick
  // sanity check that the BGV benches hit the pool instead of the allocator.
  const poe::CounterSnapshot ops = poe::ExecContext::global().snapshot();
  std::cout << "exec counters (cumulative): " << ops.ntts() << " NTTs, "
            << ops.ct_ct_mul << " ct-ct mults, " << ops.key_switch
            << " key switches, " << ops.mod_switch << " mod switches, "
            << ops.encode << " encodes, pool " << ops.pool_hits << " hits / "
            << ops.pool_misses << " misses\n";
  run_kernel_backend_comparison();
  return 0;
}
