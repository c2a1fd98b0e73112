// Multi-tenant transcipher service benchmark: client-count sweep.
//
// Each client opens a session (cached encrypted PASTA key) and submits one
// multi-block message; the service packs blocks from DIFFERENT tenants into
// shared SIMD batches (per-tenant tile ranges, merged masked keys), then
// prepares each batch (SHAKE squeeze, rejection sampling, matrix
// generation) and evaluates it under BGV. At 8 clients x 4 blocks the
// packed batch is exactly full (32 tiles): occupancy 1.0 where per-client
// batching idled at 0.125.
//
// Two reference points anchor the numbers: the same 8-client workload
// served one process() call per client (per-client batches, the
// pre-packing service), and sequential per-client coefficient-wise
// HheServer::transcipher calls. The service must beat the coefficient-wise
// baseline by >= 1.3x aggregate throughput.
//
// Multi-process mode: re-invoked with `--shard <fd>` or `--keymanager <fd>`
// this binary becomes one worker of a process-level deployment — the parent
// binds the listen sockets, forks+execs itself into N shard processes and a
// key-manager process, onboards the clients over the key-manager socket and
// drives waves through a Router, so the shard-count sweep measures real
// process-level scale-out over the framed wire protocol. Each point is the
// median (with quartiles) of several timed waves after a warm wave; waves
// during which the hypervisor stole CPU time are left out of the median.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "common/table.hpp"
#include "core/poe.hpp"
#include "fhe/serialize.hpp"
#include "hhe/batched_server.hpp"
#include "modular/primes.hpp"
#include "net/key_manager.hpp"
#include "net/ring.hpp"
#include "net/router.hpp"
#include "net/shard.hpp"

namespace {
using namespace poe;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

struct SweepPoint {
  std::size_t clients = 0;
  service::ServiceReport report;
};

// ---- Child roles of the multi-process mode. --------------------------------

/// One worker-shard process: adopt the inherited listen fd, derive the full
/// evaluation key material independently (the deterministic BgvParams seed
/// makes it bit-identical to every peer's — no key ever crosses the wire),
/// then serve router connections until an orderly kShutdown frame.
int run_shard(int fd) {
  // Each worker computes single-threaded: the sweep measures PROCESS-level
  // scale-out, not each process's internal thread pool.
  ::setenv("POE_THREADS", "1", 1);
  const auto config = hhe::HheConfig::batched_test();
  ExecContext exec;
  fhe::Bgv bgv(config.bgv, &exec);
  const auto keys = hhe::SimdBatchEngine::make_shared_rotation_keys(config, bgv);
  net::ListenSocket listen = net::ListenSocket::adopt(fd);
  service::ServiceConfig scfg;
  scfg.max_sessions = 16;
  std::optional<net::ShardServer> server;
  server.emplace(config, bgv, scfg, keys);
  for (;;) {
    net::Socket sock;
    try {
      sock = listen.accept();
    } catch (const net::WireError&) {
      return 0;
    }
    net::FrameChannel ch(std::move(sock), &exec);
    const net::ShardServer::Exit exit = server->serve(ch);
    if (exit == net::ShardServer::Exit::kShutdown) return 0;
    if (exit == net::ShardServer::Exit::kKilled) {
      server.emplace(config, bgv, scfg, keys);
    }
    // kConnectionLost: keep state, wait for the router to reconnect.
  }
}

/// The key-manager process: onboarding and key fetches only, no evaluation.
/// It validates uploads against the public CRT context — built directly from
/// the parameters, no keygen (this process holds nothing but ciphertext).
int run_key_manager(int fd) {
  ::setenv("POE_THREADS", "1", 1);
  const auto config = hhe::HheConfig::batched_test();
  fhe::RnsContext ctx(config.bgv.n, config.bgv.t,
                      mod::bgv_prime_chain(config.bgv.num_primes,
                                           config.bgv.prime_bits, config.bgv.n,
                                           config.bgv.t));
  net::KeyManager km(ctx);
  net::ListenSocket listen = net::ListenSocket::adopt(fd);
  for (;;) {
    net::Socket sock;
    try {
      sock = listen.accept();
    } catch (const net::WireError&) {
      return 0;
    }
    net::FrameChannel ch(std::move(sock));
    if (!km.serve(ch)) return 0;  // orderly kShutdown frame
  }
}

/// fork + exec this binary into a child role, the listen fd inherited across
/// the exec. The fd argument is formatted BEFORE the fork so the child calls
/// nothing but execv/_exit (the parent has live threads at this point).
pid_t spawn_child(const char* role, int fd) {
  char fd_arg[16];
  std::snprintf(fd_arg, sizeof(fd_arg), "%d", fd);
  const pid_t pid = ::fork();
  if (pid == 0) {
    char* args[] = {const_cast<char*>("bench_service"),
                    const_cast<char*>(role), fd_arg, nullptr};
    ::execv("/proc/self/exe", args);
    ::_exit(127);
  }
  return pid;
}

/// Client ids that land `total / nshards` per shard under the router's own
/// consistent-hash ring, so the sweep compares balanced deployments.
std::vector<std::uint64_t> pick_balanced_clients(std::size_t nshards,
                                                 std::size_t total) {
  net::HashRing ring(nshards, net::RouterConfig{}.ring_vnodes);
  std::vector<std::size_t> load(nshards, 0);
  const std::size_t quota = total / nshards;
  std::vector<std::uint64_t> ids;
  for (std::uint64_t id = 1; ids.size() < total; ++id) {
    const std::size_t owner = ring.owner(id);
    if (load[owner] < quota) {
      ++load[owner];
      ids.push_back(id);
    }
  }
  return ids;
}

/// Undisturbed timed waves per multi-process point, after the untimed warm
/// wave. A single wave is too noisy for the 2-shard floor (single-wave
/// ratios of one build spread from 1.68x to 2.09x), so each point reports
/// the median. A wave during which the hypervisor stole CPU time is timed
/// but left out of the median; a point times at most kMpMaxWaves waves and,
/// short of kMpCleanWaves undisturbed ones, takes the median of them all.
constexpr std::size_t kMpCleanWaves = 7;
constexpr std::size_t kMpMaxWaves = 21;

/// Cumulative hypervisor steal of this machine in clock ticks (the eighth
/// field of /proc/stat's "cpu" line); 0 where that is unreadable.
std::uint64_t steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  return got == 8 ? v[7] : 0;
}

/// Linear-interpolated quantile q in [0, 1] of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

struct MpPoint {
  std::size_t shards = 0;
  std::size_t clients = 0;
  std::size_t blocks = 0;       ///< per wave
  std::size_t requests_ok = 0;  ///< fewest ok requests of any timed wave
  std::size_t waves_timed = 0;
  std::size_t waves_stolen = 0;  ///< timed waves that saw hypervisor steal
  double total_s = 0;           ///< median wave time
  double total_s_q1 = 0;
  double total_s_q3 = 0;
  double blocks_per_s = 0;      ///< blocks / median wave time
};

/// One multi-process deployment: fork the key manager and `nshards` workers,
/// onboard every client over the key-manager socket, run one untimed warm
/// wave and the timed waves through a Router, verify every block
/// round-trips, then shut the fleet down and reap it.
///
/// Weak scaling: `n_clients` should be shard-count * clients-per-full-batch,
/// so every shard evaluates FULL batches and the sweep measures aggregate
/// scale-out throughput — a fixed workload split across shards would leave
/// each shard paying full batch cost for a half-empty batch.
std::optional<MpPoint> run_multiprocess_point(
    std::size_t nshards, std::size_t n_clients, const hhe::HheConfig& config,
    fhe::Bgv& bgv, std::size_t blocks_per_client,
    const std::vector<pasta::PastaCipher>& ciphers,
    const std::vector<fhe::Ciphertext>& key_cts,
    const std::vector<std::vector<std::uint64_t>>& msgs) {
  std::vector<pid_t> pids;

  net::ListenSocket km_listen = net::ListenSocket::loopback();
  pids.push_back(spawn_child("--keymanager", km_listen.fd()));
  std::vector<net::ListenSocket> shard_listens;
  for (std::size_t s = 0; s < nshards; ++s) {
    shard_listens.push_back(net::ListenSocket::loopback());
    pids.push_back(spawn_child("--shard", shard_listens.back().fd()));
  }

  std::optional<MpPoint> out;
  const auto ids = pick_balanced_clients(nshards, n_clients);
  // Everything below connects into listen backlogs immediately and blocks on
  // the first reply until the child finishes its keygen — no readiness
  // handshake needed.
  bool ok = true;
  try {
    for (std::size_t c = 0; c < n_clients && ok; ++c) {
      net::FrameChannel ch(net::connect_loopback(km_listen.port()));
      net::OnboardKeyMsg msg;
      msg.client_id = ids[c];
      msg.key_bytes = fhe::serialize_ciphertext(bgv.rns(), key_cts[c]);
      ch.send(net::MsgType::kOnboardKey, net::encode_onboard_key(msg));
      auto resp = ch.recv();
      if (!resp || resp->type != net::MsgType::kOnboardAck ||
          !net::decode_ack(resp->payload).ok) {
        std::cerr << "multiprocess: onboarding failed for client " << ids[c]
                  << "\n";
        ok = false;
      }
    }

    if (ok) {
      std::vector<net::FrameChannel> channels;
      for (const auto& listen : shard_listens) {
        channels.emplace_back(net::connect_loopback(listen.port()));
      }
      net::Router router(bgv.rns(), std::move(channels),
                         net::FrameChannel(net::connect_loopback(
                             km_listen.port())));

      auto make_wave = [&](std::uint64_t nonce_base) {
        std::vector<service::TranscipherRequest> reqs;
        for (std::size_t c = 0; c < n_clients; ++c) {
          reqs.push_back(service::TranscipherRequest{
              .client_id = ids[c],
              .nonce = nonce_base + c,
              .symmetric_ct = ciphers[c].encrypt(msgs[c], nonce_base + c)});
        }
        return reqs;
      };

      // Untimed warm wave: session installs, slab shaping, page faults.
      for (const auto& r : router.process(make_wave(80000))) {
        if (!r.ok()) {
          std::cerr << "multiprocess: warm-up degraded for client "
                    << r.client_id << ": " << r.error << "\n";
          ok = false;
        }
      }

      std::vector<double> wave_s, clean_s;
      std::size_t requests_ok = n_clients;
      for (std::size_t w = 0;
           w < kMpMaxWaves && clean_s.size() < kMpCleanWaves && ok; ++w) {
        const auto reqs = make_wave(81000 + 1000 * w);
        net::RouterReport report;
        const std::uint64_t steal_before = steal_ticks();
        const auto t0 = Clock::now();
        const auto results = router.process(reqs, &report);
        const double dt = seconds_since(t0);
        wave_s.push_back(dt);
        if (steal_ticks() == steal_before) clean_s.push_back(dt);
        requests_ok = std::min(requests_ok, report.faults.ok);
        for (std::size_t c = 0; c < n_clients && ok; ++c) {
          if (!results[c].ok()) {
            std::cerr << "multiprocess: request degraded for client "
                      << ids[c] << ": " << results[c].error << "\n";
            ok = false;
            break;
          }
          std::vector<std::uint64_t> got;
          for (const auto& block : results[c].blocks) {
            const auto vals =
                service::TranscipherService::decode_block(config, bgv, block);
            got.insert(got.end(), vals.begin(), vals.end());
          }
          if (got != msgs[c]) {
            std::cerr << "multiprocess: MISMATCH for client " << ids[c] << "\n";
            ok = false;
          }
        }
      }
      if (ok) {
        MpPoint point;
        point.shards = nshards;
        point.clients = n_clients;
        point.blocks = n_clients * blocks_per_client;
        point.requests_ok = requests_ok;
        point.waves_timed = wave_s.size();
        point.waves_stolen = wave_s.size() - clean_s.size();
        const auto& sample =
            clean_s.size() >= kMpCleanWaves ? clean_s : wave_s;
        point.total_s = quantile(sample, 0.5);
        point.total_s_q1 = quantile(sample, 0.25);
        point.total_s_q3 = quantile(sample, 0.75);
        point.blocks_per_s = double(point.blocks) / point.total_s;
        out = point;
      }
    }
  } catch (const poe::Error& e) {
    std::cerr << "multiprocess: " << e.what() << "\n";
    out.reset();
  }

  // Orderly shutdown — runs even after a failure, or waitpid would hang on
  // children that never saw a stop signal. Every router channel is closed by
  // now (the Router left scope above), so each child is either blocked in
  // accept() or about to be; the queued connection delivers one kShutdown
  // frame. A child that already died just fails the connect, which is fine —
  // waitpid reaps it either way.
  auto send_shutdown = [](std::uint16_t port) {
    try {
      net::FrameChannel ch(net::connect_loopback(port));
      ch.send(net::MsgType::kShutdown, {});
    } catch (const poe::Error&) {
    }
  };
  for (const auto& listen : shard_listens) send_shutdown(listen.port());
  send_shutdown(km_listen.port());

  for (const pid_t pid : pids) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::cerr << "multiprocess: child " << pid << " exited abnormally\n";
      out.reset();
    }
  }
  return out;
}
}  // namespace

int main(int argc, char** argv) {
  if (argc == 3) {
    const std::string role = argv[1];
    if (role == "--shard") return run_shard(std::atoi(argv[2]));
    if (role == "--keymanager") return run_key_manager(std::atoi(argv[2]));
  }
  const auto config = hhe::HheConfig::batched_test();
  const std::size_t blocks_per_client = 4;
  const std::vector<std::size_t> client_counts = {1, 2, 4, 8};

  std::cout << "=== Multi-tenant transcipher service — " << config.pasta.name
            << ", BGV n=" << config.bgv.n << " ===\n";

  auto t0 = Clock::now();
  fhe::Bgv bgv(config.bgv);
  fhe::BatchEncoder encoder(config.bgv.n, config.bgv.t);
  fhe::SlotLayout layout(config.bgv.n, config.bgv.t);
  const auto simd_keys =
      hhe::SimdBatchEngine::make_shared_rotation_keys(config, bgv);
  std::cout << "BGV keygen + rotation keys: " << fixed(seconds_since(t0), 2)
            << " s\n";

  // One key/cipher per client id (the same across all sweep points so the
  // sweep measures scheduling, not key material).
  const std::size_t max_clients = client_counts.back();
  Xoshiro256 rng(42);
  std::vector<std::vector<std::uint64_t>> keys(max_clients);
  std::vector<pasta::PastaCipher> ciphers;
  std::vector<fhe::Ciphertext> key_cts;
  for (std::size_t c = 0; c < max_clients; ++c) {
    keys[c] = pasta::PastaCipher::random_key(config.pasta, rng);
    ciphers.emplace_back(config.pasta, keys[c]);
    key_cts.push_back(
        hhe::encrypt_key_batched(config, bgv, encoder, layout, keys[c]));
  }
  const std::size_t msg_len = blocks_per_client * config.pasta.t;
  std::vector<std::vector<std::uint64_t>> msgs(max_clients);
  for (auto& msg : msgs) {
    msg.resize(msg_len);
    for (auto& m : msg) m = rng.below(config.pasta.p);
  }

  // ---- Sweep: N clients through the service. ----------------------------
  std::vector<SweepPoint> sweep;
  for (const std::size_t n : client_counts) {
    service::ServiceConfig scfg;
    scfg.max_sessions = max_clients;
    service::TranscipherService svc(config, bgv, scfg, simd_keys);
    std::vector<service::TranscipherRequest> reqs;
    for (std::size_t c = 0; c < n; ++c) {
      svc.open_session(c + 1, key_cts[c]);
      reqs.push_back(service::TranscipherRequest{
          .client_id = c + 1,
          .nonce = 7000 + c,
          .symmetric_ct = ciphers[c].encrypt(msgs[c], 7000 + c)});
    }
    // Untimed warm-up wave: faults in every slab shape this client count
    // needs (per-tenant key merge included), so the measured wave reports
    // STEADY-STATE counters — scripts/check_alloc_budget.py pins its pool
    // misses at zero.
    std::vector<service::TranscipherRequest> warm_reqs;
    for (std::size_t c = 0; c < n; ++c) {
      warm_reqs.push_back(service::TranscipherRequest{
          .client_id = c + 1,
          .nonce = 6000 + c,
          .symmetric_ct = ciphers[c].encrypt(msgs[c], 6000 + c)});
    }
    for (const auto& r : svc.process(warm_reqs)) {
      if (!r.ok()) {
        std::cerr << "warm-up request degraded: " << r.error << "\n";
        return 1;
      }
    }
    SweepPoint point;
    point.clients = n;
    const auto results = svc.process(reqs, &point.report);
    // Verify every request succeeded and every block round-trips before
    // trusting the numbers (the robustness layer degrades per request
    // instead of throwing, so a silent failure would otherwise skew the
    // sweep).
    for (std::size_t c = 0; c < n; ++c) {
      if (!results[c].ok()) {
        std::cerr << "request for client " << c + 1 << " degraded: "
                  << to_string(results[c].status) << " ("
                  << results[c].error << ")\n";
        return 1;
      }
      std::vector<std::uint64_t> got;
      for (const auto& block : results[c].blocks) {
        const auto vals =
            service::TranscipherService::decode_block(config, bgv, block);
        got.insert(got.end(), vals.begin(), vals.end());
      }
      if (got != msgs[c]) {
        std::cerr << "MISMATCH for client " << c + 1 << "\n";
        return 1;
      }
    }
    // No injector is registered: the fault points are on the hot path at
    // their unarmed cost (one pointer load each), and the counters must
    // read all-quiet.
    if (point.report.faults.ok != n || point.report.faults.injected != 0 ||
        point.report.faults.retries != 0) {
      std::cerr << "unexpected fault accounting in a fault-free run\n";
      return 1;
    }
    sweep.push_back(std::move(point));
  }

  TextTable t;
  t.header({"Clients", "Blocks", "Batches", "X-tenant", "Total s", "s/block",
            "Blocks/s", "Occupancy", "Prepare s"});
  for (const auto& p : sweep) {
    const auto& r = p.report;
    t.row({std::to_string(p.clients), std::to_string(r.blocks),
           std::to_string(r.batches), std::to_string(r.cross_tenant_batches),
           fixed(r.total_s, 2), fixed(r.total_s / double(r.blocks), 3),
           fixed(r.blocks_per_s, 2), fixed(r.avg_batch_occupancy, 3),
           fixed(r.prepare_s, 3)});
  }
  t.print(std::cout);

  // ---- Reference: the same 8-client workload, one call per client. ------
  // Each call forms only that client's batches; the calls run back to
  // back, so their times add up.
  service::ServiceReport unpacked;
  {
    service::ServiceConfig scfg;
    scfg.max_sessions = max_clients;
    service::TranscipherService svc(config, bgv, scfg, simd_keys);
    double occupancy_sum = 0;
    for (std::size_t c = 0; c < max_clients; ++c) {
      svc.open_session(c + 1, key_cts[c]);
      service::ServiceReport rep;
      const auto results = svc.process(
          std::vector{service::TranscipherRequest{
              .client_id = c + 1,
              .nonce = 7000 + c,
              .symmetric_ct = ciphers[c].encrypt(msgs[c], 7000 + c)}},
          &rep);
      if (!results[0].ok()) {
        std::cerr << "unpacked reference degraded: " << results[0].error
                  << "\n";
        return 1;
      }
      unpacked.blocks += rep.blocks;
      unpacked.batches += rep.batches;
      unpacked.total_s += rep.total_s;
      occupancy_sum += rep.avg_batch_occupancy * double(rep.batches);
    }
    unpacked.avg_batch_occupancy = occupancy_sum / double(unpacked.batches);
    unpacked.blocks_per_s = double(unpacked.blocks) / unpacked.total_s;
    const double packed_vs_unpacked =
        sweep.back().report.blocks_per_s / unpacked.blocks_per_s;
    std::cout << "\nunpacked reference @ " << max_clients
              << " clients: occupancy " << fixed(unpacked.avg_batch_occupancy, 3)
              << ", " << fixed(unpacked.blocks_per_s, 2)
              << " blocks/s -> packing speedup "
              << fixed(packed_vs_unpacked, 2) << "x\n";
  }

  // ---- Baseline at 8 clients: sequential coefficient-wise serving. -------
  const auto coeff_config = hhe::HheConfig::test();
  fhe::Bgv coeff_bgv(coeff_config.bgv);
  double baseline_s = 0;
  std::size_t baseline_blocks = 0;
  {
    std::cout << "\nbaseline: sequential per-client HheServer::transcipher ("
              << max_clients << " clients x " << blocks_per_client
              << " blocks)...\n";
    std::vector<hhe::HheServer> servers;
    servers.reserve(max_clients);
    for (std::size_t c = 0; c < max_clients; ++c) {
      hhe::HheClient client(coeff_config, coeff_bgv, keys[c]);
      servers.emplace_back(coeff_config, coeff_bgv, client.encrypt_key());
    }
    t0 = Clock::now();
    for (std::size_t c = 0; c < max_clients; ++c) {
      const auto sym = ciphers[c].encrypt(msgs[c], 7000 + c);
      const auto out = servers[c].transcipher(sym, 7000 + c);
      baseline_blocks += (sym.size() + coeff_config.pasta.t - 1) /
                         coeff_config.pasta.t;
      if (out.size() != sym.size()) return 1;
    }
    baseline_s = seconds_since(t0);
  }

  const auto& peak = sweep.back().report;
  const double service_tput = peak.blocks_per_s;
  const double baseline_tput = double(baseline_blocks) / baseline_s;
  const double speedup = service_tput / baseline_tput;
  std::cout << "baseline: " << fixed(baseline_s, 2) << " s for "
            << baseline_blocks << " blocks ("
            << fixed(baseline_tput, 2) << " blocks/s)\n"
            << "service @ " << max_clients << " clients: "
            << fixed(service_tput, 2) << " blocks/s — " << fixed(speedup, 2)
            << "x aggregate throughput (acceptance floor 1.3x)\n";

  // ---- Multi-process scale-out: fork this binary into a key-manager
  // ---- process plus {1, 2} worker-shard processes and push the same
  // ---- 8-client workload through a Router over real sockets. ------------
  std::vector<MpPoint> mp_sweep;
  bool mp_ok = true;
  {
    const unsigned host_cores = std::thread::hardware_concurrency();
    std::cout << "\nmulti-process deployment (host cores: " << host_cores
              << ", workers pinned to POE_THREADS=1)...\n";
    // Weak scaling needs one full batch of clients PER shard; extend the
    // client material beyond the in-process sweep's roster.
    const std::size_t max_shards = 2;
    const std::size_t mp_clients = max_shards * max_clients;
    std::vector<pasta::PastaCipher> mp_ciphers = ciphers;
    std::vector<fhe::Ciphertext> mp_key_cts = key_cts;
    std::vector<std::vector<std::uint64_t>> mp_msgs = msgs;
    for (std::size_t c = max_clients; c < mp_clients; ++c) {
      const auto key = pasta::PastaCipher::random_key(config.pasta, rng);
      mp_ciphers.emplace_back(config.pasta, key);
      mp_key_cts.push_back(
          hhe::encrypt_key_batched(config, bgv, encoder, layout, key));
      std::vector<std::uint64_t> msg(msg_len);
      for (auto& m : msg) m = rng.below(config.pasta.p);
      mp_msgs.push_back(std::move(msg));
    }
    for (const std::size_t nshards : {std::size_t{1}, max_shards}) {
      const auto point = run_multiprocess_point(
          nshards, nshards * max_clients, config, bgv, blocks_per_client,
          mp_ciphers, mp_key_cts, mp_msgs);
      if (!point) {
        mp_ok = false;
        break;
      }
      mp_sweep.push_back(*point);
    }
    if (mp_ok) {
      TextTable mp;
      mp.header({"Shards", "Clients", "Blocks/wave", "Waves (stolen)",
                 "Median wave s", "Quartiles s", "Blocks/s"});
      for (const auto& p : mp_sweep) {
        mp.row({std::to_string(p.shards), std::to_string(p.clients),
                std::to_string(p.blocks),
                std::to_string(p.waves_timed) + " (" +
                    std::to_string(p.waves_stolen) + ")",
                fixed(p.total_s, 3),
                fixed(p.total_s_q1, 3) + "-" + fixed(p.total_s_q3, 3),
                fixed(p.blocks_per_s, 2)});
      }
      mp.print(std::cout);
      std::cout << "2-shard scale-out (ratio of the median wave times): "
                << fixed(mp_sweep[1].blocks_per_s / mp_sweep[0].blocks_per_s, 2)
                << "x (scripts/check_shard_budget.py enforces the floor on "
                   "multi-core hosts)\n";
    } else {
      std::cerr << "multi-process sweep FAILED\n";
    }
  }

  // ---- Machine-readable record. ------------------------------------------
  {
    std::ofstream json("BENCH_service.json");
    json << "{\n  \"config\": \"" << config.pasta.name << "\",\n"
         << "  \"bgv\": {\"n\": " << config.bgv.n
         << ", \"num_primes\": " << config.bgv.num_primes
         << ", \"prime_bits\": " << config.bgv.prime_bits
         << ", \"relin_digit_bits\": " << config.bgv.relin_digit_bits
         << "},\n"
         << "  \"kernel_backend\": \""
         << (sweep.empty() ? std::string("unknown")
                           : sweep.back().report.kernel_backend)
         << "\",\n"
         << "  \"blocks_per_client\": " << blocks_per_client << ",\n"
         << "  \"sweep\": [\n";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const auto& r = sweep[i].report;
      json << "    {\"clients\": " << sweep[i].clients
           << ", \"blocks\": " << r.blocks << ", \"batches\": " << r.batches
           << ", \"total_s\": " << fixed(r.total_s, 4)
           << ", \"ns_per_block\": "
           << static_cast<std::uint64_t>(r.total_s / double(r.blocks) * 1e9)
           << ", \"blocks_per_s\": " << fixed(r.blocks_per_s, 3)
           << ", \"avg_batch_occupancy\": " << fixed(r.avg_batch_occupancy, 3)
           << ", \"cross_tenant_batches\": " << r.cross_tenant_batches
           << ", \"full_flushes\": " << r.full_flushes
           << ", \"drain_flushes\": " << r.drain_flushes
           << ", \"max_batch_wait_s\": " << fixed(r.max_batch_wait_s, 4)
           << ", \"prepare_s\": " << fixed(r.prepare_s, 4)
           << ", \"eval_s\": " << fixed(r.eval_s, 4)
           << ", \"min_noise_budget_bits\": "
           << fixed(r.min_noise_budget_bits, 1)
           << ", \"predicted_budget_bits\": "
           << fixed(r.predicted_min_budget_bits, 1)
           << ", \"budget_slack_bits\": "
           << fixed(r.min_noise_budget_bits - r.predicted_min_budget_bits, 1)
           << ", \"requests_ok\": " << r.faults.ok
           << ", \"requests_degraded\": "
           << (r.requests - r.faults.ok)
           << ", \"stage_retries\": " << r.faults.retries
           << ", \"faults_injected\": " << r.faults.injected
           << ", \"ntt_forward\": " << r.exec_ops.ntt_forward
           << ", \"key_switches\": " << r.exec_ops.key_switch
           << ", \"automorphisms\": " << r.exec_ops.automorphisms
           << ", \"hoisted_rotations\": " << r.exec_ops.hoisted_rotations
           << ", \"pool_misses\": " << r.exec_ops.pool_misses
           << ", \"bytes_copied\": " << r.exec_ops.bytes_copied
           << "}"
           << (i + 1 < sweep.size() ? ",\n" : "\n");
    }
    json << "  ],\n"
         << "  \"unpacked_reference\": {\"clients\": " << max_clients
         << ", \"blocks\": " << unpacked.blocks
         << ", \"batches\": " << unpacked.batches
         << ", \"avg_batch_occupancy\": "
         << fixed(unpacked.avg_batch_occupancy, 3)
         << ", \"blocks_per_s\": " << fixed(unpacked.blocks_per_s, 3)
         << ", \"total_s\": " << fixed(unpacked.total_s, 4) << "},\n"
         << "  \"packed_vs_unpacked_speedup\": "
         << fixed(sweep.back().report.blocks_per_s / unpacked.blocks_per_s, 3)
         << ",\n"
         << "  \"baseline\": {\"name\": \"sequential_coeff_hhe_server\", "
         << "\"clients\": " << max_clients
         << ", \"blocks\": " << baseline_blocks
         << ", \"total_s\": " << fixed(baseline_s, 4)
         << ", \"blocks_per_s\": " << fixed(baseline_tput, 3) << "},\n"
         << "  \"speedup_at_" << max_clients
         << "_clients\": " << fixed(speedup, 3) << ",\n"
         << "  \"multiprocess\": {\"host_cores\": "
         << std::thread::hardware_concurrency()
         << ", \"workers_single_threaded\": true, \"ok\": "
         << (mp_ok ? "true" : "false") << ",\n    \"sweep\": [";
    for (std::size_t i = 0; i < mp_sweep.size(); ++i) {
      const auto& p = mp_sweep[i];
      json << (i == 0 ? "\n" : ",\n")
           << "      {\"shards\": " << p.shards
           << ", \"clients\": " << p.clients << ", \"blocks\": " << p.blocks
           << ", \"requests_ok\": " << p.requests_ok
           << ", \"waves_timed\": " << p.waves_timed
           << ", \"waves_stolen\": " << p.waves_stolen
           << ", \"total_s\": " << fixed(p.total_s, 4)
           << ", \"total_s_q1\": " << fixed(p.total_s_q1, 4)
           << ", \"total_s_q3\": " << fixed(p.total_s_q3, 4)
           << ", \"blocks_per_s\": " << fixed(p.blocks_per_s, 3)
           << ", \"blocks_per_s_q1\": "
           << fixed(double(p.blocks) / p.total_s_q3, 3)
           << ", \"blocks_per_s_q3\": "
           << fixed(double(p.blocks) / p.total_s_q1, 3) << "}";
    }
    json << "\n    ]";
    if (mp_sweep.size() == 2) {
      json << ",\n    \"speedup_2_shards\": "
           << fixed(mp_sweep[1].blocks_per_s / mp_sweep[0].blocks_per_s, 3);
    }
    json << "\n  }\n}\n";
    std::cout << "(wrote BENCH_service.json)\n";
  }
  return speedup >= 1.3 && mp_ok ? 0 : 1;
}
