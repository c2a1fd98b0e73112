// Cross-process chaos harness (ctest label: chaos): fault sites at the
// PROCESS BOUNDARY — a peer dying mid-write (net.frame.torn), a slow peer
// (net.peer.stall, virtual time), a worker-shard process dying between
// request and response (shard.kill) — driven through a LocalCluster over
// real loopback sockets.
//
// Directed tests pin the exact degradation contract: a torn or killed shard
// fails its wave with a typed kFailed and NEVER costs a healthy shard's
// tenant anything; a slow peer degrades to kTimedOut in the fail-safe
// direction (the nonce IS recorded, a retry replays); and a killed shard's
// sessions rebalance to the survivors from serialized session state with
// ZERO nonce-replay acceptance — not for nonces acknowledged before the
// kill, not even after the dead shard restarts empty and reinstalls from
// the router's cache.
//
// RandomScheduleSweep drives seeded schedules over a menu mixing the net
// sites with in-process stage faults and checks invariants only (the
// partition, correct decode for every surviving request, full recovery
// after disarm + revive). Reproduce with POE_FAULT_SEED; POE_FAULT_SCHEDULES
// lengthens the sweep. The key-corrupt sites are deliberately absent here:
// quarantine recovery requires a fresh key upload, an in-process contract
// fault_test already sweeps.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "common/rng.hpp"
#include "fhe/serialize.hpp"
#include "hhe/batched_server.hpp"
#include "net/cluster.hpp"
#include "service/service.hpp"

namespace poe::net {
namespace {

using u64 = std::uint64_t;
using service::RequestStatus;
using service::TranscipherRequest;
using service::TranscipherResult;
using service::TranscipherService;

struct Stack {
  hhe::HheConfig config = hhe::HheConfig::batched_test();
  fhe::Bgv bgv{config.bgv};
  fhe::BatchEncoder encoder{config.bgv.n, config.bgv.t};
  fhe::SlotLayout layout{config.bgv.n, config.bgv.t};
  std::shared_ptr<const fhe::GaloisKeys> keys =
      hhe::SimdBatchEngine::make_shared_rotation_keys(config, bgv);
};

Stack& stack() {
  static Stack s;
  return s;
}

// One shared 2-shard cluster for the whole binary (each shard's Bgv keygen
// is the expensive part). Tests isolate through fresh client ids and
// globally fresh nonces; every test begins by reviving anything a previous
// test killed.
// A static object, not a leaked pointer: its destructor joins every
// serving thread at exit.
LocalCluster& cluster() {
  static LocalCluster c(stack().config, stack().bgv.rns(), [] {
    ClusterConfig cc;
    cc.shards = 2;
    // Sequential shards: per-site arrival order is exactly the frame order,
    // so "which wave eats the fault" is deterministic in directed tests.
    cc.service.pipelined = false;
    cc.service.max_stage_attempts = 3;
    cc.service.backoff_base_s = 1e-4;
    cc.service.stage_timeout_s = 2.0;
    cc.router.peer_timeout_s = 2.0;
    return cc;
  }());
  return c;
}

u64 fresh_nonce() {
  static u64 next = 1;
  return next++;
}

/// First client id >= `start` the ring places on `shard`.
u64 pick_client_on(std::size_t shard, u64 start) {
  for (u64 id = start;; ++id) {
    if (cluster().router().owner(id) == shard) return id;
  }
}

// Registers the injector on ONE shard's ExecContext — directed chaos is
// always "this worker misbehaves, its neighbours must not care".
struct ShardArmed {
  FaultInjector fi;
  ExecContext* exec;
  ShardArmed(std::size_t shard, u64 seed = 0)
      : fi(seed), exec(&cluster().shard_exec(shard)) {
    exec->set_fault_injector(&fi);
  }
  ~ShardArmed() { exec->set_fault_injector(nullptr); }
  void disarm() { exec->set_fault_injector(nullptr); }
};

struct TestClient {
  u64 id;
  std::vector<u64> key;
  pasta::PastaCipher cipher;

  TestClient(u64 client_id, u64 seed)
      : id(client_id),
        key([&] {
          Xoshiro256 rng(seed);
          return pasta::PastaCipher::random_key(stack().config.pasta, rng);
        }()),
        cipher(stack().config.pasta, key) {}

  std::vector<std::uint8_t> key_wire() const {
    return fhe::serialize_ciphertext(
        stack().bgv.rns(),
        hhe::encrypt_key_batched(stack().config, stack().bgv, stack().encoder,
                                 stack().layout, key));
  }

  TranscipherRequest request(u64 nonce, const std::vector<u64>& msg) const {
    return TranscipherRequest{.client_id = id,
                              .nonce = nonce,
                              .symmetric_ct = cipher.encrypt(msg, nonce)};
  }
};

std::vector<u64> random_msg(std::size_t len, u64 seed) {
  Xoshiro256 rng(seed);
  std::vector<u64> msg(len);
  for (auto& m : msg) m = rng.below(stack().config.pasta.p);
  return msg;
}

std::vector<u64> decode_all(const TranscipherResult& result) {
  std::vector<u64> out;
  for (const auto& block : result.blocks) {
    const auto vals =
        TranscipherService::decode_block(stack().config, stack().bgv, block);
    out.insert(out.end(), vals.begin(), vals.end());
  }
  return out;
}

void expect_partition(const RouterReport& rep) {
  EXPECT_EQ(rep.faults.ok + rep.faults.rejected + rep.faults.shed +
                rep.faults.quarantined + rep.faults.timed_out +
                rep.faults.failed,
            rep.requests);
}

void onboard(const TestClient& c) {
  std::string error;
  ASSERT_TRUE(cluster().onboard(c.id, c.key_wire(), &error)) << error;
}

u64 env_u64(const char* name, u64 fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 10) : fallback;
}

TEST(NetFaultDirected, TornResponseFrameFailsTypedAndSparesNeighbours) {
  cluster().revive_dead_shards();
  TestClient a(pick_client_on(0, 200), 201);
  TestClient b(pick_client_on(1, 260), 202);
  onboard(a);
  onboard(b);
  const auto msg_a = random_msg(stack().config.pasta.t + 1, 203);
  const auto msg_b = random_msg(stack().config.pasta.t + 2, 204);

  // Warm wave: installs both sessions so the armed wave's only shard-side
  // send is the process-result frame the fault will tear.
  const u64 warm_a = fresh_nonce();
  {
    const auto warm = cluster().router().process(
        std::vector{a.request(warm_a, msg_a), b.request(fresh_nonce(), msg_b)});
    ASSERT_TRUE(warm[0].ok()) << warm[0].error;
    ASSERT_TRUE(warm[1].ok()) << warm[1].error;
  }

  ShardArmed scope(0);
  scope.fi.arm(
      FaultSpec{.site = "net.frame.torn", .kind = FaultClass::kForce});
  const u64 torn_nonce = fresh_nonce();
  RouterReport rep;
  const auto results = cluster().router().process(
      std::vector{a.request(torn_nonce, msg_a),
                  b.request(fresh_nonce(), msg_b)},
      &rep);
  scope.disarm();

  EXPECT_EQ(scope.fi.fired(FaultClass::kForce), 1u);
  EXPECT_EQ(results[0].status, RequestStatus::kFailed);
  EXPECT_FALSE(results[0].error.empty());
  // The healthy shard's tenant is untouched — typed degradation only, no
  // collateral damage across the wire.
  ASSERT_TRUE(results[1].ok()) << results[1].error;
  EXPECT_EQ(decode_all(results[1]), msg_b);
  EXPECT_FALSE(cluster().router().shard_alive(0));
  EXPECT_EQ(rep.faults.failed, 1u);
  EXPECT_EQ(rep.faults.ok, 1u);
  expect_partition(rep);

  // The supervisor reconnects the shard; its SERVICE kept its state across
  // the lost connection, so the torn wave's nonce — which the shard DID
  // process even though the ack never arrived — still replays, and fresh
  // traffic flows again.
  cluster().revive_dead_shards();
  ASSERT_TRUE(cluster().router().shard_alive(0));
  const auto after = cluster().router().process(
      std::vector{a.request(torn_nonce, msg_a),
                  a.request(fresh_nonce(), msg_a)});
  EXPECT_EQ(after[0].status, RequestStatus::kNonceReplay);
  ASSERT_TRUE(after[1].ok()) << after[1].error;
  EXPECT_EQ(decode_all(after[1]), msg_a);
}

TEST(NetFaultDirected, SlowPeerDegradesToTimedOutFailSafe) {
  cluster().revive_dead_shards();
  TestClient a(pick_client_on(0, 300), 301);
  TestClient b(pick_client_on(1, 360), 302);
  onboard(a);
  onboard(b);
  const auto msg_a = random_msg(stack().config.pasta.t + 1, 303);
  const auto msg_b = random_msg(3, 304);
  {
    const auto warm = cluster().router().process(std::vector{
        a.request(fresh_nonce(), msg_a), b.request(fresh_nonce(), msg_b)});
    ASSERT_TRUE(warm[0].ok()) << warm[0].error;
    ASSERT_TRUE(warm[1].ok()) << warm[1].error;
  }

  ShardArmed scope(0);
  // 3 virtual seconds of peer slowness against the router's 2 s budget.
  // The stall is charged at the shard's frame receive and ECHOED in the
  // response, so the timeout runs on virtual time (real sleep is bounded).
  scope.fi.arm(FaultSpec{.site = "net.peer.stall",
                         .kind = FaultClass::kStall,
                         .count = 4,
                         .arg = 3000});
  const u64 slow_nonce = fresh_nonce();
  RouterReport rep;
  const auto results = cluster().router().process(
      std::vector{a.request(slow_nonce, msg_a),
                  b.request(fresh_nonce(), msg_b)},
      &rep);
  scope.disarm();

  EXPECT_GE(scope.fi.fired(FaultClass::kStall), 1u);
  EXPECT_EQ(results[0].status, RequestStatus::kTimedOut);
  EXPECT_TRUE(results[0].blocks.empty());
  ASSERT_TRUE(results[1].ok()) << results[1].error;
  EXPECT_EQ(decode_all(results[1]), msg_b);
  // Slowness is not death: the shard stays in the ring.
  EXPECT_TRUE(cluster().router().shard_alive(0));
  EXPECT_EQ(rep.faults.timed_out, 1u);
  expect_partition(rep);

  // Fail-safe direction: the slow shard DID record the nonce (its window
  // rode back in the response piggyback), so a retry is a replay — the
  // cluster never serves the same nonce twice, even under timeouts.
  const auto after = cluster().router().process(
      std::vector{a.request(slow_nonce, msg_a),
                  a.request(fresh_nonce(), msg_a)});
  EXPECT_EQ(after[0].status, RequestStatus::kNonceReplay);
  ASSERT_TRUE(after[1].ok()) << after[1].error;
}

TEST(NetFaultDirected, KilledShardRebalancesWithZeroReplayAcceptance) {
  cluster().revive_dead_shards();
  // Two tenants per shard.
  TestClient a1(pick_client_on(0, 400), 401);
  TestClient a2(pick_client_on(0, a1.id + 1), 402);
  TestClient b1(pick_client_on(1, 460), 403);
  TestClient b2(pick_client_on(1, b1.id + 1), 404);
  const std::vector<const TestClient*> clients{&a1, &a2, &b1, &b2};
  for (const TestClient* c : clients) onboard(*c);
  std::map<u64, std::vector<u64>> msg_by_client;
  for (const TestClient* c : clients) {
    msg_by_client[c->id] = random_msg(stack().config.pasta.t + c->id % 3, c->id);
  }

  // Wave 1: every nonce here is ACKNOWLEDGED kOk — these are exactly the
  // nonces replay safety must protect across the kill.
  std::map<u64, u64> acked;
  {
    std::vector<TranscipherRequest> wave;
    for (const TestClient* c : clients) {
      acked[c->id] = fresh_nonce();
      wave.push_back(c->request(acked[c->id], msg_by_client[c->id]));
    }
    const auto results = cluster().router().process(wave);
    for (const auto& res : results) ASSERT_TRUE(res.ok()) << res.error;
  }

  const std::size_t lost_before = cluster().router().shards_lost();
  const std::size_t reb_before = cluster().router().sessions_rebalanced();

  // Wave 2: shard 0 dies on frame arrival — no response, sessions gone.
  ShardArmed scope(0);
  scope.fi.arm(FaultSpec{.site = "shard.kill", .kind = FaultClass::kForce});
  {
    std::vector<TranscipherRequest> wave;
    for (const TestClient* c : clients) {
      wave.push_back(c->request(fresh_nonce(), msg_by_client[c->id]));
    }
    RouterReport rep;
    const auto results = cluster().router().process(wave, &rep);
    scope.disarm();
    EXPECT_EQ(scope.fi.fired(FaultClass::kForce), 1u);
    EXPECT_EQ(results[0].status, RequestStatus::kFailed);
    EXPECT_EQ(results[1].status, RequestStatus::kFailed);
    ASSERT_TRUE(results[2].ok()) << results[2].error;
    ASSERT_TRUE(results[3].ok()) << results[3].error;
    EXPECT_EQ(rep.faults.failed, 2u);
    EXPECT_EQ(rep.faults.ok, 2u);
    expect_partition(rep);
  }
  EXPECT_FALSE(cluster().router().shard_alive(0));
  EXPECT_EQ(cluster().router().shards_lost(), lost_before + 1);
  // The dead shard's sessions were restored onto the survivor from
  // serialized session state (enc(K) refetched from the key manager, nonce
  // windows from the response piggybacks).
  EXPECT_GE(cluster().router().sessions_rebalanced(), reb_before + 2);

  // Wave 3: replay EVERY acknowledged nonce at the survivor. Zero may be
  // accepted — the rebalanced windows must be as strict as the dead
  // shard's were.
  {
    std::vector<TranscipherRequest> wave;
    for (const TestClient* c : clients) {
      wave.push_back(c->request(acked[c->id], msg_by_client[c->id]));
    }
    RouterReport rep;
    const auto results = cluster().router().process(wave, &rep);
    for (const auto& res : results) {
      EXPECT_EQ(res.status, RequestStatus::kNonceReplay)
          << "client " << res.client_id << " nonce " << res.nonce
          << " replay was accepted after rebalance";
    }
    EXPECT_EQ(rep.faults.rejected, wave.size());
    expect_partition(rep);
  }

  // Wave 4: fresh traffic for every tenant flows on the survivor.
  {
    std::vector<TranscipherRequest> wave;
    for (const TestClient* c : clients) {
      wave.push_back(c->request(fresh_nonce(), msg_by_client[c->id]));
    }
    const auto results = cluster().router().process(wave);
    for (const auto& res : results) ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_EQ(decode_all(results[0]), msg_by_client[a1.id]);
  }

  // The supervisor restarts shard 0 EMPTY (a killed process lost
  // everything). Sessions reinstall from the router's cache — and the
  // acknowledged nonces still replay, even against the restarted shard.
  cluster().revive_dead_shards();
  ASSERT_TRUE(cluster().router().shard_alive(0));
  {
    const auto results = cluster().router().process(
        std::vector{a1.request(acked[a1.id], msg_by_client[a1.id]),
                    a1.request(fresh_nonce(), msg_by_client[a1.id])});
    EXPECT_EQ(results[0].status, RequestStatus::kNonceReplay);
    ASSERT_TRUE(results[1].ok()) << results[1].error;
    EXPECT_EQ(decode_all(results[1]), msg_by_client[a1.id]);
  }
}

// ---------------------------------------------------------------------------
// The seeded cross-process chaos sweep. Reproduce a failure with
// POE_FAULT_SEED=<seed>; POE_FAULT_SCHEDULES controls sweep length.
// ---------------------------------------------------------------------------

constexpr FaultInjector::MenuEntry kNetSweepMenu[] = {
    {"net.frame.torn", FaultClass::kForce},
    {"net.peer.stall", FaultClass::kStall},
    {"shard.kill", FaultClass::kForce},
    {"service.prepare", FaultClass::kThrow},
    {"service.evaluate", FaultClass::kThrow},
    {"service.prepare.stall", FaultClass::kStall},
    {"service.evaluate.stall", FaultClass::kStall},
    {"pool.acquire", FaultClass::kAllocFail},
};

TEST(NetFaultSweep, RandomScheduleSweep) {
  cluster().revive_dead_shards();
  const u64 base_seed = env_u64("POE_FAULT_SEED", 20260808);
  const u64 schedules = env_u64("POE_FAULT_SCHEDULES", 3);
  RecordProperty("poe_fault_seed", std::to_string(base_seed));

  std::vector<TestClient> clients;
  for (u64 c = 0; c < 4; ++c) clients.emplace_back(600 + 7 * c, 601 + c);
  for (const TestClient& c : clients) onboard(c);

  u64 total_fired = 0;
  for (u64 s = 0; s < schedules; ++s) {
    SCOPED_TRACE("schedule seed " + std::to_string(base_seed + s));
    FaultInjector fi(base_seed + s);
    for (auto& spec :
         FaultInjector::random_schedule(base_seed + s, kNetSweepMenu, 3)) {
      fi.arm(std::move(spec));
    }
    cluster().set_fault_injector(&fi);

    std::map<u64, std::vector<u64>> expected;
    std::vector<TranscipherRequest> wave;
    for (const TestClient& c : clients) {
      for (int j = 0; j < 2; ++j) {
        const u64 nonce = fresh_nonce();
        expected[nonce] = random_msg(stack().config.pasta.t + nonce % 4,
                                     9000 + nonce);
        wave.push_back(c.request(nonce, expected[nonce]));
      }
    }
    // The headline promise, extended across the process boundary: whatever
    // the schedule does to frames, peers and shards, process() returns one
    // typed result per request — never an escaped exception, never a
    // crash, never a wrong answer for a surviving request.
    RouterReport rep;
    const auto results = cluster().router().process(wave, &rep);
    cluster().set_fault_injector(nullptr);
    total_fired += fi.fired_total();

    ASSERT_EQ(results.size(), wave.size());
    expect_partition(rep);
    for (std::size_t r = 0; r < results.size(); ++r) {
      const auto& res = results[r];
      EXPECT_STRNE(service::to_string(res.status), "?");
      if (res.ok()) {
        EXPECT_EQ(decode_all(res), expected[res.nonce]) << "request " << r;
      } else {
        EXPECT_TRUE(res.blocks.empty());
        EXPECT_FALSE(res.error.empty());
      }
    }

    // Full recovery once the chaos stops: revive whatever died and serve
    // fresh nonces for every tenant.
    cluster().revive_dead_shards();
    std::vector<TranscipherRequest> after_wave;
    std::map<u64, std::vector<u64>> after_expected;
    for (const TestClient& c : clients) {
      const u64 nonce = fresh_nonce();
      after_expected[nonce] = random_msg(4, 9500 + nonce);
      after_wave.push_back(c.request(nonce, after_expected[nonce]));
    }
    const auto after = cluster().router().process(after_wave);
    for (const auto& res : after) {
      ASSERT_TRUE(res.ok()) << res.error;
      EXPECT_EQ(decode_all(res), after_expected[res.nonce]);
    }
  }
  EXPECT_GT(total_fired, 0u);
}

}  // namespace
}  // namespace poe::net
