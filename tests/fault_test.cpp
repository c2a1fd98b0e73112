// Chaos harness for the transcipher service (ctest label: chaos).
//
// Directed tests arm one fault class at a time — allocation failure, stage
// exceptions, virtual-time stalls, key corruption, wire truncation — and pin
// the exact degradation the robustness layer promises: recovery via bounded
// retry, or a typed per-request status; never an escaped exception, never
// collateral damage to a healthy tenant.
//
// RandomScheduleSweep then drives seeded random fault schedules through the
// full service and checks invariants only (the status partition,
// bit-identical outputs for surviving requests against a fault-free
// baseline, full recovery after disarm): its menu includes pool.acquire,
// which pool workers visit in an order that varies run to run, so exact
// outcomes are not reproducible and invariants must hold for every seed. SeededScheduleReplaysExactly restricts the menu
// to the service.* sites, which process() visits from the caller's thread
// only, and holds the replay promise: the same seed gives the same outcome.
// Reproduce a failed sweep with POE_FAULT_SEED (see docs/TESTING.md);
// POE_FAULT_SCHEDULES lengthens the sweep for the nightly CI job.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/fault.hpp"
#include "common/rng.hpp"
#include "fhe/serialize.hpp"
#include "hhe/batched_server.hpp"
#include "service/service.hpp"

namespace poe::service {
namespace {

using u64 = std::uint64_t;

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

TranscipherService make_service(ServiceConfig cfg = {}) {
  return TranscipherService(stack().config, stack().bgv, cfg, stack().keys);
}

// Registers the injector on the shared ExecContext for the test's scope;
// tests arm faults only AFTER session onboarding so they land in process().
struct ArmedScope {
  FaultInjector fi;
  explicit ArmedScope(u64 seed = 0) : fi(seed) {
    stack().bgv.rns().exec().set_fault_injector(&fi);
  }
  ~ArmedScope() { stack().bgv.rns().exec().set_fault_injector(nullptr); }
  void disarm() { stack().bgv.rns().exec().set_fault_injector(nullptr); }
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

std::vector<std::vector<std::uint8_t>> wire_blocks(
    const TranscipherResult& result) {
  std::vector<std::vector<std::uint8_t>> out;
  for (const auto& block : result.blocks) {
    out.push_back(fhe::serialize_ciphertext(stack().bgv.rns(), *block.ct));
  }
  return out;
}

// process() visits every service.* site from the caller's thread, so per-site
// arrival order is exactly the batch order and "which batch eats the fault"
// is deterministic.
ServiceConfig directed_cfg() {
  ServiceConfig cfg;
  cfg.max_stage_attempts = 3;
  cfg.backoff_base_s = 1e-4;
  return cfg;
}

void expect_partition(const ServiceReport& rep) {
  EXPECT_EQ(rep.faults.ok + rep.faults.rejected + rep.faults.shed +
                rep.faults.quarantined + rep.faults.timed_out +
                rep.faults.failed,
            rep.requests);
}

TEST(FaultDirected, AllocationFailureRecoversViaRetry) {
  auto service = make_service(directed_cfg());
  TestClient client(1, 101);
  ASSERT_TRUE(service.open_session_wire(client.id, client.key_wire()));
  const auto msg = random_msg(stack().config.pasta.t + 3, 102);

  ArmedScope scope(1);
  scope.fi.arm(FaultSpec{.site = "pool.acquire",
                         .kind = FaultClass::kAllocFail});
  ServiceReport rep;
  const auto results =
      service.process(std::vector{client.request(1, msg)}, &rep);
  scope.disarm();

  ASSERT_TRUE(results[0].ok()) << results[0].error;
  EXPECT_EQ(decode_all(results[0]), msg);
  EXPECT_EQ(rep.faults.injected, 1u);
  EXPECT_GE(rep.faults.retries, 1u);
  EXPECT_GE(rep.faults.recovered_batches, 1u);
  EXPECT_EQ(scope.fi.fired(FaultClass::kAllocFail), 1u);
  expect_partition(rep);
}

TEST(FaultDirected, HoistScratchAllocFailureRecoversViaRetry) {
  // The scratch lease inside Bgv::rotate_hoisted_into fails mid-diagonal-
  // loop (the site fires on the first k != 0 rotation of the first affine
  // layer, after the accumulator and the k = 0 term are already built).
  // The evaluate stage must surface it as a typed stage failure and
  // recover on retry — no UB from the half-filled accumulator, no torn
  // scratch left leased in the bank.
  auto service = make_service(directed_cfg());
  TestClient client(21, 121);
  ASSERT_TRUE(service.open_session_wire(client.id, client.key_wire()));
  const auto msg = random_msg(stack().config.pasta.t + 2, 122);

  ArmedScope scope(2);
  scope.fi.arm(FaultSpec{.site = "fhe.hoist.scratch.alloc_fail",
                         .kind = FaultClass::kAllocFail});
  ServiceReport rep;
  const auto results =
      service.process(std::vector{client.request(1, msg)}, &rep);
  scope.disarm();

  ASSERT_TRUE(results[0].ok()) << results[0].error;
  EXPECT_EQ(decode_all(results[0]), msg);
  EXPECT_EQ(rep.faults.injected, 1u);
  EXPECT_GE(rep.faults.retries, 1u);
  EXPECT_GE(rep.faults.recovered_batches, 1u);
  EXPECT_EQ(scope.fi.fired(FaultClass::kAllocFail), 1u);
  expect_partition(rep);
}

TEST(FaultDirected, HoistScratchAllocFailureExhaustsToTypedFailure) {
  // Every attempt's lease fails: the batch must degrade to kFailed with a
  // descriptive error — a typed terminal status, never an escaped
  // exception or a crash on the partially-accumulated state.
  auto service = make_service(directed_cfg());
  TestClient client(22, 123);
  ASSERT_TRUE(service.open_session_wire(client.id, client.key_wire()));
  const auto msg = random_msg(3, 124);

  ArmedScope scope(3);
  scope.fi.arm(FaultSpec{.site = "fhe.hoist.scratch.alloc_fail",
                         .kind = FaultClass::kAllocFail,
                         .count = 3});
  ServiceReport rep;
  const auto results =
      service.process(std::vector{client.request(1, msg)}, &rep);
  scope.disarm();

  EXPECT_EQ(results[0].status, RequestStatus::kFailed);
  EXPECT_FALSE(results[0].error.empty());
  EXPECT_TRUE(results[0].blocks.empty());
  EXPECT_EQ(rep.faults.failed, 1u);
  EXPECT_EQ(rep.faults.injected, 3u);
  EXPECT_EQ(rep.faults.retries, 2u);
  expect_partition(rep);

  // The bank must be clean after the failures: a fault-free call succeeds.
  const auto retry = service.process(std::vector{client.request(2, msg)});
  ASSERT_TRUE(retry[0].ok()) << retry[0].error;
  EXPECT_EQ(decode_all(retry[0]), msg);
}

TEST(FaultDirected, PrepareThrowRecoversViaRetry) {
  auto service = make_service(directed_cfg());
  TestClient client(2, 103);
  ASSERT_TRUE(service.open_session_wire(client.id, client.key_wire()));
  const auto msg = random_msg(4, 104);

  ArmedScope scope;
  scope.fi.arm(FaultSpec{.site = "service.prepare"});
  ServiceReport rep;
  const auto results =
      service.process(std::vector{client.request(1, msg)}, &rep);
  scope.disarm();

  ASSERT_TRUE(results[0].ok()) << results[0].error;
  EXPECT_EQ(decode_all(results[0]), msg);
  EXPECT_EQ(rep.faults.retries, 1u);
  EXPECT_EQ(rep.faults.recovered_batches, 1u);
  EXPECT_EQ(rep.faults.injected, 1u);
  EXPECT_EQ(scope.fi.arrivals("service.prepare"), 2u);  // fault + retry
}

TEST(FaultDirected, EvaluateFaultExhaustsToTypedFailure) {
  // One block per batch: this test pins BATCH-granularity blast radius, so
  // keep the two clients out of one packed batch.
  auto cfg = directed_cfg();
  cfg.max_batch_blocks = 1;
  auto service = make_service(cfg);
  TestClient doomed(3, 105), healthy(4, 106);
  ASSERT_TRUE(service.open_session_wire(doomed.id, doomed.key_wire()));
  ASSERT_TRUE(service.open_session_wire(healthy.id, healthy.key_wire()));
  const auto msg_d = random_msg(3, 107);
  const auto msg_h = random_msg(5, 108);

  // Fire on every attempt of the FIRST batch (arrivals 0..2 = 3 attempts);
  // the second client's batch starts at arrival 3 and runs clean.
  ArmedScope scope;
  scope.fi.arm(FaultSpec{.site = "service.evaluate", .count = 3});
  ServiceReport rep;
  const auto results = service.process(
      std::vector{doomed.request(1, msg_d), healthy.request(1, msg_h)}, &rep);
  scope.disarm();

  EXPECT_EQ(results[0].status, RequestStatus::kFailed);
  EXPECT_FALSE(results[0].error.empty());
  EXPECT_TRUE(results[0].blocks.empty());
  ASSERT_TRUE(results[1].ok()) << results[1].error;
  EXPECT_EQ(decode_all(results[1]), msg_h);
  EXPECT_EQ(rep.faults.failed, 1u);
  EXPECT_EQ(rep.faults.ok, 1u);
  EXPECT_EQ(rep.faults.retries, 2u);  // attempts 2 and 3 of the doomed batch
  EXPECT_EQ(rep.faults.injected, 3u);
  expect_partition(rep);
}

TEST(FaultDirected, StallTimeoutRetriesThenRecovers) {
  auto cfg = directed_cfg();
  cfg.stage_timeout_s = 2.0;  // generous for sanitizer builds; the injected
                              // stall below charges well past it regardless
  auto service = make_service(cfg);
  TestClient client(5, 109);
  ASSERT_TRUE(service.open_session_wire(client.id, client.key_wire()));
  const auto msg = random_msg(4, 110);

  // Charge 4 s of virtual time to the first evaluate attempt: over the 2 s
  // stage timeout, so it retries — but the injector only sleeps a bounded
  // real slice, so this test is fast.
  ArmedScope scope;
  scope.fi.arm(FaultSpec{.site = "service.evaluate.stall",
                         .kind = FaultClass::kStall,
                         .arg = 4000});
  ServiceReport rep;
  const auto results =
      service.process(std::vector{client.request(1, msg)}, &rep);
  scope.disarm();

  ASSERT_TRUE(results[0].ok()) << results[0].error;
  EXPECT_EQ(decode_all(results[0]), msg);
  EXPECT_EQ(rep.faults.stage_timeouts, 1u);
  EXPECT_EQ(rep.faults.retries, 1u);
  EXPECT_EQ(rep.faults.recovered_batches, 1u);
  EXPECT_EQ(scope.fi.fired(FaultClass::kStall), 1u);
}

TEST(FaultDirected, PersistentStallDegradesToTimedOut) {
  auto cfg = directed_cfg();
  cfg.stage_timeout_s = 2.0;
  cfg.max_batch_blocks = 1;  // batch-granularity test: one block per batch
  auto service = make_service(cfg);
  TestClient slow(6, 111), healthy(7, 112);
  ASSERT_TRUE(service.open_session_wire(slow.id, slow.key_wire()));
  ASSERT_TRUE(service.open_session_wire(healthy.id, healthy.key_wire()));
  const auto msg_s = random_msg(3, 113);
  const auto msg_h = random_msg(3, 114);

  ArmedScope scope;
  scope.fi.arm(FaultSpec{.site = "service.evaluate.stall",
                         .kind = FaultClass::kStall,
                         .count = 3,  // every attempt of the first batch
                         .arg = 4000});
  ServiceReport rep;
  const auto results = service.process(
      std::vector{slow.request(1, msg_s), healthy.request(1, msg_h)}, &rep);
  scope.disarm();

  EXPECT_EQ(results[0].status, RequestStatus::kTimedOut);
  EXPECT_TRUE(results[0].blocks.empty());
  ASSERT_TRUE(results[1].ok()) << results[1].error;
  EXPECT_EQ(decode_all(results[1]), msg_h);
  EXPECT_EQ(rep.faults.timed_out, 1u);
  EXPECT_EQ(rep.faults.stage_timeouts, 3u);
  expect_partition(rep);
}

TEST(FaultDirected, CorruptKeyQuarantinedThenReOnboardRestores) {
  auto service = make_service(directed_cfg());
  TestClient poisoned(10, 119), healthy(11, 120);
  const auto key_wire = poisoned.key_wire();
  ASSERT_TRUE(service.open_session_wire(poisoned.id, key_wire));
  ASSERT_TRUE(service.open_session_wire(healthy.id, healthy.key_wire()));
  const auto msg_p = random_msg(3, 121);
  const auto msg_h = random_msg(3, 122);

  ArmedScope scope(7);
  scope.fi.arm(FaultSpec{.site = "service.key.corrupt",
                         .kind = FaultClass::kCorrupt,
                         .arg = 4});
  ServiceReport rep;
  const auto results = service.process(
      std::vector{poisoned.request(1, msg_p), healthy.request(1, msg_h)},
      &rep);
  scope.disarm();

  // The corrupted session key fails the decrypt-free plausibility check;
  // its batch is quarantined before any evaluation, batchmates run clean.
  EXPECT_EQ(results[0].status, RequestStatus::kQuarantined);
  EXPECT_FALSE(results[0].error.empty());
  ASSERT_TRUE(results[1].ok()) << results[1].error;
  EXPECT_EQ(decode_all(results[1]), msg_h);
  EXPECT_EQ(rep.faults.quarantined, 1u);
  EXPECT_EQ(scope.fi.fired(FaultClass::kCorrupt), 1u);
  expect_partition(rep);

  // Quarantine is recoverable: a fresh key upload re-onboards the client
  // and the same message (fresh nonce) transciphers correctly.
  ASSERT_TRUE(service.open_session_wire(poisoned.id, key_wire));
  const auto again = service.process(std::vector{poisoned.request(2, msg_p)});
  ASSERT_TRUE(again[0].ok()) << again[0].error;
  EXPECT_EQ(decode_all(again[0]), msg_p);
}

TEST(FaultDirected, PackedPoisonMidPackQuarantinesOnlyThatTenant) {
  // Cross-tenant packing blast radius: three tenants share ONE packed
  // batch; the key of the SECOND tenant is poisoned mid-pack (the
  // service.pack.key.corrupt site only exists for multi-tenant batches,
  // `after = 1` skips the first tenant's arrival). Only that tenant may
  // degrade — the co-packed tenants must decode bit-identical to a
  // fault-free run of the same requests.
  auto service = make_service(directed_cfg());
  std::vector<TestClient> tenants;
  std::vector<std::vector<u64>> msgs;
  std::vector<TranscipherRequest> reqs;
  for (u64 c = 0; c < 3; ++c) {
    tenants.emplace_back(40 + c, 500 + c);
    ASSERT_TRUE(
        service.open_session_wire(tenants[c].id, tenants[c].key_wire()));
    msgs.push_back(random_msg(3, 600 + c));
    reqs.push_back(tenants[c].request(1, msgs[c]));
  }

  ArmedScope scope(11);
  scope.fi.arm(FaultSpec{.site = "service.pack.key.corrupt",
                         .kind = FaultClass::kCorrupt,
                         .after = 1,
                         .arg = 4});
  ServiceReport rep;
  const auto results = service.process(reqs, &rep);
  scope.disarm();

  ASSERT_EQ(rep.batches, 1u);  // all three tenants packed into one batch
  EXPECT_EQ(rep.cross_tenant_batches, 1u);
  EXPECT_EQ(results[1].status, RequestStatus::kQuarantined);
  EXPECT_TRUE(results[1].blocks.empty());
  ASSERT_TRUE(results[0].ok()) << results[0].error;
  ASSERT_TRUE(results[2].ok()) << results[2].error;
  EXPECT_EQ(decode_all(results[0]), msgs[0]);
  EXPECT_EQ(decode_all(results[2]), msgs[2]);
  EXPECT_EQ(rep.faults.quarantined, 1u);
  EXPECT_EQ(rep.faults.ok, 2u);
  EXPECT_EQ(scope.fi.fired(FaultClass::kCorrupt), 1u);
  expect_partition(rep);

  // Containment is also recoverable: a fresh key upload restores the
  // poisoned tenant on the same service instance.
  ASSERT_TRUE(service.open_session_wire(tenants[1].id, tenants[1].key_wire()));
  const auto again = service.process(std::vector{tenants[1].request(2, msgs[1])});
  ASSERT_TRUE(again[0].ok()) << again[0].error;
  EXPECT_EQ(decode_all(again[0]), msgs[1]);
}

TEST(FaultDirected, TruncatedWireUploadRejected) {
  auto service = make_service();
  TestClient client(12, 123);
  const auto wire = client.key_wire();

  ArmedScope scope;
  scope.fi.arm(
      FaultSpec{.site = "service.wire.truncate", .kind = FaultClass::kForce});
  std::string error;
  EXPECT_FALSE(service.open_session_wire(client.id, wire, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(service.has_session(client.id));
  scope.disarm();

  // The identical bytes are accepted once the uplink stops truncating.
  ASSERT_TRUE(service.open_session_wire(client.id, wire, &error)) << error;
  const auto msg = random_msg(3, 124);
  const auto results = service.process(std::vector{client.request(1, msg)});
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(decode_all(results[0]), msg);
}

TEST(FaultDirected, UnarmedInjectorIsInvisible) {
  // A registered injector with nothing armed must not change behaviour —
  // it only counts arrivals (this is the instrumented-but-quiet fast path
  // every production build runs one pointer-load away from).
  auto service = make_service(directed_cfg());
  TestClient client(13, 125);
  ASSERT_TRUE(service.open_session_wire(client.id, client.key_wire()));
  const auto msg = random_msg(4, 126);

  ArmedScope scope;
  ServiceReport rep;
  const auto results =
      service.process(std::vector{client.request(1, msg)}, &rep);
  scope.disarm();

  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(decode_all(results[0]), msg);
  EXPECT_EQ(rep.faults.injected, 0u);
  EXPECT_EQ(scope.fi.fired_total(), 0u);
  EXPECT_GE(scope.fi.arrivals("service.prepare"), 1u);
  EXPECT_GE(scope.fi.arrivals("service.evaluate"), 1u);
  EXPECT_GE(scope.fi.arrivals("pool.acquire"), 1u);
}

// ---------------------------------------------------------------------------
// The seeded chaos sweep: random fault schedules through the full service.
// Reproduce a failure with POE_FAULT_SEED=<seed>; POE_FAULT_SCHEDULES
// controls sweep length (nightly CI runs a long sweep).
// ---------------------------------------------------------------------------

constexpr FaultInjector::MenuEntry kSweepMenu[] = {
    {"pool.acquire", FaultClass::kAllocFail},
    {"fhe.hoist.scratch.alloc_fail", FaultClass::kAllocFail},
    {"service.prepare", FaultClass::kThrow},
    {"service.prepare.stall", FaultClass::kStall},
    {"service.evaluate", FaultClass::kThrow},
    {"service.evaluate.stall", FaultClass::kStall},
    {"service.key.corrupt", FaultClass::kCorrupt},
    {"service.pack.key.corrupt", FaultClass::kCorrupt},
};

u64 env_u64(const char* name, u64 fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 10) : fallback;
}

ServiceConfig sweep_cfg() {
  ServiceConfig cfg;
  cfg.max_stage_attempts = 3;
  cfg.backoff_base_s = 1e-4;
  cfg.stage_timeout_s = 2.0;
  // Small batches force SEVERAL cross-tenant packed batches per call, so
  // every site (including the per-tenant pack sites) gets enough arrivals
  // for the schedules' random arrival windows.
  cfg.max_batch_blocks = 4;
  return cfg;
}

// Three tenants with fixed keys and messages, shared by the sweep and the
// replay test.
struct SweepWorkload {
  std::vector<TestClient> clients;
  std::vector<std::vector<std::uint8_t>> key_wires;
  std::vector<std::vector<u64>> msgs;

  SweepWorkload() {
    for (u64 c = 0; c < 3; ++c) {
      clients.emplace_back(30 + c, 300 + c);
      key_wires.push_back(clients.back().key_wire());
      msgs.push_back(random_msg(stack().config.pasta.t + 2 * c + 1, 400 + c));
    }
  }

  /// A fresh service with every tenant onboarded from the same key bytes.
  TranscipherService onboarded_service() const {
    auto service = make_service(sweep_cfg());
    for (std::size_t c = 0; c < clients.size(); ++c) {
      EXPECT_TRUE(service.open_session_wire(clients[c].id, key_wires[c]));
    }
    return service;
  }

  std::vector<TranscipherRequest> requests_with_nonce(u64 nonce) const {
    std::vector<TranscipherRequest> reqs;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      reqs.push_back(clients[c].request(nonce, msgs[c]));
    }
    return reqs;
  }

  // Two waves of interleaved tenants per call: 12 blocks over 3 batches of
  // 4 tiles, every batch packing two tenants.
  std::vector<TranscipherRequest> two_wave_requests(u64 nonce) const {
    auto reqs = requests_with_nonce(nonce);
    const auto wave2 = requests_with_nonce(nonce + 1);
    reqs.insert(reqs.end(), wave2.begin(), wave2.end());
    return reqs;
  }
};

TEST(FaultSweep, RandomScheduleSweep) {
  // ≥ 6 instrumented sites across ≥ 4 fault classes go through the sweep.
  ASSERT_GE(std::size(kSweepMenu), 6u);

  const u64 base_seed = env_u64("POE_FAULT_SEED", 20260805);
  const u64 schedules = env_u64("POE_FAULT_SCHEDULES", 4);
  RecordProperty("poe_fault_seed", std::to_string(base_seed));

  const SweepWorkload w;
  const auto& clients = w.clients;
  const auto& msgs = w.msgs;

  // Fault-free baseline: the bit-exact outputs every surviving request of
  // every fault run must reproduce (same nonce, same key upload bytes).
  std::vector<std::vector<std::vector<std::uint8_t>>> baseline;
  {
    auto service = w.onboarded_service();
    const auto results = service.process(w.two_wave_requests(1));
    for (std::size_t r = 0; r < results.size(); ++r) {
      ASSERT_TRUE(results[r].ok()) << results[r].error;
      ASSERT_EQ(decode_all(results[r]), msgs[r % clients.size()]);
      baseline.push_back(wire_blocks(results[r]));
    }
  }

  u64 total_fired = 0;
  for (u64 s = 0; s < schedules; ++s) {
    SCOPED_TRACE("schedule seed " + std::to_string(base_seed + s));
    auto service = w.onboarded_service();

    ArmedScope scope(base_seed + s);
    for (auto& spec :
         FaultInjector::random_schedule(base_seed + s, kSweepMenu, 3)) {
      scope.fi.arm(std::move(spec));
    }
    ServiceReport rep;
    // The headline promise: whatever the schedule does, process() returns —
    // every injected fault recovers or degrades to a typed status.
    const auto results = service.process(w.two_wave_requests(1), &rep);
    scope.disarm();
    total_fired += scope.fi.fired_total();

    expect_partition(rep);
    EXPECT_EQ(rep.faults.injected, scope.fi.fired_total());
    ASSERT_EQ(results.size(), 2 * clients.size());
    for (std::size_t c = 0; c < results.size(); ++c) {
      const auto& res = results[c];
      EXPECT_STRNE(to_string(res.status), "?");
      if (res.ok()) {
        // A tenant that survived a chaotic run decodes bit-identical to the
        // fault-free run — degraded neighbours must not perturb it.
        EXPECT_EQ(decode_all(res), msgs[c % clients.size()]) << "request " << c;
        // Ciphertext BYTES only match when no tenant was quarantined: a
        // quarantine removes that tenant from the batch's merged key, so
        // the survivors' ciphertexts differ while their decoded slots stay
        // exactly equal (the keystream circuit is tile-local).
        if (rep.faults.quarantined == 0) {
          EXPECT_EQ(wire_blocks(res), baseline[c]) << "client " << c;
        }
      } else {
        EXPECT_TRUE(res.blocks.empty());
        EXPECT_FALSE(res.error.empty());
      }
    }

    // Full recovery once the chaos stops: re-onboard every client (a
    // schedule may have poisoned a cached session key) and serve fresh
    // nonces on the SAME service instance.
    for (std::size_t c = 0; c < clients.size(); ++c) {
      ASSERT_TRUE(service.open_session_wire(clients[c].id, w.key_wires[c]));
    }
    const auto after = service.process(w.requests_with_nonce(100 + s));
    for (std::size_t c = 0; c < clients.size(); ++c) {
      ASSERT_TRUE(after[c].ok()) << after[c].error;
      EXPECT_EQ(decode_all(after[c]), msgs[c]);
    }
  }
  // A sweep that never fires is not sweeping; with 3 faults per schedule and
  // small arrival windows this holds for any seed in practice.
  EXPECT_GT(total_fired, 0u);
}

// The replay promise (docs/TESTING.md): a failed seed reproduces. Each
// schedule runs twice, on two fresh services with the same key uploads, and
// must give the same per-request statuses, FaultStats and per-site fire
// counts. Only the service.* sites are armed: process() visits them from the
// caller's thread, while pool.acquire is visited from pool workers in an
// order no seed controls.
TEST(FaultSweep, SeededScheduleReplaysExactly) {
  std::vector<FaultInjector::MenuEntry> menu;
  for (const auto& entry : kSweepMenu) {
    if (entry.site.starts_with("service.")) menu.push_back(entry);
  }
  ASSERT_GE(menu.size(), 6u);

  const u64 base_seed = env_u64("POE_FAULT_SEED", 20260805);
  const u64 schedules = env_u64("POE_FAULT_SCHEDULES", 4);
  const SweepWorkload w;

  struct Run {
    std::vector<RequestStatus> statuses;
    FaultStats faults;
    std::map<std::string, std::uint64_t> fired_by_site;
  };
  auto run = [&](u64 seed) {
    auto service = w.onboarded_service();
    ArmedScope scope(seed);
    for (auto& spec : FaultInjector::random_schedule(seed, menu, 3)) {
      scope.fi.arm(std::move(spec));
    }
    ServiceReport rep;
    const auto results = service.process(w.two_wave_requests(1), &rep);
    scope.disarm();
    Run out;
    for (const auto& res : results) out.statuses.push_back(res.status);
    out.faults = rep.faults;
    out.fired_by_site = scope.fi.fired_by_site();
    return out;
  };
  auto fields = [](const FaultStats& f) {
    return std::tuple(f.ok, f.rejected, f.shed, f.quarantined, f.timed_out,
                      f.failed, f.retries, f.stage_timeouts,
                      f.recovered_batches, f.injected);
  };

  u64 total_fired = 0;
  for (u64 s = 0; s < schedules; ++s) {
    const u64 seed = base_seed + s;
    SCOPED_TRACE("schedule seed " + std::to_string(seed));
    const Run first = run(seed);
    const Run replay = run(seed);
    EXPECT_EQ(first.statuses, replay.statuses);
    EXPECT_EQ(fields(first.faults), fields(replay.faults));
    EXPECT_EQ(first.fired_by_site, replay.fired_by_site);
    total_fired += first.faults.injected;
  }
  EXPECT_GT(total_fired, 0u);
}

}  // namespace
}  // namespace poe::service
