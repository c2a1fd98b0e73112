#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/fault.hpp"
#include "common/rng.hpp"
#include "fhe/serialize.hpp"
#include "hhe/batched_server.hpp"
#include "service/service.hpp"

namespace poe::service {
namespace {

using u64 = std::uint64_t;

// The BGV evaluator and rotation keys dominate setup time, so every test
// shares one stack (the service's shared-keys constructor exists for exactly
// this: keys depend on the BGV secret key only, not on any client).
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

  fhe::Ciphertext encrypted_key() const {
    return hhe::encrypt_key_batched(stack().config, stack().bgv,
                                    stack().encoder, stack().layout, key);
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

// The serialized bytes of every block's batch ciphertext, in request order —
// the strongest "same output" comparison two runs can be held to.
std::vector<std::vector<std::uint8_t>> wire_blocks(
    const TranscipherResult& result) {
  std::vector<std::vector<std::uint8_t>> out;
  for (const auto& block : result.blocks) {
    out.push_back(fhe::serialize_ciphertext(stack().bgv.rns(), *block.ct));
  }
  return out;
}

TEST(TranscipherServiceTest, RoundTripMultiBlockMessage) {
  auto service = make_service();
  TestClient client(1, 11);
  service.open_session(client.id, client.encrypted_key());
  ASSERT_TRUE(service.has_session(client.id));

  const auto msg = random_msg(2 * stack().config.pasta.t + 3, 12);
  const std::vector<TranscipherRequest> reqs{client.request(77, msg)};
  ServiceReport report;
  const auto results = service.process(reqs, &report);

  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok());
  ASSERT_EQ(results[0].blocks.size(), 3u);
  EXPECT_EQ(decode_all(results[0]), msg);

  EXPECT_EQ(report.requests, 1u);
  EXPECT_EQ(report.blocks, 3u);
  EXPECT_EQ(report.batches, 1u);  // one client: blocks coalesce
  EXPECT_GT(report.avg_batch_occupancy, 0.0);
  EXPECT_LE(report.avg_batch_occupancy, 1.0);
  EXPECT_GT(report.total_s, 0.0);
  EXPECT_GT(report.blocks_per_s, 0.0);
  EXPECT_GT(report.min_noise_budget_bits, 0.0);
  ASSERT_EQ(report.request_latency_s.size(), 1u);
  EXPECT_GT(report.request_latency_s[0], 0.0);
  EXPECT_LE(report.request_latency_s[0], report.total_s);
  EXPECT_GT(report.exec_ops.ct_ct_mul, 0u);
  EXPECT_GT(report.exec_ops.ntt_forward, 0u);
  // Fault-free run: every robustness counter is quiet.
  EXPECT_EQ(report.faults.ok, 1u);
  EXPECT_EQ(report.faults.retries, 0u);
  EXPECT_EQ(report.faults.injected, 0u);
}

TEST(TranscipherServiceTest, CoalescesRequestsOfOneClient) {
  auto service = make_service();
  TestClient client(2, 21);
  service.open_session(client.id, client.encrypted_key());

  const auto msg_a = random_msg(stack().config.pasta.t, 22);
  const auto msg_b = random_msg(stack().config.pasta.t + 1, 23);
  const std::vector<TranscipherRequest> reqs{client.request(1, msg_a),
                                             client.request(2, msg_b)};
  ServiceReport report;
  const auto results = service.process(reqs, &report);

  EXPECT_EQ(report.blocks, 3u);
  EXPECT_EQ(report.batches, 1u);  // both requests share one SIMD batch
  EXPECT_EQ(decode_all(results[0]), msg_a);
  EXPECT_EQ(decode_all(results[1]), msg_b);
}

TEST(TranscipherServiceTest, ClientsShareOnePackedBatchWithIsolation) {
  auto service = make_service();
  TestClient alice(3, 31), bob(4, 41);
  service.open_session(alice.id, alice.encrypted_key());
  service.open_session(bob.id, bob.encrypted_key());

  const auto msg_a = random_msg(5, 32);
  const auto msg_b = random_msg(7, 42);
  const std::vector<TranscipherRequest> reqs{alice.request(9, msg_a),
                                             bob.request(9, msg_b)};
  ServiceReport report;
  const auto results = service.process(reqs, &report);

  // Different clients, distinct PASTA keys, ONE batch: each tenant's key is
  // masked into its own tile of the merged key ciphertext.
  EXPECT_EQ(report.batches, 1u);
  EXPECT_EQ(report.cross_tenant_batches, 1u);
  EXPECT_EQ(decode_all(results[0]), msg_a);
  EXPECT_EQ(decode_all(results[1]), msg_b);

  // Isolation boundary: the ciphertext handed to alice is a masked
  // extraction — bob's tile (tile 1 of the shared batch) decodes to all
  // zeros from alice's ciphertext, and vice versa.
  const std::size_t t = stack().config.pasta.t;
  const std::vector<u64> zeros(t, 0);
  EXPECT_EQ(hhe::SimdBatchEngine::decode_block(stack().config, stack().bgv,
                                               *results[0].blocks[0].ct,
                                               /*tile=*/1, t),
            zeros);
  EXPECT_EQ(hhe::SimdBatchEngine::decode_block(stack().config, stack().bgv,
                                               *results[1].blocks[0].ct,
                                               /*tile=*/0, t),
            zeros);
}

TEST(TranscipherServiceTest, PackedFlushCausesReported) {
  // Two tiles per batch, three blocks from two interleaved tenants: the
  // first batch flushes FULL, the leftover block flushes at DRAIN.
  auto service = make_service(ServiceConfig{.max_batch_blocks = 2});
  TestClient alice(32, 35), bob(33, 45);
  service.open_session(alice.id, alice.encrypted_key());
  service.open_session(bob.id, bob.encrypted_key());

  const auto msg_1 = random_msg(3, 36);   // 1 block
  const auto msg_2 = random_msg(4, 46);   // 1 block
  const auto msg_3 = random_msg(5, 47);   // 1 block
  ServiceReport report;
  const auto results = service.process(
      std::vector{alice.request(1, msg_1), bob.request(1, msg_2),
                  alice.request(2, msg_3)},
      &report);

  EXPECT_EQ(report.batches, 2u);
  EXPECT_EQ(report.full_flushes, 1u);
  EXPECT_EQ(report.drain_flushes, 1u);
  EXPECT_EQ(report.cross_tenant_batches, 1u);  // the full alice+bob batch
  EXPECT_DOUBLE_EQ(report.avg_batch_occupancy, 0.75);  // (2/2 + 1/2) / 2
  EXPECT_GE(report.max_batch_wait_s, 0.0);
  EXPECT_EQ(decode_all(results[0]), msg_1);
  EXPECT_EQ(decode_all(results[1]), msg_2);
  EXPECT_EQ(decode_all(results[2]), msg_3);
}

TEST(TranscipherServiceTest, InterleavedTenantNonceReplayIsPerTenant) {
  // Replay tracking must be per-TENANT, not per-batch: two tenants may use
  // the same nonce value in one packed batch, and a replay is detected for
  // the right tenant regardless of interleaved submission order.
  auto service = make_service();
  TestClient alice(34, 37), bob(35, 48);
  service.open_session(alice.id, alice.encrypted_key());
  service.open_session(bob.id, bob.encrypted_key());
  const auto msg = random_msg(3, 38);

  // Wave 1, interleaved: alice(5), bob(5), alice(6), bob(7). The shared
  // nonce value 5 is fine — the windows are independent.
  ServiceReport rep1;
  const auto wave1 = service.process(
      std::vector{alice.request(5, msg), bob.request(5, msg),
                  alice.request(6, msg), bob.request(7, msg)},
      &rep1);
  for (const auto& res : wave1) ASSERT_TRUE(res.ok()) << res.error;
  EXPECT_EQ(rep1.batches, 1u);  // all four requests packed together

  // Wave 2, interleaved the other way: bob replays alice's nonce 6 for the
  // FIRST time (fresh for bob -> ok), alice replays her own 6 (-> replay),
  // bob replays his own 5 (-> replay), alice uses fresh 8 (-> ok).
  ServiceReport rep2;
  const auto wave2 = service.process(
      std::vector{bob.request(6, msg), alice.request(6, msg),
                  bob.request(5, msg), alice.request(8, msg)},
      &rep2);
  ASSERT_TRUE(wave2[0].ok()) << wave2[0].error;
  EXPECT_EQ(wave2[1].status, RequestStatus::kNonceReplay);
  EXPECT_EQ(wave2[2].status, RequestStatus::kNonceReplay);
  ASSERT_TRUE(wave2[3].ok()) << wave2[3].error;
  EXPECT_EQ(decode_all(wave2[0]), msg);
  EXPECT_EQ(decode_all(wave2[3]), msg);
  EXPECT_EQ(rep2.faults.rejected, 2u);
  EXPECT_EQ(rep2.faults.ok, 2u);
}

TEST(TranscipherServiceTest, MaxBatchBlocksSplitsBatches) {
  auto service = make_service(ServiceConfig{.max_batch_blocks = 2});
  EXPECT_EQ(service.batch_capacity(), 2u);
  TestClient client(5, 51);
  service.open_session(client.id, client.encrypted_key());

  const auto msg = random_msg(4 * stack().config.pasta.t, 52);
  ServiceReport report;
  const auto results =
      service.process(std::vector{client.request(3, msg)}, &report);

  EXPECT_EQ(report.blocks, 4u);
  EXPECT_EQ(report.batches, 2u);
  EXPECT_DOUBLE_EQ(report.avg_batch_occupancy, 1.0);
  EXPECT_EQ(decode_all(results[0]), msg);
}

TEST(TranscipherServiceTest, LruEvictionRespectsRecency) {
  auto service = make_service(ServiceConfig{.max_sessions = 2});
  TestClient a(10, 61), b(11, 62), c(12, 63);
  service.open_session(a.id, a.encrypted_key());
  service.open_session(b.id, b.encrypted_key());
  // Re-opening A refreshes its recency: B becomes the LRU victim.
  service.open_session(a.id, a.encrypted_key());
  service.open_session(c.id, c.encrypted_key());

  EXPECT_EQ(service.session_count(), 2u);
  EXPECT_TRUE(service.has_session(a.id));
  EXPECT_FALSE(service.has_session(b.id));
  EXPECT_TRUE(service.has_session(c.id));
  EXPECT_EQ(service.evictions(), 1u);
}

TEST(TranscipherServiceTest, EvictedClientReOnboardsIdentically) {
  // LRU eviction must be invisible to the evicted client after it
  // re-uploads its key: the transciphered output is bit-identical.
  auto service = make_service(ServiceConfig{.max_sessions = 2});
  TestClient a(13, 64), b(14, 65), c(15, 66);
  // One fixed key upload reused for both onboardings (BGV encryption is
  // randomized, so a fresh encrypt would yield different — still correct —
  // ciphertext bytes; the wire round-trip pins the upload exactly).
  const auto key_wire =
      fhe::serialize_ciphertext(stack().bgv.rns(), a.encrypted_key());

  ASSERT_TRUE(service.open_session_wire(a.id, key_wire));
  const auto msg = random_msg(stack().config.pasta.t + 5, 67);
  const auto first = service.process(std::vector{a.request(100, msg)});
  ASSERT_TRUE(first[0].ok());
  EXPECT_EQ(decode_all(first[0]), msg);
  const auto first_wire = wire_blocks(first[0]);

  service.open_session(b.id, b.encrypted_key());
  service.open_session(c.id, c.encrypted_key());
  ASSERT_FALSE(service.has_session(a.id));  // A was evicted (with its
                                            // nonce-replay window)

  std::string error;
  ASSERT_TRUE(service.open_session_wire(a.id, key_wire, &error)) << error;
  // Same nonce as before the eviction: the fresh session accepts it, and
  // the deterministic evaluation reproduces the exact output bytes.
  const auto second = service.process(std::vector{a.request(100, msg)});
  ASSERT_TRUE(second[0].ok());
  EXPECT_EQ(decode_all(second[0]), msg);
  EXPECT_EQ(wire_blocks(second[0]), first_wire);
}

TEST(TranscipherServiceTest, UnknownClientAndEmptyRequestRejected) {
  auto service = make_service();
  const std::vector<TranscipherRequest> unknown{
      TranscipherRequest{.client_id = 999, .nonce = 1, .symmetric_ct = {1}}};
  ServiceReport report;
  auto results = service.process(unknown, &report);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RequestStatus::kUnknownSession);
  EXPECT_FALSE(results[0].error.empty());
  EXPECT_TRUE(results[0].blocks.empty());
  EXPECT_EQ(report.faults.rejected, 1u);
  EXPECT_EQ(report.batches, 0u);  // rejected before any evaluation

  TestClient client(6, 71);
  service.open_session(client.id, client.encrypted_key());
  const std::vector<TranscipherRequest> empty{
      TranscipherRequest{.client_id = client.id, .nonce = 2,
                         .symmetric_ct = {}}};
  results = service.process(empty);
  EXPECT_EQ(results[0].status, RequestStatus::kInvalidRequest);

  const std::vector<TranscipherRequest> oversized{TranscipherRequest{
      .client_id = client.id, .nonce = 3,
      .symmetric_ct = std::vector<u64>(9, 1)}};
  auto small = make_service(ServiceConfig{.max_request_elems = 8});
  small.open_session(client.id, client.encrypted_key());
  results = small.process(oversized);
  EXPECT_EQ(results[0].status, RequestStatus::kInvalidRequest);
}

TEST(TranscipherServiceTest, NonceReplayRejectedWithoutHarmingBatchmates) {
  auto service = make_service();
  TestClient client(7, 81);
  service.open_session(client.id, client.encrypted_key());

  const auto msg = random_msg(3, 82);
  const auto results = service.process(std::vector{client.request(55, msg)});
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(decode_all(results[0]), msg);

  // Same nonce again, bundled with a healthy request: the replay is
  // rejected during admission and the healthy request is untouched.
  const auto msg2 = random_msg(4, 83);
  const std::vector<TranscipherRequest> reqs{client.request(55, msg),
                                             client.request(56, msg2)};
  ServiceReport report;
  const auto mixed = service.process(reqs, &report);
  EXPECT_EQ(mixed[0].status, RequestStatus::kNonceReplay);
  ASSERT_TRUE(mixed[1].ok());
  EXPECT_EQ(decode_all(mixed[1]), msg2);
  EXPECT_EQ(report.faults.rejected, 1u);
  EXPECT_EQ(report.faults.ok, 1u);
}

TEST(TranscipherServiceTest, NonceWindowSlidesOldReplaysOut) {
  // The replay window is bounded: once max_tracked_nonces fresh nonces have
  // passed, the oldest nonce falls out of the window and is accepted again
  // (the documented trade-off of a bounded window, pinned here).
  auto service = make_service(
      ServiceConfig{.max_tracked_nonces = 3});
  TestClient client(16, 84);
  service.open_session(client.id, client.encrypted_key());
  const auto msg = random_msg(2, 85);

  for (const u64 nonce : {1, 2, 3}) {
    ASSERT_TRUE(service.process(std::vector{client.request(nonce, msg)})[0]
                    .ok());
  }
  // Window now {1,2,3}: nonce 1 is still a replay.
  auto replay = service.process(std::vector{client.request(1, msg)});
  EXPECT_EQ(replay[0].status, RequestStatus::kNonceReplay);
  // Nonce 4 slides nonce 1 out of the window...
  ASSERT_TRUE(service.process(std::vector{client.request(4, msg)})[0].ok());
  // ...so a second presentation of nonce 1 is admitted.
  auto slid = service.process(std::vector{client.request(1, msg)});
  EXPECT_TRUE(slid[0].ok());
  EXPECT_EQ(decode_all(slid[0]), msg);
}

TEST(TranscipherServiceTest, AdmissionLoadShedIsTypedAndRetriable) {
  auto service = make_service(
      ServiceConfig{.max_pending_blocks = 2});
  TestClient client(17, 86);
  service.open_session(client.id, client.encrypted_key());
  const auto msg = random_msg(2, 87);  // 1 block per request

  const std::vector<TranscipherRequest> reqs{client.request(10, msg),
                                             client.request(11, msg),
                                             client.request(12, msg)};
  ServiceReport report;
  const auto results = service.process(reqs, &report);
  ASSERT_TRUE(results[0].ok());
  ASSERT_TRUE(results[1].ok());
  EXPECT_EQ(results[2].status, RequestStatus::kOverloaded);
  EXPECT_EQ(report.faults.shed, 1u);
  EXPECT_EQ(report.blocks, 2u);  // the shed block was never admitted

  // Shedding happens before the nonce is recorded: the same request is
  // accepted verbatim once there is capacity again.
  const auto retry = service.process(std::vector{client.request(12, msg)});
  ASSERT_TRUE(retry[0].ok());
  EXPECT_EQ(decode_all(retry[0]), msg);
}

TEST(TranscipherServiceTest, ReportAccountingConsistent) {
  // One mixed multi-client call: the terminal-status buckets must
  // partition the requests, and every other counter must stay consistent
  // with what actually ran.
  auto service = make_service(
      ServiceConfig{.max_pending_blocks = 3});
  TestClient alice(20, 88), bob(21, 89), carol(22, 90);
  service.open_session(alice.id, alice.encrypted_key());
  service.open_session(bob.id, bob.encrypted_key());
  service.open_session(carol.id, carol.encrypted_key());

  const auto msg_a = random_msg(3, 91);
  const auto msg_b = random_msg(4, 92);
  const auto msg_c = random_msg(5, 93);
  const std::vector<TranscipherRequest> reqs{
      alice.request(1, msg_a),  // ok
      alice.request(2, msg_a),  // ok
      bob.request(1, msg_b),    // ok
      TranscipherRequest{.client_id = 999, .nonce = 1,
                         .symmetric_ct = {1}},           // unknown session
      TranscipherRequest{.client_id = alice.id, .nonce = 3,
                         .symmetric_ct = {}},            // invalid (empty)
      alice.request(1, msg_a),  // nonce replay (of request 0)
      carol.request(1, msg_c),  // shed: 4th block > max_pending_blocks
  };
  ServiceReport rep;
  const auto results = service.process(reqs, &rep);

  EXPECT_EQ(results[0].status, RequestStatus::kOk);
  EXPECT_EQ(results[1].status, RequestStatus::kOk);
  EXPECT_EQ(results[2].status, RequestStatus::kOk);
  EXPECT_EQ(results[3].status, RequestStatus::kUnknownSession);
  EXPECT_EQ(results[4].status, RequestStatus::kInvalidRequest);
  EXPECT_EQ(results[5].status, RequestStatus::kNonceReplay);
  EXPECT_EQ(results[6].status, RequestStatus::kOverloaded);

  // The partition invariant.
  EXPECT_EQ(rep.requests, reqs.size());
  EXPECT_EQ(rep.faults.ok + rep.faults.rejected + rep.faults.shed +
                rep.faults.quarantined + rep.faults.timed_out +
                rep.faults.failed,
            rep.requests);
  EXPECT_EQ(rep.faults.ok, 3u);
  EXPECT_EQ(rep.faults.rejected, 3u);
  EXPECT_EQ(rep.faults.shed, 1u);
  EXPECT_EQ(rep.faults.quarantined, 0u);
  EXPECT_EQ(rep.faults.timed_out, 0u);
  EXPECT_EQ(rep.faults.failed, 0u);
  // No faults were injected and nothing needed a retry.
  EXPECT_EQ(rep.faults.retries, 0u);
  EXPECT_EQ(rep.faults.stage_timeouts, 0u);
  EXPECT_EQ(rep.faults.recovered_batches, 0u);
  EXPECT_EQ(rep.faults.injected, 0u);

  // Admitted work: 3 blocks (alice 2, bob 1) packed into ONE shared batch.
  EXPECT_EQ(rep.blocks, 3u);
  EXPECT_EQ(rep.batches, 1u);
  EXPECT_EQ(rep.cross_tenant_batches, 1u);
  EXPECT_EQ(rep.drain_flushes, 1u);  // partial batch flushed at end of call
  EXPECT_GT(rep.prepare_s, 0.0);
  EXPECT_GT(rep.eval_s, 0.0);
  EXPECT_GT(rep.min_noise_budget_bits, 0.0);

  // Latency is recorded exactly for the requests that completed.
  ASSERT_EQ(rep.request_latency_s.size(), reqs.size());
  for (std::size_t r = 0; r < reqs.size(); ++r) {
    if (results[r].ok()) {
      EXPECT_GT(rep.request_latency_s[r], 0.0) << "request " << r;
      EXPECT_LE(rep.request_latency_s[r], rep.total_s);
    } else {
      EXPECT_EQ(rep.request_latency_s[r], 0.0) << "request " << r;
      EXPECT_TRUE(results[r].blocks.empty());
      EXPECT_FALSE(results[r].error.empty());
    }
  }
  EXPECT_EQ(decode_all(results[0]), msg_a);
  EXPECT_EQ(decode_all(results[1]), msg_a);
  EXPECT_EQ(decode_all(results[2]), msg_b);
}

TEST(TranscipherServiceTest, OpenSessionWireRejectsHostileBytes) {
  auto service = make_service();
  TestClient client(23, 94);
  const auto wire =
      fhe::serialize_ciphertext(stack().bgv.rns(), client.encrypted_key());

  // Truncation and header corruption must be rejected without a session.
  std::string error;
  EXPECT_FALSE(service.open_session_wire(
      client.id, std::span(wire).first(wire.size() / 2), &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(service.has_session(client.id));

  auto bad_magic = wire;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(service.open_session_wire(client.id, bad_magic, &error));
  EXPECT_FALSE(service.has_session(client.id));

  // The untouched upload is accepted and serves requests.
  ASSERT_TRUE(service.open_session_wire(client.id, wire, &error)) << error;
  const auto msg = random_msg(3, 95);
  const auto results = service.process(std::vector{client.request(7, msg)});
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(decode_all(results[0]), msg);
}

// ---------------------------------------------------------------------------
// Session-state snapshot/restore: the versioned wire form a shard restart or
// a router rebalance moves around.
// ---------------------------------------------------------------------------

TEST(SessionStateTest, WireRoundTripWithAndWithoutKey) {
  SessionState full;
  full.client_id = 42;
  full.has_key = true;
  full.key_bytes = {1, 2, 3, 4, 5, 6};
  full.nonces = {9, 3, 7};  // order is part of the state (oldest first)
  full.requests_served = 11;
  full.blocks_served = 23;

  const auto bytes = serialize_session_state(full);
  const SessionState back = deserialize_session_state(bytes);
  EXPECT_EQ(back.client_id, full.client_id);
  EXPECT_TRUE(back.has_key);
  EXPECT_EQ(back.key_bytes, full.key_bytes);
  EXPECT_EQ(back.nonces, full.nonces);
  EXPECT_EQ(back.requests_served, full.requests_served);
  EXPECT_EQ(back.blocks_served, full.blocks_served);

  SessionState update;  // the key-less piggyback form
  update.client_id = 43;
  update.nonces = {1};
  const SessionState back2 =
      deserialize_session_state(serialize_session_state(update));
  EXPECT_EQ(back2.client_id, 43u);
  EXPECT_FALSE(back2.has_key);
  EXPECT_TRUE(back2.key_bytes.empty());
  EXPECT_EQ(back2.nonces, update.nonces);
}

TEST(SessionStateTest, WireRejectsDamageTyped) {
  SessionState state;
  state.client_id = 7;
  state.has_key = true;
  state.key_bytes = {10, 20, 30};
  state.nonces = {1, 2};
  const auto good = serialize_session_state(state);

  {  // bad magic
    auto b = good;
    b[0] ^= 0xFF;
    EXPECT_THROW(deserialize_session_state(b), poe::Error);
  }
  {  // unsupported version
    auto b = good;
    b[4] = 0x7F;
    EXPECT_THROW(deserialize_session_state(b), poe::Error);
  }
  {  // unknown flag bits
    auto b = good;
    b[7] = 0x80;
    EXPECT_THROW(deserialize_session_state(b), poe::Error);
  }
  {  // every truncation is caught, none crashes or misparses
    for (std::size_t n = 0; n < good.size(); ++n) {
      EXPECT_THROW(
          deserialize_session_state(std::span(good).first(n)), poe::Error);
    }
  }
  {  // trailing bytes
    auto b = good;
    b.push_back(0);
    EXPECT_THROW(deserialize_session_state(b), poe::Error);
  }
}

TEST(SessionStateTest, ExportImportMovesReplayWindowAndStats) {
  auto source = make_service();
  TestClient client(70, 701);
  source.open_session(client.id, client.encrypted_key());
  const auto msg = random_msg(stack().config.pasta.t + 1, 702);
  ASSERT_TRUE(source.process(std::vector{client.request(1, msg)})[0].ok());

  const auto bytes = serialize_session_state(
      source.export_session(client.id, /*include_key=*/true));

  // A brand-new "process" restores the session purely from the snapshot.
  auto restored = make_service();
  std::string error;
  ASSERT_TRUE(restored.import_session(deserialize_session_state(bytes), &error))
      << error;
  ASSERT_TRUE(restored.has_session(client.id));

  ServiceReport rep;
  const auto results = restored.process(
      std::vector{client.request(1, msg),  // replay from before the move
                  client.request(2, msg)},
      &rep);
  EXPECT_EQ(results[0].status, RequestStatus::kNonceReplay);
  ASSERT_TRUE(results[1].ok()) << results[1].error;
  EXPECT_EQ(decode_all(results[1]), msg);
  // Stats survived the move and kept counting.
  const SessionState after = restored.export_session(client.id, false);
  EXPECT_EQ(after.requests_served, 2u);
  EXPECT_GE(after.blocks_served, 2u);
}

TEST(SessionStateTest, ImportMergesWindowsAndRejectsKeylessStranger) {
  auto service = make_service();
  TestClient client(71, 711);
  service.open_session(client.id, client.encrypted_key());
  const auto msg = random_msg(3, 712);
  ASSERT_TRUE(service.process(std::vector{client.request(5, msg)})[0].ok());

  // A key-less update (what response piggybacks carry) MERGES: the session
  // afterwards rejects both its own nonces and the update's.
  SessionState update;
  update.client_id = client.id;
  update.nonces = {9};
  ASSERT_TRUE(service.import_session(update));
  const auto results = service.process(std::vector{
      client.request(5, msg), client.request(9, msg), client.request(6, msg)});
  EXPECT_EQ(results[0].status, RequestStatus::kNonceReplay);
  EXPECT_EQ(results[1].status, RequestStatus::kNonceReplay);
  ASSERT_TRUE(results[2].ok()) << results[2].error;

  // A key-less state for a client this service has never seen cannot
  // create a session (there is no key to serve with).
  SessionState stranger;
  stranger.client_id = 9999;
  stranger.nonces = {1};
  std::string error;
  EXPECT_FALSE(service.import_session(stranger, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(service.has_session(9999));
}

TEST(SessionStateTest, RaggedMidBatchSnapshotKeepsReplayProtection) {
  // Nonces are recorded at ADMISSION, before any batch runs — so a
  // session snapshot taken after a batch failed mid-flight (the "ragged"
  // case: nonce admitted, zero blocks delivered) must still carry that
  // nonce, and a restore must still reject its replay. Losing the in-flight
  // work is fine; reopening the nonce is not.
  ServiceConfig cfg;
  cfg.max_stage_attempts = 3;
  cfg.backoff_base_s = 1e-4;
  auto source = make_service(cfg);
  TestClient client(72, 721);
  source.open_session(client.id, client.encrypted_key());
  const auto msg = random_msg(stack().config.pasta.t, 722);

  FaultInjector fi;
  fi.arm(FaultSpec{.site = "service.evaluate",
                   .kind = FaultClass::kThrow,
                   .count = 3});  // exhaust every attempt
  stack().bgv.rns().exec().set_fault_injector(&fi);
  const auto failed = source.process(std::vector{client.request(8, msg)});
  stack().bgv.rns().exec().set_fault_injector(nullptr);
  ASSERT_EQ(failed[0].status, RequestStatus::kFailed);
  ASSERT_TRUE(failed[0].blocks.empty());

  const SessionState ragged = source.export_session(client.id, true);
  EXPECT_NE(std::find(ragged.nonces.begin(), ragged.nonces.end(), 8u),
            ragged.nonces.end());
  EXPECT_EQ(ragged.requests_served, 0u);  // nothing was ever delivered

  auto restored = make_service(cfg);
  ASSERT_TRUE(restored.import_session(ragged));
  const auto results = restored.process(
      std::vector{client.request(8, msg), client.request(9, msg)});
  EXPECT_EQ(results[0].status, RequestStatus::kNonceReplay);
  ASSERT_TRUE(results[1].ok()) << results[1].error;
  EXPECT_EQ(decode_all(results[1]), msg);
}

}  // namespace
}  // namespace poe::service
