// Multi-tenant transcipher service — the request-level serving layer on top
// of the SIMD batch engine (the software analogue of the paper's server).
//
// Responsibilities:
//  * Sessions. Each client uploads its BGV-encrypted PASTA key once
//    (encrypt_key_batched form); the service caches it with per-session
//    nonce replay tracking and evicts the least-recently-used session when
//    the capacity bound is hit. open_session_wire ingests the serialized
//    form, validating it before it can touch a batch.
//  * Cross-tenant packing. A request carries a whole message; the service
//    splits it into PASTA blocks (block i uses counter i, matching
//    pasta::PastaCipher::encrypt) and admission packs the blocks of a call,
//    in arrival order and whatever their client, into consecutive SIMD
//    batches of batch_capacity() tiles; only the last batch can be partial.
//    Each tenant's tiled key is restricted to its assigned tiles by a 0/1
//    mask and the masked keys are summed into one packed key ciphertext
//    (SimdBatchEngine::merge_tenant_keys); on output each tenant receives a
//    masked extraction carrying only its own slots. Keys uploaded under a
//    tenant's own BGV secret are key-switched into the service's evaluation
//    domain on ingest (open_session_switched). A call with one client forms
//    that client's batches the same way.
//  * Staged execution. Each formed batch is prepared (SHAKE squeeze,
//    rejection sampling, matrix generation, diagonal encoding — pure CPU
//    work) and then evaluated under BGV, one batch after another on the
//    caller's thread; both stages fan out over the evaluator's thread pool.
//    There is no prepare/evaluate overlap: preparation is a few percent of
//    evaluation, so overlap could hide at most that much, and on a call
//    that forms one batch — every benchmark workload — nothing
//    (EXPERIMENTS.md, "Pipelined vs sequential staged execution"). Fig. 3's
//    MatGen latency hiding is reproduced in the cycle model (hw::).
//  * Robustness. HHE is exactly the setting where the server ingests
//    untrusted bytes from the edge, so hostile or corrupt input is the
//    normal case: per-request admission returns typed rejections instead
//    of throwing (unknown session, nonce replay, malformed or oversized
//    message, load shed); each stage runs under a virtual-time timeout with
//    bounded exponential-backoff retry; and a decrypt-free plausibility
//    check (fhe::validate_ciphertext) quarantines poison-pill session keys
//    per batch instead of killing the whole process() call.
//    Every fault point is instrumented for the chaos harness
//    (tests/fault_test.cpp) via the FaultInjector on the evaluator's
//    ExecContext; unarmed, each point is one pointer load. Every service.*
//    site is visited from the caller's thread, so a seeded fault schedule
//    replays exactly.
//
// All rotation keys are built ONCE in the constructor and shared by every
// session (they depend only on the BGV key, not the PASTA key).
#pragma once

#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/exec_context.hpp"
#include "fhe/bgv.hpp"
#include "hhe/simd_batch.hpp"

namespace poe::service {

struct ServiceConfig {
  std::size_t max_sessions = 8;     ///< LRU-evict beyond this many clients
  std::size_t max_batch_blocks = 0; ///< 0 = the engine's full capacity
  std::size_t max_tracked_nonces = 1024;  ///< replay window per session

  // --- Robustness knobs (defaults keep the fault-free fast path intact).
  std::size_t max_request_elems = 1u << 16;  ///< admission bound per request
  /// Admission-level load shedding: blocks admitted per process() call
  /// beyond this are rejected kOverloaded. 0 = unbounded.
  std::size_t max_pending_blocks = 0;
  /// Attempts per stage per batch, 1..64 (1 = no retry).
  std::size_t max_stage_attempts = 3;
  /// A stage (prepare or evaluate of one batch) slower than this — real
  /// time plus any injected virtual stall — counts as a timeout and is
  /// retried; exhausted attempts degrade the batch to kTimedOut. 0 = off.
  double stage_timeout_s = 0;
  /// Exponential backoff: before attempt k (k >= 2) a stage sleeps
  /// backoff_base_s * 2^(k-2), capped per sleep (retry_backoff_s).
  double backoff_base_s = 0.0005;
};

/// The sleep before stage attempt `attempt` (>= 2): base_s * 2^(attempt-2),
/// capped at 50 ms so a long attempt bound cannot turn into hours of
/// waiting. Nondecreasing in `attempt`.
double retry_backoff_s(double base_s, std::size_t attempt);

/// One client request: transcipher a whole PASTA-encrypted message.
struct TranscipherRequest {
  std::uint64_t client_id = 0;
  std::uint64_t nonce = 0;
  std::vector<std::uint64_t> symmetric_ct;
};

/// Everything a session must carry across a process boundary: the encrypted
/// PASTA key (serialized enc(K) wire bytes), the nonce replay window and the
/// serving stats. This is what a shard snapshot/restore and the router's
/// rebalance-to-a-survivor move around; serialize_session_state gives it a
/// versioned wire form. A state exported mid-batch is legitimate and safe:
/// nonces are recorded at admission, so a snapshot taken before the batch
/// finished carries the nonce with zero served blocks — restoring it keeps
/// the replay rejection and simply loses the in-flight work.
struct SessionState {
  std::uint64_t client_id = 0;
  bool has_key = false;               ///< false: nonce-window/stats update only
  std::vector<std::uint8_t> key_bytes;  ///< serialize_ciphertext(enc(K))
  std::vector<std::uint64_t> nonces;    ///< replay window, oldest first
  std::uint64_t requests_served = 0;    ///< kOk requests over the session
  std::uint64_t blocks_served = 0;      ///< blocks delivered to the client
};

/// Versioned wire form ("SES1" magic + u16 version). Deserialization
/// bounds-checks every length field before allocating and throws poe::Error
/// on damage — same hardening discipline as fhe/serialize.cpp.
std::vector<std::uint8_t> serialize_session_state(const SessionState& state);
SessionState deserialize_session_state(std::span<const std::uint8_t> bytes);

/// Where one block of a request's message landed: a tile of a (possibly
/// shared) batch output ciphertext.
struct PlacedBlock {
  std::shared_ptr<const fhe::Ciphertext> ct;
  std::size_t tile = 0;
  std::size_t len = 0;
};

/// Typed terminal state of one request. Everything except kOk is a
/// degradation the caller can act on; process() itself no longer throws on
/// hostile input — a poison-pill request must not kill its batchmates.
enum class RequestStatus {
  kOk = 0,
  kUnknownSession,   ///< no session for client_id
  kNonceReplay,      ///< nonce inside the session's replay window
  kInvalidRequest,   ///< empty or oversized message
  kOverloaded,       ///< load shed at admission (max_pending_blocks)
  kQuarantined,      ///< session key failed the plausibility check
  kTimedOut,         ///< stage timeout persisted through every retry
  kFailed,           ///< stage error persisted through every retry
};

const char* to_string(RequestStatus s);

struct TranscipherResult {
  std::uint64_t client_id = 0;
  std::uint64_t nonce = 0;
  RequestStatus status = RequestStatus::kOk;
  std::string error;                ///< detail for status != kOk
  std::vector<PlacedBlock> blocks;  ///< in message order; empty unless kOk

  bool ok() const { return status == RequestStatus::kOk; }
};

/// Per-fault-class accounting for one process() call. The terminal-status
/// counters partition the call's requests:
///   requests == ok + rejected + shed + quarantined + timed_out + failed.
struct FaultStats {
  std::size_t ok = 0;
  std::size_t rejected = 0;     ///< unknown session / replay / invalid
  std::size_t shed = 0;         ///< kOverloaded
  std::size_t quarantined = 0;  ///< kQuarantined
  std::size_t timed_out = 0;    ///< kTimedOut
  std::size_t failed = 0;       ///< kFailed
  std::size_t retries = 0;      ///< stage attempts beyond the first
  std::size_t stage_timeouts = 0;  ///< stage runs that exceeded the timeout
  std::size_t recovered_batches = 0;  ///< batches that succeeded on a retry
  std::size_t injected = 0;     ///< FaultInjector fires during the call
};

/// Aggregate diagnostics for one process() call.
struct ServiceReport {
  std::size_t requests = 0;
  std::size_t blocks = 0;
  std::size_t batches = 0;
  double total_s = 0;        ///< wall time of the whole call
  double prepare_s = 0;      ///< summed prepare-stage time
  double eval_s = 0;         ///< summed evaluate-stage time
  /// Always 0: stages run in sequence, so neither ever waits on the other.
  /// Kept only because the benchmark's layer report reads them.
  std::size_t prepare_stalls = 0;
  std::size_t eval_stalls = 0;  ///< always 0, see prepare_stalls
  double avg_batch_occupancy = 0;  ///< mean fill fraction of the batches
  double blocks_per_s = 0;
  // --- Batch formation: how each batch closed, and the packing reach.
  std::size_t full_flushes = 0;   ///< batches closed at capacity
  std::size_t drain_flushes = 0;  ///< partial batch closed at end of admission
  std::size_t cross_tenant_batches = 0;  ///< batches packing >1 tenant
  /// Worst wait of a batch's first block: its arrival -> the batch closing.
  double max_batch_wait_s = 0;
  double min_noise_budget_bits = 0;  ///< worst batch output
  /// Budget implied by the server-side tracked bound for the same worst
  /// deliverable — computable without the secret key. Soundness invariant
  /// (CI-enforced): predicted <= measured.
  double predicted_min_budget_bits = 0;
  std::size_t session_evictions = 0; ///< lifetime total at call end
  std::vector<double> request_latency_s;  ///< per request, call start -> done
  FaultStats faults;         ///< robustness-layer accounting
  /// ExecContext counter delta over the whole call (NTTs, key switches, ...).
  CounterSnapshot exec_ops;
  /// Kernel backend the evaluation ran on ("scalar", "avx2", "avx512") —
  /// from the ExecContext's dispatch decision, for bench provenance.
  std::string kernel_backend;
};

class TranscipherService {
 public:
  /// `shared_keys`: pass the rotation keys if several services share one
  /// BGV evaluator (they depend only on the BGV secret key); nullptr builds
  /// a fresh set.
  TranscipherService(const hhe::HheConfig& config, const fhe::Bgv& bgv,
                     ServiceConfig service_config = {},
                     std::shared_ptr<const fhe::GaloisKeys> shared_keys =
                         nullptr);

  /// Register (or replace) a client's encrypted PASTA key. Evicts the
  /// least-recently-used other session if the capacity bound is reached.
  void open_session(std::uint64_t client_id, fhe::Ciphertext key_ct);

  /// Ingest a key that was encrypted under the TENANT's own BGV secret:
  /// key-switch it into this service's evaluation domain
  /// (fhe::Bgv::ingest_switch) and register the switched key. Obtain
  /// `ingest_key` from bgv.make_ingest_key(tenant_bgv). This is how tenants
  /// with independent key material share one packed evaluation domain.
  void open_session_switched(std::uint64_t client_id,
                             const fhe::Ciphertext& tenant_key_ct,
                             const fhe::KswKey& ingest_key);

  /// Wire ingest: deserialize + validate an untrusted key upload before it
  /// can reach a session. Returns false (with `error` describing why)
  /// on truncated, corrupt, or structurally implausible bytes — never
  /// throws, never partially registers a session.
  bool open_session_wire(std::uint64_t client_id,
                         std::span<const std::uint8_t> bytes,
                         std::string* error = nullptr);

  bool has_session(std::uint64_t client_id) const;
  std::size_t session_count() const { return sessions_.size(); }
  std::size_t evictions() const { return evictions_; }

  /// Blocks per SIMD batch (bounded by ServiceConfig::max_batch_blocks).
  std::size_t batch_capacity() const { return max_batch_; }
  const hhe::SimdBatchEngine& engine() const { return engine_; }

  /// Transcipher a group of requests in three steps — admission (which
  /// splits the messages into blocks and packs them into batches), staged
  /// execution (prepare then evaluate, batch by batch), accounting — and
  /// return one result per request (same order). Every per-request problem — unknown session, replayed nonce, malformed
  /// message, shed load, poisoned key, exhausted retries — lands as a typed
  /// status on that request's result; healthy requests are unaffected.
  std::vector<TranscipherResult> process(
      std::span<const TranscipherRequest> requests,
      ServiceReport* report = nullptr);

  /// Client-side: decode one placed block with the secret key.
  static std::vector<std::uint64_t> decode_block(const hhe::HheConfig& config,
                                                 const fhe::Bgv& bgv,
                                                 const PlacedBlock& block);

  // --- Session-state snapshot/restore (shard restart and rebalance). ------

  /// Snapshot a session (throws poe::Error when the client is unknown).
  /// `include_key` = false produces a nonce-window/stats update — what a
  /// shard piggybacks on its responses so a router can rebuild the session
  /// elsewhere without ever holding enc(K) itself.
  SessionState export_session(std::uint64_t client_id,
                              bool include_key) const;

  /// Install or update a session from a snapshot. A state carrying a key is
  /// validated through the same wire path as open_session_wire (deserialize
  /// + plausibility check); a key-less state requires the session to exist.
  /// Nonce windows MERGE (set union, oldest first, clipped to the tracked
  /// bound) and stats take the maximum — restoring a stale snapshot can
  /// only widen replay protection, never re-admit an accepted nonce.
  /// Returns false with `error` set on invalid input; never throws, never
  /// partially applies.
  bool import_session(const SessionState& state, std::string* error = nullptr);

 private:
  struct Session {
    fhe::Ciphertext key_ct;
    std::unordered_set<std::uint64_t> nonce_set;
    std::deque<std::uint64_t> nonce_order;  ///< bounded replay window
    std::list<std::uint64_t>::iterator lru_pos;
    std::uint64_t requests_served = 0;  ///< kOk requests
    std::uint64_t blocks_served = 0;
  };

  void touch(std::uint64_t client_id, Session& session);

  /// Per-call state of process() and its steps (defined in service.cpp).
  struct Call;
  void admit(Call& call);
  void execute(Call& call);
  void evaluate_batch(Call& call, std::size_t job,
                      const hhe::PreparedSimdBatch& batch);
  void account(Call& call);

  const hhe::HheConfig& config_;
  const fhe::Bgv& bgv_;
  ServiceConfig service_config_;
  hhe::SimdBatchEngine engine_;
  std::size_t max_batch_ = 0;
  std::unordered_map<std::uint64_t, Session> sessions_;
  std::list<std::uint64_t> lru_;  ///< front = most recently used
  std::size_t evictions_ = 0;
};

}  // namespace poe::service
