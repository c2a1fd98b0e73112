#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "fhe/serialize.hpp"

namespace poe::service {

namespace {
using Clock = std::chrono::steady_clock;
using u64 = std::uint64_t;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Local little-endian helpers for the session-state wire form (the service
// must not depend on src/net/, which sits above it).
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v));
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

struct StateReader {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;

  std::size_t remaining() const { return bytes.size() - pos; }
  std::span<const std::uint8_t> need(std::size_t n) {
    POE_ENSURE(n <= remaining(), "truncated session state: need "
                                     << n << " bytes, have " << remaining());
    auto view = bytes.subspan(pos, n);
    pos += n;
    return view;
  }
  std::uint16_t u16() {
    auto b = need(2);
    return static_cast<std::uint16_t>(b[0] | (std::uint16_t{b[1]} << 8));
  }
  std::uint32_t u32() {
    const std::uint32_t lo = u16();
    const std::uint32_t hi = u16();
    return lo | (hi << 16);
  }
  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    const std::uint64_t hi = u32();
    return lo | (hi << 32);
  }
};

constexpr std::uint32_t kSessionMagic = 0x31534553;  // "SES1"
constexpr std::uint16_t kSessionVersion = 1;
}  // namespace

std::vector<std::uint8_t> serialize_session_state(const SessionState& state) {
  std::vector<std::uint8_t> out;
  put_u32(out, kSessionMagic);
  put_u16(out, kSessionVersion);
  put_u16(out, state.has_key ? 1 : 0);
  put_u64(out, state.client_id);
  put_u64(out, state.requests_served);
  put_u64(out, state.blocks_served);
  POE_ENSURE(state.nonces.size() <= UINT32_MAX, "nonce window too large");
  put_u32(out, static_cast<std::uint32_t>(state.nonces.size()));
  for (const u64 nonce : state.nonces) put_u64(out, nonce);
  if (state.has_key) {
    POE_ENSURE(state.key_bytes.size() <= UINT32_MAX, "key bytes too large");
    put_u32(out, static_cast<std::uint32_t>(state.key_bytes.size()));
    out.insert(out.end(), state.key_bytes.begin(), state.key_bytes.end());
  }
  return out;
}

SessionState deserialize_session_state(std::span<const std::uint8_t> bytes) {
  StateReader r{bytes};
  POE_ENSURE(r.u32() == kSessionMagic, "bad session-state magic");
  const std::uint16_t version = r.u16();
  POE_ENSURE(version == kSessionVersion,
             "unsupported session-state version " << version);
  const std::uint16_t flags = r.u16();
  POE_ENSURE((flags & ~1u) == 0, "unknown session-state flags");
  SessionState state;
  state.has_key = (flags & 1u) != 0;
  state.client_id = r.u64();
  state.requests_served = r.u64();
  state.blocks_served = r.u64();
  const std::uint32_t nonce_count = r.u32();
  // Bound the untrusted count by the bytes actually present before it can
  // size an allocation.
  POE_ENSURE(std::uint64_t{nonce_count} * 8 <= r.remaining(),
             "nonce count " << nonce_count << " exceeds the remaining "
                            << r.remaining() << " bytes");
  state.nonces.reserve(nonce_count);
  for (std::uint32_t i = 0; i < nonce_count; ++i) {
    state.nonces.push_back(r.u64());
  }
  if (state.has_key) {
    const std::uint32_t key_len = r.u32();
    POE_ENSURE(key_len <= r.remaining(),
               "key length " << key_len << " exceeds the remaining "
                             << r.remaining() << " bytes");
    auto view = r.need(key_len);
    state.key_bytes.assign(view.begin(), view.end());
  }
  POE_ENSURE(r.remaining() == 0, "session state has "
                                     << r.remaining()
                                     << " undeclared trailing bytes");
  return state;
}

const char* to_string(RequestStatus s) {
  switch (s) {
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kUnknownSession: return "unknown_session";
    case RequestStatus::kNonceReplay: return "nonce_replay";
    case RequestStatus::kInvalidRequest: return "invalid_request";
    case RequestStatus::kOverloaded: return "overloaded";
    case RequestStatus::kQuarantined: return "quarantined";
    case RequestStatus::kTimedOut: return "timed_out";
    case RequestStatus::kFailed: return "failed";
  }
  return "?";
}

TranscipherService::TranscipherService(
    const hhe::HheConfig& config, const fhe::Bgv& bgv,
    ServiceConfig service_config,
    std::shared_ptr<const fhe::GaloisKeys> shared_keys)
    : config_(config),
      bgv_(bgv),
      service_config_(service_config),
      engine_(config, bgv,
              shared_keys != nullptr
                  ? std::move(shared_keys)
                  : hhe::SimdBatchEngine::make_shared_rotation_keys(config,
                                                                    bgv)) {
  POE_ENSURE(service_config_.max_sessions >= 1, "need at least one session");
  POE_ENSURE(service_config_.max_stage_attempts >= 1,
             "need at least one stage attempt");
  max_batch_ = engine_.capacity();
  if (service_config_.max_batch_blocks != 0) {
    max_batch_ = std::min(max_batch_, service_config_.max_batch_blocks);
  }
}

void TranscipherService::open_session(u64 client_id, fhe::Ciphertext key_ct) {
  auto it = sessions_.find(client_id);
  if (it != sessions_.end()) {
    // Fresh key for a known client: keep the nonce replay history.
    it->second.key_ct = std::move(key_ct);
    touch(client_id, it->second);
    return;
  }
  if (sessions_.size() >= service_config_.max_sessions) {
    const u64 victim = lru_.back();
    lru_.pop_back();
    sessions_.erase(victim);
    ++evictions_;
  }
  lru_.push_front(client_id);
  Session session;
  session.key_ct = std::move(key_ct);
  session.lru_pos = lru_.begin();
  sessions_.emplace(client_id, std::move(session));
}

void TranscipherService::open_session_switched(
    u64 client_id, const fhe::Ciphertext& tenant_key_ct,
    const fhe::KswKey& ingest_key) {
  open_session(client_id, bgv_.ingest_switch(tenant_key_ct, ingest_key));
}

bool TranscipherService::open_session_wire(u64 client_id,
                                           std::span<const std::uint8_t> bytes,
                                           std::string* error) {
  // The chaos harness models a lossy/hostile uplink by truncating the
  // upload here; organically short buffers take the same rejection path.
  if (fault_forced(bgv_.rns().exec(), "service.wire.truncate")) {
    bytes = bytes.first(bytes.size() / 2);
  }
  try {
    fhe::Ciphertext ct = fhe::deserialize_ciphertext(bgv_.rns(), bytes);
    if (auto why = fhe::validate_ciphertext(bgv_.rns(), ct)) {
      if (error != nullptr) *error = "implausible key upload: " + *why;
      return false;
    }
    open_session(client_id, std::move(ct));
    return true;
  } catch (const poe::Error& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
}

bool TranscipherService::has_session(u64 client_id) const {
  return sessions_.contains(client_id);
}

SessionState TranscipherService::export_session(u64 client_id,
                                                bool include_key) const {
  auto it = sessions_.find(client_id);
  POE_ENSURE(it != sessions_.end(),
             "export_session: no session for client " << client_id);
  const Session& session = it->second;
  SessionState state;
  state.client_id = client_id;
  state.nonces.assign(session.nonce_order.begin(), session.nonce_order.end());
  state.requests_served = session.requests_served;
  state.blocks_served = session.blocks_served;
  if (include_key) {
    state.has_key = true;
    state.key_bytes = fhe::serialize_ciphertext(bgv_.rns(), session.key_ct);
  }
  return state;
}

bool TranscipherService::import_session(const SessionState& state,
                                        std::string* error) {
  auto it = sessions_.find(state.client_id);
  if (it == sessions_.end()) {
    if (!state.has_key) {
      if (error != nullptr) {
        *error = "session state carries no key and no session exists";
      }
      return false;
    }
    // Same untrusted-bytes gate as open_session_wire: deserialize +
    // plausibility-validate before the key can touch a batch.
    if (!open_session_wire(state.client_id, state.key_bytes, error)) {
      return false;
    }
    it = sessions_.find(state.client_id);
  } else if (state.has_key) {
    if (!open_session_wire(state.client_id, state.key_bytes, error)) {
      return false;
    }
  }
  Session& session = it->second;
  // Merge the nonce windows (union, incoming appended in order): a restore
  // can only widen the replay window, never re-admit an accepted nonce.
  for (const u64 nonce : state.nonces) {
    if (session.nonce_set.insert(nonce).second) {
      session.nonce_order.push_back(nonce);
    }
  }
  while (session.nonce_order.size() > service_config_.max_tracked_nonces) {
    session.nonce_set.erase(session.nonce_order.front());
    session.nonce_order.pop_front();
  }
  session.requests_served =
      std::max(session.requests_served, state.requests_served);
  session.blocks_served = std::max(session.blocks_served, state.blocks_served);
  return true;
}

void TranscipherService::touch(u64 /*client_id*/, Session& session) {
  lru_.splice(lru_.begin(), lru_, session.lru_pos);
}

// ---- process(): admission -> batch formation -> staged prepare/evaluate
// ---- -> accounting. Per-call state lives in Call; each step is one member
// ---- function below.

namespace {

/// Where one admitted block's output goes: block `block` of request
/// `request`.
struct BlockRef {
  std::size_t request = 0;
  std::size_t block = 0;
};

/// A formed batch; tile i carries blocks[i], owned by tenants[i] and
/// delivered to refs[i].
struct BatchJob {
  std::vector<hhe::SimdBlockRequest> blocks;
  std::vector<BlockRef> refs;
  std::vector<u64> tenants;
};

enum class BatchState { kPending, kDone, kQuarantined, kTimedOut, kFailed };

struct BatchOutcome {
  BatchState state = BatchState::kPending;
  std::string error;
  std::size_t retries = 0;
  std::size_t timeouts = 0;
  bool recovered = false;
  double prepare_s = 0;
  double eval_s = 0;
};

RequestStatus degraded_status(BatchState state) {
  switch (state) {
    case BatchState::kQuarantined: return RequestStatus::kQuarantined;
    case BatchState::kTimedOut: return RequestStatus::kTimedOut;
    default: return RequestStatus::kFailed;
  }
}

// Run `body` with retry/backoff under the stage timeout. Injected stalls
// charge virtual time (FaultInjector sleeps a bounded real slice), so a
// "slow stage" is reproducible without slow tests. True on success; on
// failure `out` carries the terminal state and error.
template <typename Body>
bool run_stage(const ServiceConfig& cfg, ExecContext& exec,
               std::string_view site, std::string_view stall_site,
               Body&& body, BatchOutcome& out, double& stage_s) {
  bool last_was_timeout = false;
  std::string last_error;
  for (std::size_t attempt = 1; attempt <= cfg.max_stage_attempts; ++attempt) {
    if (attempt > 1) {
      ++out.retries;
      std::this_thread::sleep_for(std::chrono::duration<double>(
          cfg.backoff_base_s * static_cast<double>(1ull << (attempt - 2))));
    }
    const auto t0 = Clock::now();
    try {
      const double charged = fault_stall_s(exec, stall_site);
      fault_point(exec, site);
      body();
      const double elapsed = seconds_since(t0) + charged;
      if (cfg.stage_timeout_s > 0 && elapsed > cfg.stage_timeout_s) {
        ++out.timeouts;
        last_was_timeout = true;
        last_error = "stage exceeded timeout";
        continue;
      }
      stage_s += elapsed;
      if (attempt > 1) out.recovered = true;
      return true;
    } catch (const poe::Error& e) {
      last_was_timeout = false;
      last_error = e.what();
    } catch (const std::bad_alloc&) {
      last_was_timeout = false;
      last_error = "allocation failure";
    }
  }
  out.state = last_was_timeout ? BatchState::kTimedOut : BatchState::kFailed;
  out.error = last_error;
  return false;
}

}  // namespace

struct TranscipherService::Call {
  Call(std::span<const TranscipherRequest> reqs, ServiceReport& report,
       const SchedulerConfig& scheduler_config)
      : requests(reqs),
        rep(report),
        results(reqs.size()),
        scheduler(scheduler_config) {}

  /// Seconds since the call started: the scheduler's virtual clock and
  /// request_latency_s share this origin.
  double now() const { return seconds_since(t_start); }

  std::span<const TranscipherRequest> requests;
  ServiceReport& rep;
  const Clock::time_point t_start = Clock::now();
  std::vector<TranscipherResult> results;
  /// Owns batch formation (tile assignment, flush causes, backlog bound);
  /// block payloads wait in `pending`, indexed by the scheduler handle.
  BatchScheduler scheduler;
  std::vector<std::pair<hhe::SimdBlockRequest, BlockRef>> pending;
  std::vector<BatchJob> jobs;
  std::vector<BatchOutcome> outcomes;  ///< one per job
  std::vector<std::size_t> missing;    ///< undelivered blocks per request
  double min_noise = 1e9;
  double min_predicted = 1e9;
  std::size_t evaluated_batches = 0;
};

std::vector<TranscipherResult> TranscipherService::process(
    std::span<const TranscipherRequest> requests, ServiceReport* report) {
  ServiceReport local;
  ServiceReport& rep = report != nullptr ? *report : local;
  rep = ServiceReport{};
  ExecContext& exec = bgv_.rns().exec();
  const CounterSnapshot before = exec.snapshot();
  FaultInjector* injector = exec.fault_injector();
  const u64 fired_before = injector != nullptr ? injector->fired_total() : 0;

  Call call(requests, rep,
            SchedulerConfig{
                .batch_capacity = max_batch_,
                .max_pending_blocks = service_config_.max_pending_blocks});
  admit(call);
  form_batches(call);
  execute(call);
  account(call);

  rep.faults.injected =
      injector != nullptr ? injector->fired_total() - fired_before : 0;
  rep.exec_ops = exec.snapshot() - before;
  rep.kernel_backend = std::string(exec.kernel_backend_name());
  return std::move(call.results);
}

// Admission: session lookup, request sanity, nonce replay, load shedding,
// block splitting. Rejections are typed per request — hostile input
// degrades that request, never the batch. Admitted blocks go to the
// scheduler as they are split, stamped with their arrival time.
void TranscipherService::admit(Call& call) {
  const std::size_t t = config_.pasta.t;
  call.rep.requests = call.requests.size();
  call.rep.request_latency_s.assign(call.requests.size(), 0);
  for (std::size_t r = 0; r < call.requests.size(); ++r) {
    const TranscipherRequest& req = call.requests[r];
    TranscipherResult& res = call.results[r];
    res.client_id = req.client_id;
    res.nonce = req.nonce;

    auto it = sessions_.find(req.client_id);
    if (it == sessions_.end()) {
      res.status = RequestStatus::kUnknownSession;
      res.error = "no session for client";
      continue;
    }
    Session& session = it->second;
    if (req.symmetric_ct.empty()) {
      res.status = RequestStatus::kInvalidRequest;
      res.error = "empty request";
      continue;
    }
    if (req.symmetric_ct.size() > service_config_.max_request_elems) {
      res.status = RequestStatus::kInvalidRequest;
      res.error = "request exceeds max_request_elems";
      continue;
    }
    if (session.nonce_set.contains(req.nonce)) {
      res.status = RequestStatus::kNonceReplay;
      res.error = "nonce replay";
      continue;
    }
    const std::size_t nblocks = (req.symmetric_ct.size() + t - 1) / t;
    if (!call.scheduler.can_accept(nblocks)) {
      // Shed BEFORE the nonce is recorded, so the client can resubmit the
      // same request once load drops.
      res.status = RequestStatus::kOverloaded;
      res.error = "admission load shed";
      continue;
    }
    session.nonce_set.insert(req.nonce);
    session.nonce_order.push_back(req.nonce);
    if (session.nonce_order.size() > service_config_.max_tracked_nonces) {
      session.nonce_set.erase(session.nonce_order.front());
      session.nonce_order.pop_front();
    }
    touch(req.client_id, session);

    res.blocks.resize(nblocks);
    for (std::size_t b = 0; b < nblocks; ++b) {
      const std::size_t begin = b * t;
      const std::size_t len = std::min(t, req.symmetric_ct.size() - begin);
      hhe::SimdBlockRequest block;
      block.nonce = req.nonce;
      block.counter = b;  // block i of a message uses counter i
      block.symmetric_ct.assign(
          req.symmetric_ct.begin() + static_cast<long>(begin),
          req.symmetric_ct.begin() + static_cast<long>(begin + len));
      const double now = call.now();
      const bool accepted = call.scheduler.submit(
          ScheduledBlock{.tenant = req.client_id,
                         .handle = call.pending.size(),
                         .arrival_s = now},
          now);
      POE_ENSURE(accepted, "scheduler refused a pre-admitted block");
      call.pending.emplace_back(std::move(block),
                                BlockRef{.request = r, .block = b});
      ++call.rep.blocks;
    }
  }
}

// Batch formation: end of the admission stream — flush whatever is still
// forming and materialise the formed batches (tile i = blocks[i], arrival
// order).
void TranscipherService::form_batches(Call& call) {
  call.scheduler.drain(call.now());
  while (auto formed = call.scheduler.next()) {
    BatchJob job;
    job.blocks.reserve(formed->blocks.size());
    for (const ScheduledBlock& sb : formed->blocks) {
      auto& [block, ref] = call.pending[sb.handle];
      job.blocks.push_back(std::move(block));
      job.refs.push_back(ref);
      job.tenants.push_back(sb.tenant);
    }
    call.jobs.push_back(std::move(job));
  }
  call.rep.batches = call.jobs.size();
  call.outcomes.resize(call.jobs.size());
  call.missing.resize(call.results.size());
  for (std::size_t r = 0; r < call.results.size(); ++r) {
    call.missing[r] = call.results[r].blocks.size();
  }
}

// Staged execution: prepare (CPU) then evaluate (BGV), one batch at a time
// on the caller's thread, each stage under a virtual-time timeout with
// bounded backoff retry.
void TranscipherService::execute(Call& call) {
  ExecContext& exec = bgv_.rns().exec();
  for (std::size_t j = 0; j < call.jobs.size(); ++j) {
    BatchOutcome& out = call.outcomes[j];
    hhe::PreparedSimdBatch batch;
    if (run_stage(
            service_config_, exec, "service.prepare", "service.prepare.stall",
            [&] { batch = engine_.prepare(call.jobs[j].blocks); }, out,
            out.prepare_s)) {
      evaluate_batch(call, j, batch);
    }
  }
}

// Poison-pill gate + evaluation of one prepared batch. A batch may span
// several tenants: each tenant is validated separately, quarantined tenants
// are dropped from the key merge (their tiles get an all-zero key and their
// requests degrade to kQuarantined), and every survivor receives a masked
// extraction of the shared output. The
// keystream circuit is tile-local, so the survivors' slots decode
// bit-identical to a run without the quarantined tenant.
void TranscipherService::evaluate_batch(Call& call, std::size_t j,
                                        const hhe::PreparedSimdBatch& batch) {
  ExecContext& exec = bgv_.rns().exec();
  const BatchJob& job = call.jobs[j];
  BatchOutcome& outcome = call.outcomes[j];
  // Tiles grouped by tenant, in first-arrival order — the fault sites
  // below fire in deterministic tenant order for the chaos harness.
  std::vector<u64> tenant_order;
  std::unordered_map<u64, std::vector<std::size_t>> tiles_of;
  for (std::size_t i = 0; i < job.tenants.size(); ++i) {
    auto [pos, fresh] = tiles_of.try_emplace(job.tenants[i]);
    if (fresh) tenant_order.push_back(job.tenants[i]);
    pos->second.push_back(i);
  }
  std::vector<hhe::TenantTiles> live;
  std::vector<u64> live_ids;
  std::unordered_set<u64> dead;
  for (const u64 tenant : tenant_order) {
    Session& session = sessions_.at(tenant);
    // Decrypt-free plausibility check of the session key (the chaos sites
    // corrupt it first); a failure quarantines the tenant's tiles.
    if (!session.key_ct.parts.empty()) {
      fault_corrupt(exec, "service.key.corrupt",
                    session.key_ct.parts[0].rns(0));
      if (tenant_order.size() > 1) {
        // Packed-batch-specific site: poison a key mid-pack (arm with
        // `after` to hit the second or later tenant of the batch).
        fault_corrupt(exec, "service.pack.key.corrupt",
                      session.key_ct.parts[0].rns(0));
      }
    }
    if (auto why = fhe::validate_ciphertext(bgv_.rns(), session.key_ct)) {
      dead.insert(tenant);
      for (const std::size_t i : tiles_of[tenant]) {
        TranscipherResult& res = call.results[job.refs[i].request];
        if (res.status == RequestStatus::kOk) {
          res.status = RequestStatus::kQuarantined;
          res.error = "session key implausible: " + *why;
        }
      }
      continue;
    }
    live.push_back(hhe::TenantTiles{&session.key_ct, tiles_of[tenant]});
    live_ids.push_back(tenant);
  }
  if (live.empty()) {
    outcome.state = BatchState::kQuarantined;
    outcome.error = "every tenant of the batch was quarantined";
    return;
  }
  std::unordered_map<u64, std::shared_ptr<const fhe::Ciphertext>> out_of;
  double batch_noise = 0;
  double batch_predicted = 0;
  const bool ok = run_stage(
      service_config_, exec, "service.evaluate", "service.evaluate.stall",
      [&] {
        const fhe::Ciphertext packed_key = engine_.merge_tenant_keys(live);
        hhe::ServerReport server_report;
        const fhe::Ciphertext batch_out =
            engine_.evaluate(packed_key, batch, &server_report);
        out_of.clear();
        batch_noise = 1e9;
        batch_predicted = 1e9;
        for (std::size_t v = 0; v < live.size(); ++v) {
          auto ct = std::make_shared<const fhe::Ciphertext>(
              engine_.extract_tiles(batch_out, live[v].tiles));
          // The extraction mask costs noise: report the deliverable's
          // budget, not the pre-mask batch output's.
          batch_noise = std::min(batch_noise, bgv_.noise_budget_bits(*ct));
          batch_predicted =
              std::min(batch_predicted, bgv_.predicted_budget_bits(*ct));
          out_of[live_ids[v]] = std::move(ct);
        }
      },
      outcome, outcome.eval_s);
  if (!ok) return;
  outcome.state = BatchState::kDone;
  call.min_noise = std::min(call.min_noise, batch_noise);
  call.min_predicted = std::min(call.min_predicted, batch_predicted);
  ++call.evaluated_batches;
  for (std::size_t i = 0; i < job.refs.size(); ++i) {
    if (dead.contains(job.tenants[i])) continue;
    const BlockRef& ref = job.refs[i];
    call.results[ref.request].blocks[ref.block] =
        PlacedBlock{out_of.at(job.tenants[i]), i, batch.lens[i]};
    if (--call.missing[ref.request] == 0) {
      call.rep.request_latency_s[ref.request] = call.now();
    }
  }
}

// Accounting: degrade the requests of unfinished batches, bucket every
// request by terminal status (the one place the partition invariant is
// checked) and fill in the call-level report.
void TranscipherService::account(Call& call) {
  ServiceReport& rep = call.rep;
  // A request spanning several batches takes the first failure.
  for (std::size_t j = 0; j < call.jobs.size(); ++j) {
    const BatchOutcome& out = call.outcomes[j];
    rep.prepare_s += out.prepare_s;
    rep.eval_s += out.eval_s;
    rep.faults.retries += out.retries;
    rep.faults.stage_timeouts += out.timeouts;
    if (out.state == BatchState::kDone) {
      if (out.recovered) ++rep.faults.recovered_batches;
      continue;
    }
    for (const BlockRef& ref : call.jobs[j].refs) {
      TranscipherResult& res = call.results[ref.request];
      if (res.status == RequestStatus::kOk) {
        res.status = degraded_status(out.state);
        res.error = out.error;
      }
    }
  }

  FaultStats& f = rep.faults;
  for (TranscipherResult& res : call.results) {
    switch (res.status) {
      case RequestStatus::kOk:
        ++f.ok;
        // Per-session serving stats (part of the SessionState snapshot).
        // Sessions are only evicted by open_session, never mid-call; the
        // lookup stays defensive.
        if (auto sit = sessions_.find(res.client_id); sit != sessions_.end()) {
          ++sit->second.requests_served;
          sit->second.blocks_served += res.blocks.size();
        }
        continue;
      case RequestStatus::kUnknownSession:
      case RequestStatus::kNonceReplay:
      case RequestStatus::kInvalidRequest: ++f.rejected; break;
      case RequestStatus::kOverloaded: ++f.shed; break;
      case RequestStatus::kQuarantined: ++f.quarantined; break;
      case RequestStatus::kTimedOut: ++f.timed_out; break;
      case RequestStatus::kFailed: ++f.failed; break;
    }
    res.blocks.clear();
  }
  POE_ENSURE(f.ok + f.rejected + f.shed + f.quarantined + f.timed_out +
                     f.failed ==
                 rep.requests,
             "request status partition broken: " << rep.requests
                                                 << " requests");

  rep.total_s = call.now();
  rep.min_noise_budget_bits = call.evaluated_batches > 0 ? call.min_noise : 0;
  rep.predicted_min_budget_bits =
      call.evaluated_batches > 0 ? call.min_predicted : 0;
  const SchedulerStats& sched = call.scheduler.stats();
  rep.avg_batch_occupancy =
      sched.batches > 0 ? sched.occupancy_sum / double(sched.batches) : 0;
  rep.blocks_per_s = rep.total_s > 0 ? double(rep.blocks) / rep.total_s : 0;
  rep.full_flushes = sched.full_flushes;
  rep.drain_flushes = sched.drain_flushes;
  rep.cross_tenant_batches = sched.cross_tenant_batches;
  rep.max_batch_wait_s = sched.max_wait_s;
  rep.session_evictions = evictions_;
}

std::vector<u64> TranscipherService::decode_block(const hhe::HheConfig& config,
                                                  const fhe::Bgv& bgv,
                                                  const PlacedBlock& block) {
  POE_ENSURE(block.ct != nullptr, "block was never evaluated");
  return hhe::SimdBatchEngine::decode_block(config, bgv, *block.ct,
                                            block.tile, block.len);
}

}  // namespace poe::service
