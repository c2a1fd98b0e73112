// Deterministic fault injection for chaos testing the serving stack.
//
// A FaultInjector holds a seeded schedule of site-addressable faults: each
// FaultSpec names an instrumented code location ("service.prepare",
// "pool.acquire", ...), a fault class (throw, allocation failure, stalled
// stage, corrupted ciphertext words, forced saturation/truncation) and the
// arrival window in which it fires. Instrumented code consults the injector
// through the free helpers in exec_context.hpp, which reduce to a single
// relaxed null-pointer load when nothing is armed — and compile away
// entirely under POE_NO_FAULT_INJECTION. Arrival counters are per site, so
// a schedule is reproducible from its seed alone as long as each site is
// visited from one thread. The multi-thread sites, pool.acquire and
// fhe.hoist.scratch.alloc_fail, are visited from pool workers and are
// exercised by the invariant-based chaos sweep, not by exact-outcome tests.
//
// Naming convention for sites: <layer>.<point>[.<aspect>], e.g.
//   pool.acquire            allocation of a polynomial slab
//   fhe.hoist.scratch.alloc_fail  lease of a hoisted-rotation scratch pair
//   service.prepare         the service's batch-preparation stage
//   service.prepare.stall   virtual-time stall charged to that stage
//   service.evaluate        the BGV evaluation stage
//   service.evaluate.stall
//   service.key.corrupt     corruption of a session's key ciphertext words
//   service.wire.truncate   truncation of key-upload wire bytes
//   net.frame.torn          (kForce) a peer dies mid-write: half a frame is
//                           sent and the connection is wrecked
//   net.peer.stall          (kStall) virtual peer slowness charged at frame
//                           receive; shards echo it so the router's
//                           slow-peer timeout runs on virtual time
//   shard.kill              (kForce) a worker-shard process dies between
//                           receiving a request and responding; its session
//                           partition is lost and must rebalance
// docs/TESTING.md lists the armed sites and how to replay a failed seed.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace poe {

enum class FaultClass : std::uint8_t {
  kThrow = 0,   ///< the site throws FaultInjectedError
  kAllocFail,   ///< allocation site throws (same mechanics, own accounting)
  kStall,       ///< charge `arg_ms` of virtual stage time (bounded real sleep)
  kCorrupt,     ///< mangle words presented at the site
  kForce,       ///< boolean site (wire truncation, torn frame) reports true
};

const char* to_string(FaultClass c);

/// One armed fault: fire at site `site` on arrival indices
/// [after, after + count), with `arg` as the class-specific parameter
/// (milliseconds to charge for kStall, words to mangle for kCorrupt).
struct FaultSpec {
  std::string site;
  FaultClass kind = FaultClass::kThrow;
  std::uint64_t after = 0;
  std::uint64_t count = 1;
  std::uint64_t arg = 0;
};

/// Thrown by armed kThrow/kAllocFail sites; derived from poe::Error so the
/// service's retry machinery treats injected and organic failures alike.
class FaultInjectedError : public Error {
 public:
  using Error::Error;
};

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed = 0) : rng_(seed), seed_(seed) {}

  void arm(FaultSpec spec);
  std::uint64_t seed() const { return seed_; }

  /// A deterministic schedule of `n` faults drawn from `seed` over the given
  /// site menu. Arrival indices are kept small (< 8) so every fault lands
  /// inside a short workload; stall charges are sized to trip a ~2 s stage
  /// timeout.
  struct MenuEntry {
    std::string_view site;
    FaultClass kind;
  };
  static std::vector<FaultSpec> random_schedule(
      std::uint64_t seed, std::span<const MenuEntry> menu, std::size_t n);

  // --- Hooks called by instrumented code (via exec_context.hpp helpers). --
  /// kThrow/kAllocFail sites: counts the arrival, throws when armed.
  void visit(std::string_view site);
  /// kStall sites: seconds of virtual stage time to charge (0 when idle).
  /// Sleeps a bounded real slice (<= 50 ms) so thread interleavings are
  /// genuinely perturbed without making chaos runs wall-clock slow.
  double stall_s(std::string_view site);
  /// kForce sites: true when the armed fault fires on this arrival.
  bool forced(std::string_view site);
  /// kCorrupt sites: mangles up to `arg` words (seeded, with the top bit set
  /// so structural validation is guaranteed to notice). Returns true when it
  /// corrupted anything.
  bool corrupt(std::string_view site, std::span<std::uint64_t> words);

  // --- Accounting. --------------------------------------------------------
  std::uint64_t fired(FaultClass c) const;
  std::uint64_t fired_total() const;
  std::uint64_t arrivals(std::string_view site) const;
  /// site -> times a fault actually fired there.
  std::map<std::string, std::uint64_t> fired_by_site() const;

 private:
  struct SiteState {
    std::uint64_t arrivals = 0;
    std::uint64_t fired = 0;
    std::vector<FaultSpec> armed;
  };

  /// Counts the arrival and returns the armed spec of one of the accepted
  /// classes firing on it (nullptr when none). Caller holds mu_.
  const FaultSpec* step(std::string_view site,
                        std::initializer_list<FaultClass> kinds);

  mutable std::mutex mu_;
  std::map<std::string, SiteState, std::less<>> sites_;
  std::uint64_t fired_by_class_[5] = {0, 0, 0, 0, 0};
  Xoshiro256 rng_;
  std::uint64_t seed_ = 0;
};

}  // namespace poe
