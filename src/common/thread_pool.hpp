// Long-lived worker threads behind parallel_for.
//
// The HHE servers issue a data-parallel loop per cipher round; spawning and
// joining OS threads per call costs more than the loop body for the small
// per-round batches. ThreadPool keeps the workers alive across calls: a run()
// posts one job (an index range plus a type-erased body), the calling thread
// participates as one executor, and the workers go back to sleep afterwards.
//
// Worker count: POE_THREADS environment variable when set (0 or unset means
// hardware_concurrency), read once at first use. POE_THREADS=1 forces the
// serial path — useful for reproducible benches on small CI runners.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace poe {

class ThreadPool {
 public:
  /// Type-erased loop body: fn(ctx, index).
  using IndexFn = void (*)(void*, std::size_t);

  /// `workers` owned threads (the caller of run() is an extra executor).
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool with default_parallelism() - 1 workers.
  static ThreadPool& global();

  /// Total executors to use by default: POE_THREADS if set and nonzero,
  /// otherwise hardware_concurrency (minimum 1).
  static unsigned default_parallelism();
  /// Parse a POE_THREADS-style value (nullptr/empty/"0" -> hardware).
  /// Exposed for tests.
  static unsigned parse_threads_env(const char* value);

  unsigned workers() const { return static_cast<unsigned>(threads_.size()); }

  /// Run fn(ctx, i) for every i in [0, count) on the workers and the
  /// calling thread, which always participates.
  ///
  /// Exception semantics: the first exception thrown by the body is
  /// rethrown to the caller. Once that failure has been RECORDED — the
  /// pool has caught the exception, after it unwound out of the body — no
  /// new invocation of the body begins (the flag is checked before every
  /// call); invocations already in flight run to completion. Bodies that
  /// other executors start while the exception is still unwinding may run:
  /// the pool cannot see a throw before it is caught. Nested run() calls
  /// from any executor of a job (worker or caller) execute serially inline
  /// to avoid deadlock.
  void run(std::size_t count, void* ctx, IndexFn fn);

  /// True once a body of the current (or last) job has failed and the pool
  /// has recorded it; from then on no new invocation of that job begins.
  bool failure_recorded() const {
    return failed_.load(std::memory_order_acquire);
  }

 private:
  void worker_main();
  /// Claim-and-execute loop shared by workers and the calling thread;
  /// checks the cancellation flag before invoking the body.
  void execute_indices(std::size_t count, void* ctx, IndexFn fn);

  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for a job
  std::condition_variable done_cv_;  // run() waits for joined workers
  bool stop_ = false;
  // Current job, all guarded by mu_ (the index counter and failure flag are
  // atomics shared with the lock-free claim loop).
  std::uint64_t job_id_ = 0;
  std::size_t job_count_ = 0;
  void* job_ctx_ = nullptr;
  IndexFn job_fn_ = nullptr;
  unsigned job_limit_ = 0;    // workers still allowed to join
  unsigned job_running_ = 0;  // workers currently executing the job
  std::atomic<std::size_t> next_{0};
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;

  std::mutex run_mu_;  // serialises concurrent top-level run() calls
};

/// Minimal data-parallel helper: run f(i) for i in [0, count) on the global
/// ThreadPool. Deterministic: each index writes its own slot. See
/// ThreadPool::run for the exception/cancellation semantics.
template <typename Fn>
void parallel_for(std::size_t count, Fn&& f) {
  using Body = std::remove_reference_t<Fn>;
  ThreadPool::global().run(
      count, const_cast<Body*>(std::addressof(f)),
      [](void* ctx, std::size_t i) { (*static_cast<Body*>(ctx))(i); });
}

}  // namespace poe
