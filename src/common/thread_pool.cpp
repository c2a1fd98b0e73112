#include "common/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

namespace poe {

namespace {
// Set while a thread executes job indices — a pool worker, or the caller of
// run() taking its share — so nested parallel loops fall back to the serial
// path instead of re-entering the pool (and its non-recursive run_mu_).
thread_local bool t_in_pool = false;

// Marks the current thread as executing pool work for its lifetime and
// restores the previous value, also when the body throws.
class InPoolScope {
 public:
  InPoolScope() : saved_(t_in_pool) { t_in_pool = true; }
  ~InPoolScope() { t_in_pool = saved_; }
  InPoolScope(const InPoolScope&) = delete;
  InPoolScope& operator=(const InPoolScope&) = delete;

 private:
  bool saved_;
};

void run_serial(std::size_t count, void* ctx, ThreadPool::IndexFn fn) {
  // An exception stops the loop; remaining indices never start (matching
  // the documented cancellation semantics).
  for (std::size_t i = 0; i < count; ++i) fn(ctx, i);
}
}  // namespace

unsigned ThreadPool::parse_threads_env(const char* value) {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  if (value == nullptr || *value == '\0') return hw;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || parsed < 0) return hw;
  return parsed == 0 ? hw : static_cast<unsigned>(parsed);
}

unsigned ThreadPool::default_parallelism() {
  static const unsigned cached = parse_threads_env(std::getenv("POE_THREADS"));
  return cached;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(default_parallelism() - 1);
  return pool;
}

ThreadPool::ThreadPool(unsigned workers) {
  threads_.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    threads_.emplace_back([this] { worker_main(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& th : threads_) th.join();
}

void ThreadPool::execute_indices(std::size_t count, void* ctx, IndexFn fn) {
  for (;;) {
    // Cancellation check BEFORE claiming and invoking: once a failure has
    // been observed, no new body invocation begins.
    if (failed_.load(std::memory_order_acquire)) return;
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) return;
    if (failed_.load(std::memory_order_acquire)) return;
    try {
      fn(ctx, i);
    } catch (...) {
      if (!failed_.exchange(true, std::memory_order_acq_rel)) {
        error_ = std::current_exception();
      }
      return;
    }
  }
}

void ThreadPool::worker_main() {
  const InPoolScope in_pool;
  std::unique_lock<std::mutex> lock(mu_);
  std::uint64_t seen = 0;
  for (;;) {
    work_cv_.wait(lock, [&] {
      return stop_ || (job_id_ != seen && job_limit_ > 0);
    });
    if (stop_) return;
    seen = job_id_;
    --job_limit_;
    ++job_running_;
    const std::size_t count = job_count_;
    void* ctx = job_ctx_;
    const IndexFn fn = job_fn_;
    lock.unlock();
    execute_indices(count, ctx, fn);
    lock.lock();
    if (--job_running_ == 0) done_cv_.notify_one();
  }
}

void ThreadPool::run(std::size_t count, void* ctx, IndexFn fn) {
  if (count == 0) return;
  if (count == 1 || workers() == 0 || t_in_pool) {
    run_serial(count, ctx, fn);
    return;
  }

  std::lock_guard<std::mutex> run_lock(run_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    next_.store(0, std::memory_order_relaxed);
    failed_.store(false, std::memory_order_relaxed);
    error_ = nullptr;
    job_count_ = count;
    job_ctx_ = ctx;
    job_fn_ = fn;
    // The caller takes one index; at most count - 1 workers join.
    job_limit_ =
        static_cast<unsigned>(std::min<std::size_t>(count - 1, workers()));
    job_running_ = 0;
    ++job_id_;
  }
  work_cv_.notify_all();
  {
    const InPoolScope in_pool;
    execute_indices(count, ctx, fn);
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    job_limit_ = 0;  // close the job: late wakers must not join it
    done_cv_.wait(lock, [&] { return job_running_ == 0; });
  }
  if (failed_.load(std::memory_order_acquire) && error_) {
    std::rethrow_exception(error_);
  }
}

}  // namespace poe
