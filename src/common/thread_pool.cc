#include "common/thread_pool.h"

#include <algorithm>
#include <exception>

#include "common/logging.h"

namespace duet {

namespace {
// Nested ParallelFor calls from inside a worker run serially: a worker that
// blocks on its own chunks could occupy every worker and deadlock.
thread_local bool t_inside_worker = false;
}  // namespace

void CompletionLatch::CountDown(std::exception_ptr error) {
  std::lock_guard<std::mutex> lock(mu_);
  if (error && !first_error_) first_error_ = error;
  if (--remaining_ == 0) done_cv_.notify_all();
}

void CompletionLatch::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return remaining_ == 0; });
  if (first_error_) std::rethrow_exception(first_error_);
}

ThreadPool::ThreadPool(unsigned num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    DUET_CHECK(!stop_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    t_inside_worker = true;
    try {
      task();
    } catch (...) {
      // A raw Submit task let an exception escape. Unwinding further would
      // reach the thread entry point and terminate the process; swallow it
      // here so the worker — and the in-flight accounting below — survive.
      escaped_exceptions_.fetch_add(1, std::memory_order_relaxed);
    }
    t_inside_worker = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--in_flight_ == 0) done_cv_.notify_all();
    }
  }
}

namespace {
/// Global pool slot; the pool is intentionally leaked (workers outlive
/// static dtors). Readers take the acquire-load fast path; the first use
/// and SetGlobalThreads construct under the mutex, so concurrent first
/// callers (e.g. several engine workers entering ParallelForChunked at
/// once) build exactly one pool and never see a half-constructed one.
std::atomic<ThreadPool*> g_global_pool{nullptr};
std::mutex g_global_pool_mu;
}  // namespace

ThreadPool& ThreadPool::Global() {
  ThreadPool* pool = g_global_pool.load(std::memory_order_acquire);
  if (pool != nullptr) return *pool;
  std::lock_guard<std::mutex> lock(g_global_pool_mu);
  pool = g_global_pool.load(std::memory_order_relaxed);
  if (pool == nullptr) {
    pool = new ThreadPool();
    g_global_pool.store(pool, std::memory_order_release);
  }
  return *pool;
}

void ThreadPool::SetGlobalThreads(unsigned num_threads) {
  std::lock_guard<std::mutex> lock(g_global_pool_mu);
  delete g_global_pool.load(std::memory_order_relaxed);  // joins the old workers
  g_global_pool.store(new ThreadPool(num_threads), std::memory_order_release);
}

void ParallelFor(int64_t begin, int64_t end, const std::function<void(int64_t)>& fn,
                 bool parallel, int64_t grain) {
  ParallelForChunked(
      begin, end,
      [&fn](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) fn(i);
      },
      parallel, grain);
}

void ParallelForChunked(int64_t begin, int64_t end,
                        const std::function<void(int64_t, int64_t)>& fn, bool parallel,
                        int64_t grain) {
  if (begin >= end) return;
  const int64_t n = end - begin;
  ThreadPool& pool = ThreadPool::Global();
  const int64_t max_chunks = static_cast<int64_t>(pool.num_threads()) * 4;
  // A single-worker pool cannot overlap anything with the caller; chunking
  // through it only buys context switches.
  if (!parallel || t_inside_worker || n <= grain || max_chunks <= 1 ||
      pool.num_threads() <= 1) {
    fn(begin, end);
    return;
  }
  const int64_t chunk = std::max<int64_t>((n + max_chunks - 1) / max_chunks, grain);
  // The first exception thrown by any chunk is rethrown on the calling
  // thread after the batch drains, so callers see the same behavior as the
  // serial path (and no exception ever reaches a worker's thread entry point).
  CompletionLatch latch((n + chunk - 1) / chunk);
  for (int64_t lo = begin; lo < end; lo += chunk) {
    const int64_t hi = std::min(lo + chunk, end);
    pool.Submit([&latch, &fn, lo, hi] {
      std::exception_ptr error;
      try {
        fn(lo, hi);
      } catch (...) {
        error = std::current_exception();
      }
      latch.CountDown(error);
    });
  }
  latch.Wait();
}

}  // namespace duet
