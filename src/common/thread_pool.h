// A small fixed-size thread pool plus a blocking ParallelFor helper.
//
// The paper parallelizes Algorithm 1 (virtual-tuple sampling) per column and
// the MPSN encoders per column with "multi-threading to avoid the Python GIL
// limitation"; this pool is the C++ substrate for those paths and for
// batch-parallel inference (the stand-in for GPU batching, see DESIGN.md).
#ifndef DUET_COMMON_THREAD_POOL_H_
#define DUET_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace duet {

/// Fixed-size worker pool. Tasks are std::function<void()>; Wait() blocks
/// until all submitted tasks have drained.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (0 means std::thread::hardware_concurrency).
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task. If the task lets an exception escape, the pool
  /// swallows it (the worker survives and in-flight accounting still runs)
  /// and bumps escaped_exceptions(); batch helpers that need the error —
  /// ParallelFor/ParallelForChunked — catch inside the task and rethrow on
  /// the calling thread instead, so raw Submit is the only path that can
  /// reach this backstop.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has completed.
  void Wait();

  unsigned num_threads() const { return static_cast<unsigned>(workers_.size()); }

  /// Cumulative count of exceptions that escaped raw Submit tasks and were
  /// swallowed by the worker backstop. Before this counter, such an
  /// exception unwound the worker thread and terminated the process.
  uint64_t escaped_exceptions() const {
    return escaped_exceptions_.load(std::memory_order_relaxed);
  }

  /// Process-wide pool (lazily constructed, hardware concurrency).
  /// Thread-safe, including the first call.
  static ThreadPool& Global();

  /// Replaces the global pool with one of `num_threads` workers (0 =
  /// hardware concurrency). Must only be called while no parallel work is in
  /// flight; existing workers are joined first. Used by the thread-scaling
  /// ablation bench.
  static void SetGlobalThreads(unsigned num_threads);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_cv_;
  std::condition_variable done_cv_;
  uint64_t in_flight_ = 0;
  bool stop_ = false;
  std::atomic<uint64_t> escaped_exceptions_{0};
};

/// Completion latch for a fixed number of tasks, one per call: each task
/// calls CountDown() exactly once, handing over the exception it caught if
/// any, and Wait() blocks until every task has, then rethrows the first
/// such exception. CountDown notifies under the lock, so the waiter cannot
/// observe zero, return and destroy a stack-allocated latch until the last
/// CountDown has released it. Waiting on a per-call latch, never on the
/// pool's global in-flight count, keeps concurrent callers from waiting
/// for each other's tasks.
class CompletionLatch {
 public:
  explicit CompletionLatch(int64_t count) : remaining_(count) {}

  void CountDown(std::exception_ptr error = nullptr);
  void Wait();

 private:
  std::mutex mu_;
  std::condition_variable done_cv_;
  int64_t remaining_;
  std::exception_ptr first_error_;
};

/// Runs fn(i) for i in [begin, end) across the pool, splitting the range into
/// contiguous chunks. Falls back to a serial loop for tiny ranges or when
/// `parallel` is false (useful to measure single-thread costs). The call
/// returns once its own chunks have run: it never waits on work that other
/// callers submitted to the shared pool.
///
/// Exception contract: if fn throws on any chunk, the first exception is
/// captured, the batch still drains (remaining chunks may or may not run),
/// and the exception is rethrown on the calling thread — identical to the
/// serial path, and never fatal to a pool worker.
void ParallelFor(int64_t begin, int64_t end, const std::function<void(int64_t)>& fn,
                 bool parallel = true, int64_t grain = 1024);

/// Chunked variant: fn(chunk_begin, chunk_end) per contiguous chunk. This is
/// the workhorse for vectorized column kernels. Same exception contract as
/// ParallelFor.
void ParallelForChunked(int64_t begin, int64_t end,
                        const std::function<void(int64_t, int64_t)>& fn,
                        bool parallel = true, int64_t grain = 1024);

}  // namespace duet

#endif  // DUET_COMMON_THREAD_POOL_H_
