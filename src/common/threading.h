// Thread pool, parallel_for, and annotated locking primitives.
//
// The pool is created once per process (GlobalPool) sized to the hardware
// concurrency; kernels submit index ranges and block until completion.
// On a single-core host the pool degrades gracefully to serial execution.
//
// All locking in ccperf goes through the annotated Mutex/MutexLock/CondVar
// wrappers below instead of raw std::mutex, so Clang Thread Safety Analysis
// (-Wthread-safety, see annotations.h and DESIGN.md §10) can prove at
// compile time that every CCPERF_GUARDED_BY member is only touched under
// its lock.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.h"

namespace ccperf {

/// std::mutex wrapped as a Clang thread-safety capability. Prefer MutexLock
/// over manual Lock/Unlock pairs; manual calls exist for the rare staircase
/// patterns RAII cannot express.
class CCPERF_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() CCPERF_ACQUIRE() { mu_.lock(); }
  void Unlock() CCPERF_RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool TryLock() CCPERF_TRY_ACQUIRE(true) {
    return mu_.try_lock();
  }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock holding a Mutex for the enclosing scope.
class CCPERF_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CCPERF_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() CCPERF_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to the annotated Mutex. Every wait requires the
/// mutex held (the analysis enforces it at call sites); the lock is
/// released for the duration of the block and re-held on return, as with
/// std::condition_variable.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Block until notified (subject to spurious wakeups — loop on a
  /// predicate or use the predicated overload).
  void Wait(Mutex& mu) CCPERF_REQUIRES(mu);

  /// Block until pred() holds.
  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) CCPERF_REQUIRES(mu) {
    while (!pred()) Wait(mu);
  }

  void NotifyOne() noexcept { cv_.notify_one(); }
  void NotifyAll() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// Deterministic error funnel for parallel loops: tasks report failures by
/// index, callers rethrow the error of the *lowest* index after the loop —
/// so the surfaced failure does not depend on thread scheduling.
class FirstErrorCollector {
 public:
  /// Keep `message` if `index` is lower than any recorded so far.
  void Record(std::size_t index, std::string message)
      CCPERF_EXCLUDES(mutex_);

  /// Throws CheckError with the recorded message, if any.
  void RethrowIfError() const CCPERF_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  std::size_t index_ CCPERF_GUARDED_BY(mutex_) = SIZE_MAX;
  std::string message_ CCPERF_GUARDED_BY(mutex_);
};

/// Fixed-size worker pool executing void() jobs.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (>= 1).
  [[nodiscard]] std::size_t ThreadCount() const { return workers_.size(); }

  /// Enqueue a job for asynchronous execution. The pool offers no wait:
  /// a caller that needs its jobs finished counts them down on a latch of
  /// its own, as ParallelForChunks does.
  void Submit(std::function<void()> job) CCPERF_EXCLUDES(mutex_);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;  // written before workers start
  Mutex mutex_;
  CondVar job_available_;
  std::queue<std::function<void()>> jobs_ CCPERF_GUARDED_BY(mutex_);
  bool stopping_ CCPERF_GUARDED_BY(mutex_) = false;
};

/// Process-wide pool shared by all kernels.
ThreadPool& GlobalPool();

/// True when the calling thread is one of GlobalPool()'s workers. Parallel
/// loops issued from a worker run inline on that worker — they must not
/// block on the pool they are executing inside of.
[[nodiscard]] bool OnGlobalPoolWorker();

/// While alive, forces ParallelFor/ParallelForChunks issued from the
/// constructing thread to run inline (equivalent to a one-thread pool).
/// Used by determinism tests and latency-sensitive call sites.
class ScopedSerial {
 public:
  ScopedSerial();
  ~ScopedSerial();

  ScopedSerial(const ScopedSerial&) = delete;
  ScopedSerial& operator=(const ScopedSerial&) = delete;
};

/// Run fn(i) for i in [begin, end), splitting the range across the pool.
/// `grain` is the minimum number of iterations per task; ranges smaller than
/// 2*grain run serially on the calling thread. Safe to call concurrently
/// from multiple threads and from inside pool tasks (nested calls run
/// inline); each call waits only on its own chunks.
void ParallelFor(std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& fn,
                 std::size_t grain = 64);

/// Run fn(begin, end) over contiguous chunks in parallel — cheaper than
/// per-index dispatch for tight loops. Same nesting/overlap guarantees as
/// ParallelFor.
void ParallelForChunks(std::size_t begin, std::size_t end,
                       const std::function<void(std::size_t, std::size_t)>& fn,
                       std::size_t grain = 256);

}  // namespace ccperf
