#include "common/threading.h"

#include <algorithm>
#include <atomic>
#include <latch>
#include <utility>

#include "common/check.h"

namespace ccperf {

namespace {
// The pool whose WorkerLoop this thread is running, if any; parallel loops
// consult it so a loop issued from inside a GlobalPool task runs inline
// instead of blocking a worker on work that needs that same worker.
thread_local const ThreadPool* tls_worker_pool = nullptr;
// Depth of ScopedSerial scopes alive on this thread.
thread_local int tls_serial_depth = 0;
}  // namespace

// The std::condition_variable underneath requires a std::unique_lock over
// the raw std::mutex; adopt the already-held lock for the duration of the
// block and release it back to the caller's MutexLock afterwards. The
// analysis cannot see through the adopt/release dance, which is exactly why
// this is the only place it happens.
void CondVar::Wait(Mutex& mu) {
  std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
  cv_.wait(lock);
  lock.release();
}

void FirstErrorCollector::Record(std::size_t index, std::string message) {
  MutexLock lock(mutex_);
  if (index < index_) {
    index_ = index;
    message_ = std::move(message);
  }
}

void FirstErrorCollector::RethrowIfError() const {
  MutexLock lock(mutex_);
  if (index_ == SIZE_MAX) return;
  throw CheckError(message_);
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  job_available_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> job) {
  {
    MutexLock lock(mutex_);
    CCPERF_CHECK(!stopping_, "Submit on stopping pool");
    jobs_.push(std::move(job));
  }
  job_available_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  tls_worker_pool = this;
  for (;;) {
    std::function<void()> job;
    {
      MutexLock lock(mutex_);
      job_available_.Wait(mutex_, [this]() CCPERF_REQUIRES(mutex_) {
        return stopping_ || !jobs_.empty();
      });
      if (jobs_.empty()) return;  // stopping_ and drained
      job = std::move(jobs_.front());
      jobs_.pop();
    }
    job();
  }
}

ThreadPool& GlobalPool() {
  static ThreadPool pool;
  return pool;
}

bool OnGlobalPoolWorker() {
  return tls_worker_pool != nullptr && tls_worker_pool == &GlobalPool();
}

ScopedSerial::ScopedSerial() { ++tls_serial_depth; }
ScopedSerial::~ScopedSerial() { --tls_serial_depth; }

void ParallelFor(std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& fn,
                 std::size_t grain) {
  ParallelForChunks(
      begin, end,
      [&fn](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      },
      grain);
}

void ParallelForChunks(std::size_t begin, std::size_t end,
                       const std::function<void(std::size_t, std::size_t)>& fn,
                       std::size_t grain) {
  if (begin >= end) return;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t n = end - begin;
  // Run inline when splitting cannot help (small range, one worker), when
  // the caller asked for serial execution, or when we are already on a
  // GlobalPool worker — a nested dispatch would block this worker waiting
  // for chunks that may need this very worker to run.
  if (tls_serial_depth > 0 || OnGlobalPoolWorker() || n < 2 * grain) {
    fn(begin, end);
    return;
  }
  ThreadPool& pool = GlobalPool();
  const std::size_t workers = pool.ThreadCount();
  if (workers <= 1) {
    fn(begin, end);
    return;
  }
  const std::size_t chunks =
      std::min(workers * 4, std::max<std::size_t>(1, n / grain));
  const std::size_t chunk = (n + chunks - 1) / chunks;
  const std::size_t live = (n + chunk - 1) / chunk;  // non-empty chunks
  // Per-call latch: each caller waits only on its own chunks, so
  // overlapping dispatch from several threads never blocks one caller on
  // another's jobs.
  std::latch done(static_cast<std::ptrdiff_t>(live));
  std::atomic<bool> failed{false};
  for (std::size_t c = 0; c < live; ++c) {
    const std::size_t lo = begin + c * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    pool.Submit([&fn, &failed, &done, lo, hi] {
      try {
        fn(lo, hi);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
      }
      done.count_down();
    });
  }
  done.wait();
  CCPERF_CHECK(!failed.load(), "a ParallelFor task threw an exception");
}

}  // namespace ccperf
