// Exercises the annotated locking primitives (Mutex/MutexLock/CondVar,
// FirstErrorCollector) that Clang Thread Safety Analysis checks statically
// (see src/common/annotations.h and DESIGN.md §10). These tests prove the
// wrappers behave like the std primitives they wrap; the *annotations* are
// proven by the negative-compile check in tests/static_analysis (a
// CCPERF_GUARDED_BY misuse must fail to compile under
// -Werror=thread-safety).
#include "common/threading.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/check.h"

namespace ccperf {
namespace {

TEST(Mutex, LockUnlockRoundTrip) {
  Mutex mu;
  mu.Lock();
  mu.Unlock();
  mu.Lock();
  mu.Unlock();
  SUCCEED();
}

TEST(Mutex, TryLockReportsContention) {
  Mutex mu;
  ASSERT_TRUE(mu.TryLock());
  // A *different* thread must fail to acquire (try_lock on the owning
  // thread would be UB for std::mutex).
  bool acquired = true;
  std::thread probe([&] { acquired = mu.TryLock(); });
  probe.join();
  EXPECT_FALSE(acquired);
  mu.Unlock();
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(Mutex, GuardedCounterSurvivesParallelFor) {
  Mutex mu;
  // In real code this member-style guarded access is what the analysis
  // proves; here we just hammer the lock from the pool.
  int counter = 0;
  ParallelFor(
      0, 1000,
      [&](std::size_t) {
        MutexLock lock(mu);
        ++counter;
      },
      1);
  EXPECT_EQ(counter, 1000);
}

TEST(MutexLock, ReleasesOnScopeExit) {
  Mutex mu;
  { MutexLock lock(mu); }
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(CondVar, PredicatedWaitSeesNotification) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread producer([&] {
    MutexLock lock(mu);
    ready = true;
    cv.NotifyOne();
  });
  {
    MutexLock lock(mu);
    cv.Wait(mu, [&] { return ready; });
    EXPECT_TRUE(ready);
  }
  producer.join();
}

TEST(ScopedSerial, GuardedStateStillCorrectInline) {
  // Under ScopedSerial the ParallelFor body runs inline on this thread;
  // the lock degenerates to uncontended acquire/release and the result
  // must be identical to the pooled run.
  ScopedSerial serial;
  Mutex mu;
  int counter = 0;
  ParallelFor(
      0, 257,
      [&](std::size_t) {
        MutexLock lock(mu);
        ++counter;
      },
      1);
  EXPECT_EQ(counter, 257);
}

TEST(FirstErrorCollector, EmptyCollectorIsSilent) {
  FirstErrorCollector errors;
  errors.RethrowIfError();  // must not throw
}

TEST(FirstErrorCollector, KeepsLowestIndexAcrossThreads) {
  FirstErrorCollector errors;
  ParallelFor(
      0, 64,
      [&](std::size_t i) {
        if (i % 2 == 1) errors.Record(i, "error at " + std::to_string(i));
      },
      1);
  try {
    errors.RethrowIfError();
    FAIL() << "expected CheckError";
  } catch (const CheckError& error) {
    EXPECT_STREQ(error.what(), "error at 1");
  }
}

TEST(FirstErrorCollector, LaterHigherIndexDoesNotOverwrite) {
  FirstErrorCollector errors;
  errors.Record(3, "three");
  errors.Record(7, "seven");
  errors.Record(2, "two");
  try {
    errors.RethrowIfError();
    FAIL() << "expected CheckError";
  } catch (const CheckError& error) {
    EXPECT_STREQ(error.what(), "two");
  }
}

}  // namespace
}  // namespace ccperf
