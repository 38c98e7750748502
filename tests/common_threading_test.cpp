#include "common/threading.h"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <numeric>
#include <vector>

#include "common/check.h"

namespace ccperf {
namespace {

TEST(ThreadPool, RunsAllJobs) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::latch done(100);
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter, &done] {
      counter.fetch_add(1);
      done.count_down();
    });
  }
  done.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ThreadCountAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_GE(pool.ThreadCount(), 1u);
}

TEST(ThreadPool, SequentialBatches) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    std::latch done(20);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter, &done] {
        counter.fetch_add(1);
        done.count_down();
      });
    }
    done.wait();
    EXPECT_EQ(counter.load(), 20 * (round + 1));
  }
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(0, hits.size(),
              [&hits](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  ParallelFor(5, 5, [&called](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SubRange) {
  std::atomic<long> sum{0};
  ParallelFor(10, 20, [&sum](std::size_t i) { sum.fetch_add(static_cast<long>(i)); }, 1);
  EXPECT_EQ(sum.load(), 145);  // 10+...+19
}

TEST(ParallelForChunks, ChunksCoverRangeWithoutOverlap) {
  std::vector<std::atomic<int>> hits(5000);
  ParallelForChunks(
      0, hits.size(),
      [&hits](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      },
      64);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForChunks, SmallRangeRunsSerially) {
  int calls = 0;
  ParallelForChunks(
      0, 10,
      [&calls](std::size_t lo, std::size_t hi) {
        ++calls;
        EXPECT_EQ(lo, 0u);
        EXPECT_EQ(hi, 10u);
      },
      256);
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForChunks, RangeJustBelowTwoGrainRunsAsOneChunk) {
  // n < 2*grain must stay a single inline chunk — including nonzero begin.
  int calls = 0;
  ParallelForChunks(
      100, 611,  // 511 iterations, grain 256
      [&calls](std::size_t lo, std::size_t hi) {
        ++calls;
        EXPECT_EQ(lo, 100u);
        EXPECT_EQ(hi, 611u);
      },
      256);
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForChunks, RangeExactlyTwoGrainMaySplitButCoversRange) {
  // n == 2*grain is the smallest range allowed to go parallel; coverage and
  // exactly-once semantics must hold whichever way it is scheduled.
  std::vector<std::atomic<int>> hits(512);
  ParallelForChunks(
      0, hits.size(),
      [&hits](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      },
      256);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, NestedCallsFromInsideParallelForDoNotDeadlock) {
  // A ParallelFor body that itself calls ParallelFor: the inner loops run
  // inline on whichever thread executes the outer chunk. The old
  // implementation waited on the pool's global in-flight counter here and
  // deadlocked when issued from a worker.
  std::vector<std::atomic<int>> hits(64 * 64);
  ParallelFor(
      0, 64,
      [&hits](std::size_t outer) {
        ParallelFor(
            0, 64,
            [&hits, outer](std::size_t inner) {
              hits[outer * 64 + inner].fetch_add(1);
            },
            1);
      },
      1);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, NestedCallFromSubmittedWorkerJobDoesNotDeadlock) {
  // ParallelFor issued from inside a job running ON a global-pool worker —
  // the exact shape of the conv kernel calling ParallelForChunks from a
  // batched outer loop.
  std::atomic<long> sum{0};
  std::latch done(1);
  GlobalPool().Submit([&sum, &done] {
    ParallelFor(
        0, 1000, [&sum](std::size_t i) { sum.fetch_add(static_cast<long>(i)); },
        8);
    done.count_down();
  });
  done.wait();
  EXPECT_EQ(sum.load(), 499500);
}

TEST(ParallelFor, OverlappingCallsFromMultipleThreads) {
  // Several external threads issuing ParallelFor concurrently: each call
  // waits only on its own chunks (per-call latch), so no call can consume
  // another's completion signal or return early.
  constexpr int kThreads = 4;
  constexpr std::size_t kN = 4096;
  std::vector<std::vector<std::atomic<int>>> hits(kThreads);
  for (auto& v : hits) {
    v = std::vector<std::atomic<int>>(kN);
  }
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hits, t] {
      for (int round = 0; round < 8; ++round) {
        ParallelFor(
            0, kN, [&hits, t](std::size_t i) { hits[t][i].fetch_add(1); }, 16);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (const auto& h : hits[t]) ASSERT_EQ(h.load(), 8) << "thread " << t;
  }
}

TEST(ParallelFor, SubmitFromMultipleThreadsWhileLoopsRun) {
  // Raw Submit traffic interleaved with ParallelFor from other threads:
  // the per-call latch must be insensitive to unrelated queue activity.
  std::atomic<int> submitted_done{0};
  std::latch drained(200);
  std::atomic<long> loop_sum{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&submitted_done, &drained] {
    for (int i = 0; i < 200; ++i) {
      GlobalPool().Submit([&submitted_done, &drained] {
        submitted_done.fetch_add(1);
        drained.count_down();
      });
    }
  });
  threads.emplace_back([&loop_sum] {
    for (int round = 0; round < 4; ++round) {
      ParallelFor(
          0, 2000,
          [&loop_sum](std::size_t i) {
            loop_sum.fetch_add(static_cast<long>(i));
          },
          8);
    }
  });
  for (auto& th : threads) th.join();
  drained.wait();  // the raw submissions
  EXPECT_EQ(submitted_done.load(), 200);
  EXPECT_EQ(loop_sum.load(), 4L * 1999000);
}

TEST(ScopedSerialTest, ForcesSingleInlineChunk) {
  ScopedSerial serial;
  std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  ParallelForChunks(
      0, 100000,
      [&calls, caller](std::size_t lo, std::size_t hi) {
        ++calls;
        EXPECT_EQ(lo, 0u);
        EXPECT_EQ(hi, 100000u);
        EXPECT_EQ(std::this_thread::get_id(), caller);
      },
      1);
  EXPECT_EQ(calls, 1);
}

TEST(ScopedSerialTest, IsScopedToItsBlock) {
  {
    ScopedSerial serial;
    int calls = 0;
    ParallelForChunks(
        0, 100000, [&calls](std::size_t, std::size_t) { ++calls; }, 1);
    EXPECT_EQ(calls, 1);
  }
  // After the scope ends, parallel splitting is allowed again (on a
  // multi-core pool this produces > 1 chunk; on 1 core it stays serial).
  std::atomic<int> calls{0};
  ParallelForChunks(
      0, 100000, [&calls](std::size_t, std::size_t) { calls.fetch_add(1); },
      1);
  if (GlobalPool().ThreadCount() > 1) {
    EXPECT_GT(calls.load(), 1);
  } else {
    EXPECT_EQ(calls.load(), 1);
  }
}

TEST(ParallelFor, TaskExceptionSurfacesAsCheckError) {
  // Exceptions inside tasks must not crash the pool; they surface as a
  // CheckError after the barrier (only when the range actually splits).
  if (GlobalPool().ThreadCount() <= 1) {
    GTEST_SKIP() << "single-threaded pool runs serially";
  }
  EXPECT_THROW(
      ParallelFor(
          0, 10000, [](std::size_t i) { CCPERF_CHECK(i != 5000, "boom"); }, 1),
      CheckError);
}

TEST(ParallelFor, NestedVerifierErrorSurfacesAtTheOuterCall) {
  // The ABFT-verification shape: an outer parallel sweep whose body runs a
  // nested ParallelForChunks (the per-column checksum verify) that throws
  // when it finds corruption. Nested calls run inline on pool workers, so
  // the inner error must cross the outer chunk boundary and surface as the
  // outer call's CheckError — no deadlock, no lost error, and the pool must
  // stay usable afterwards.
  if (GlobalPool().ThreadCount() <= 1) {
    GTEST_SKIP() << "single-threaded pool runs serially";
  }
  std::atomic<int> inner_calls{0};
  EXPECT_THROW(
      ParallelFor(
          0, 256,
          [&inner_calls](std::size_t i) {
            ParallelForChunks(
                0, 64,
                [&inner_calls, i](std::size_t lo, std::size_t hi) {
                  inner_calls.fetch_add(1, std::memory_order_relaxed);
                  CCPERF_CHECK(i != 100 || lo != 0,
                               "checksum mismatch in column ", hi);
                },
                8);
          },
          1),
      CheckError);
  EXPECT_GT(inner_calls.load(), 0);

  // The pool survives: a clean sweep still visits every index.
  std::vector<int> hits(512, 0);
  ParallelFor(0, hits.size(), [&hits](std::size_t i) { hits[i] = 1; }, 1);
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 512);
}

TEST(ParallelFor, SerialModePreservesTheOriginalErrorMessage) {
  // Under ScopedSerial everything runs inline, so the FIRST failing index
  // throws directly and its message survives verbatim — the debugging path
  // for reproducing a corruption hit deterministically.
  ScopedSerial serial;
  std::size_t last_seen = 0;
  try {
    ParallelFor(
        0, 1000,
        [&last_seen](std::size_t i) {
          last_seen = i;
          CCPERF_CHECK(i != 41, "corrupted at index ", i);
        },
        1);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("corrupted at index 41"),
              std::string::npos)
        << e.what();
  }
  // Inline execution stops at the first error: nothing past 41 ran.
  EXPECT_EQ(last_seen, 41u);
}

}  // namespace
}  // namespace ccperf
