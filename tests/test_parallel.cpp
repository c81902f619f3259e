#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>

#include "core/error.hpp"

namespace ocb {
namespace {

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 20; ++i)
    futures.push_back(pool.submit([&counter] { ++counter; }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto future = pool.submit([] { throw Error("boom"); });
  EXPECT_THROW(future.get(), Error);
}

TEST(ThreadPool, SingleWorkerStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.for_range(0, 100, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ForRangeCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.for_range(0, 257, [&](std::size_t i) { ++hits[i]; }, 8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ForRangeEmptyRangeIsNoop) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.for_range(5, 5, [&](std::size_t) { ++counter; });
  pool.for_range(7, 3, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 0);
}

TEST(ThreadPool, ForRangeRethrowsChunkException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.for_range(0, 100,
                              [](std::size_t i) {
                                if (i == 50) throw Error("chunk failure");
                              }),
               Error);
}

TEST(ThreadPool, SubmitEmptyTaskThrows) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(std::function<void()>{}), Error);
}

TEST(ThreadPool, SmallRangesRunInlineWithoutDispatch) {
  // The pool-size-aware floor: a range with fewer grains than
  // executors (workers + caller) must run on the calling thread and
  // never touch the chunk cursor.
  ThreadPool pool(4);
  const std::uint64_t before = pool.tasks_dispatched();
  std::atomic<int> counter{0};
  pool.for_range(0, 4, [&](std::size_t) { ++counter; });  // 4 grains < 5
  pool.for_range(0, 64, [&](std::size_t) { ++counter; }, /*grain=*/64);
  pool.for_range(0, 100, [&](std::size_t) { ++counter; }, /*grain=*/25);
  EXPECT_EQ(counter.load(), 168);
  EXPECT_EQ(pool.tasks_dispatched(), before);
}

TEST(ThreadPool, SingleWorkerPoolSplitsOverTwoExecutors) {
  // A 2-CPU host gets one worker; with the caller that is two
  // executors, so a large range must still be split, not run inline.
  ThreadPool pool(1);
  EXPECT_EQ(pool.executors(), 2u);
  std::atomic<int> counter{0};
  pool.for_range(0, 10000, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 10000);
  EXPECT_GT(pool.tasks_dispatched(), 1u);
}

TEST(ThreadPool, DefaultWorkersLeaveOneCpuForTheCaller) {
  // Pure sizing rule, checked without starting a pool: workers plus the
  // calling thread equal the CPUs, an unknown count (0) does not wrap
  // the unsigned subtraction, and there is always a worker for submit().
  EXPECT_EQ(ThreadPool::default_workers(0), 1u);
  EXPECT_EQ(ThreadPool::default_workers(1), 1u);
  EXPECT_EQ(ThreadPool::default_workers(2), 1u);
  EXPECT_EQ(ThreadPool::default_workers(4), 3u);
  EXPECT_EQ(ThreadPool::default_workers(64), 63u);
  static_assert(ThreadPool::default_workers(8) == 7);
}

TEST(ThreadPool, GlobalPoolExecutorsMatchCpus) {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t executors = ThreadPool::global().executors();
  EXPECT_EQ(executors, ThreadPool::default_workers(hw) + 1);
  if (hw >= 2) EXPECT_EQ(executors, hw);
}

TEST(ThreadPool, LargeRangesDispatchBoundedChunks) {
  ThreadPool pool(4);
  const std::uint64_t before = pool.tasks_dispatched();
  std::atomic<int> counter{0};
  // 1000 grains across 5 executors: parallel path, at most
  // executors*4 = 20 chunks claimed in total (caller included).
  pool.for_range(0, 1000, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 1000);
  const std::uint64_t claimed = pool.tasks_dispatched() - before;
  EXPECT_GE(claimed, 1u);
  EXPECT_LE(claimed, 20u);
}

TEST(ParallelFor, GlobalPoolCoversRange) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelSum, MatchesSequentialSum) {
  std::vector<double> v(5000);
  std::iota(v.begin(), v.end(), 1.0);
  const double expected = std::accumulate(v.begin(), v.end(), 0.0);
  const double got = parallel_sum(v.size(), [&](std::size_t i) { return v[i]; });
  EXPECT_DOUBLE_EQ(got, expected);
}

TEST(ParallelSum, EmptyRangeIsZero) {
  EXPECT_DOUBLE_EQ(parallel_sum(0, [](std::size_t) { return 1.0; }), 0.0);
}

TEST(ParallelSum, SmallRangeRunsInline) {
  EXPECT_DOUBLE_EQ(parallel_sum(3, [](std::size_t i) {
                     return static_cast<double>(i);
                   }),
                   3.0);
}

// Grain-size regression guard for parallel_sum: every grain must
// produce the exact sequential result (chunk partials are summed in
// index order, so the reduction is deterministic), and a range no
// larger than one grain must run inline on the calling thread instead
// of paying a pool round-trip.
class ParallelSumGrainTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelSumGrainTest, MatchesSequentialAtEveryGrain) {
  const std::size_t grain = GetParam();
  const std::size_t n = 4097;
  double expected = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    expected += static_cast<double>(i) * 0.5 - 3.0;
  const double got = parallel_sum(
      n, [](std::size_t i) { return static_cast<double>(i) * 0.5 - 3.0; },
      grain);
  EXPECT_DOUBLE_EQ(got, expected) << "grain=" << grain;
}

INSTANTIATE_TEST_SUITE_P(Grains, ParallelSumGrainTest,
                         ::testing::Values(0, 1, 2, 7, 64, 1024, 5000));

// grain 0 used to divide by zero in the chunk-count computation when
// the range was large enough to leave the inline path.
TEST(ParallelSum, GrainZeroIsClampedNotDivByZero) {
  const std::size_t n = 10000;
  const double got =
      parallel_sum(n, [](std::size_t) { return 1.0; }, /*grain=*/0);
  EXPECT_DOUBLE_EQ(got, static_cast<double>(n));
}

TEST(ParallelSum, GrainLargerThanRangeRunsInline) {
  EXPECT_DOUBLE_EQ(parallel_sum(
                       5, [](std::size_t i) { return static_cast<double>(i); },
                       /*grain=*/1000),
                   10.0);
}

TEST(ParallelSum, SingleElementRange) {
  EXPECT_DOUBLE_EQ(parallel_sum(1, [](std::size_t) { return 42.0; }), 42.0);
  EXPECT_DOUBLE_EQ(
      parallel_sum(1, [](std::size_t) { return 42.0; }, /*grain=*/0), 42.0);
}

TEST(ParallelSum, RangeWithinOneGrainStaysOnCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(64);
  const double got = parallel_sum(
      seen.size(),
      [&](std::size_t i) {
        seen[i] = std::this_thread::get_id();
        return 1.0;
      },
      /*grain=*/seen.size());
  EXPECT_DOUBLE_EQ(got, static_cast<double>(seen.size()));
  for (const std::thread::id& id : seen) EXPECT_EQ(id, caller);
}

class ForRangeGrainTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ForRangeGrainTest, AllGrainsCoverRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.for_range(0, 100, [&](std::size_t i) { ++hits[i]; }, GetParam());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(Grains, ForRangeGrainTest,
                         ::testing::Values(0, 1, 2, 7, 32, 100, 1000));

TEST(ForRange, SingleElementRange) {
  ThreadPool pool(3);
  int hits = 0;
  pool.for_range(41, 42, [&](std::size_t i) {
    EXPECT_EQ(i, 41u);
    ++hits;
  });
  EXPECT_EQ(hits, 1);
}

TEST(ForRange, ReversedRangeIsNoopAtEveryGrain) {
  ThreadPool pool(2);
  for (std::size_t grain : {0u, 1u, 8u}) {
    int counter = 0;
    pool.for_range(10, 2, [&](std::size_t) { ++counter; }, grain);
    EXPECT_EQ(counter, 0) << "grain=" << grain;
  }
}

}  // namespace
}  // namespace ocb
