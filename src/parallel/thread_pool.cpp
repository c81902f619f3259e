#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "core/error.hpp"
#include "core/thread_annotations.hpp"

namespace ocb {

/// One stack-allocated parallel region. Published on the pool's
/// intrusive list under the pool mutex; `next` is the only field
/// touched outside it (lock-free chunk claiming). Disjoint chunks need
/// no ordering between claimants, and completion is observed through
/// the mutex, so relaxed atomics suffice.
struct ThreadPool::RangeJob {
  RangeFn fn = nullptr;
  void* ctx = nullptr;
  std::size_t end = 0;
  std::size_t chunk = 1;
  std::atomic<std::size_t> next{0};  ///< next unclaimed index

  // Guarded by the owning pool's mutex_.
  std::size_t active = 0;     ///< claimants currently inside fn
  bool linked = false;        ///< still reachable from range_head_
  std::exception_ptr error;   ///< first chunk exception (rethrown by caller)
  RangeJob* next_job = nullptr;
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0)
    threads = default_workers(std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  OCB_CHECK_MSG(static_cast<bool>(task), "submit of empty task");
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    MutexLock lock(mutex_);
    OCB_CHECK_MSG(!stopping_, "submit on a stopping pool");
    queue_.push_back(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::worker_loop() {
  mutex_.lock();
  for (;;) {
    if (range_head_ != nullptr) {
      run_range_chunks(*range_head_);
      continue;
    }
    if (!queue_.empty()) {
      std::packaged_task<void()> task = std::move(queue_.front());
      queue_.pop_front();
      mutex_.unlock();
      task();  // exceptions are captured by the packaged_task
      mutex_.lock();
      continue;
    }
    if (stopping_) break;  // stopping and drained
    cv_.wait(mutex_);
  }
  mutex_.unlock();
}

void ThreadPool::run_range_chunks(RangeJob& job) {
  ++job.active;
  mutex_.unlock();
  std::exception_ptr error;
  for (;;) {
    const std::size_t lo =
        job.next.fetch_add(job.chunk, std::memory_order_relaxed);
    if (lo >= job.end) break;
    tasks_dispatched_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t hi = std::min(job.end, lo + job.chunk);
    try {
      job.fn(job.ctx, lo, hi);
    } catch (...) {
      error = std::current_exception();
      // Cancel chunks nobody claimed yet; claimants already inside fn
      // finish their chunk.
      job.next.store(job.end, std::memory_order_relaxed);
      break;
    }
  }
  mutex_.lock();
  if (error && !job.error) job.error = error;
  if (job.linked && job.next.load(std::memory_order_relaxed) >= job.end)
    unlink_range_job(job);
  --job.active;
  if (job.active == 0) range_cv_.notify_all();
}

void ThreadPool::unlink_range_job(RangeJob& job) {
  RangeJob** p = &range_head_;
  while (*p != &job) p = &(*p)->next_job;
  *p = job.next_job;
  job.linked = false;
}

void ThreadPool::for_range_impl(std::size_t begin, std::size_t end,
                                RangeFn fn, void* ctx, std::size_t grain) {
  if (begin >= end) return;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t n = end - begin;

  // Small ranges run inline, no synchronisation. The floor is
  // pool-size-aware: a range with fewer grains than executors cannot
  // hand every thread a full chunk, and on such jobs — packed-GEMM
  // panel loops with grain 1 on small shapes — the wake + claim
  // round-trip costs more than the leftover parallelism wins. A
  // one-worker pool still splits: with the caller it is two executors.
  const std::size_t executors = this->executors();
  const std::size_t grains = (n + grain - 1) / grain;
  if (n <= grain || grains < executors) {
    fn(ctx, begin, end);
    return;
  }

  // Chunk geometry mirrors the old future-based splitter: at most
  // 4 chunks per executor, never below the grain. Everything lives on
  // this stack frame.
  const std::size_t chunks = std::min(executors * 4, grains);
  RangeJob job;
  job.fn = fn;
  job.ctx = ctx;
  job.end = end;
  job.chunk = (n + chunks - 1) / chunks;
  job.next.store(begin, std::memory_order_relaxed);

  mutex_.lock();
  job.next_job = range_head_;
  range_head_ = &job;
  job.linked = true;
  cv_.notify_all();
  run_range_chunks(job);  // the caller is an executor too
  // The caller claimed until the cursor hit `end` and its postlude
  // unlinked the job, so no new claimant can appear; wait for the ones
  // still inside fn. After this the stack frame is safe to die.
  while (job.active != 0) range_cv_.wait(mutex_);
  OCB_DCHECK_MSG(!job.linked, "retired range job still published");
  std::exception_ptr error = job.error;
  mutex_.unlock();
  if (error) std::rethrow_exception(error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace ocb
