// Fixed-size worker pool.
//
// The suite's data-parallel kernels (GEMM, convolution, rendering) are
// expressed as range tasks submitted to this pool. Following the
// hpc-parallel guides: parallelism is explicit, ownership is RAII, and
// correctness does not depend on the worker count, so every algorithm is
// also exercised at threads == 1. The global pool starts one worker
// fewer than the CPUs: a for_range caller runs chunks too, so workers
// plus the caller fill the cores without oversubscribing them.
//
// Two execution paths:
//  * submit() — long-lived tasks (streaming stage workers, server
//    workers); packaged_task + future, allocates, cold path.
//  * for_range() — the kernel hot path. The parallel region is a
//    stack-allocated RangeJob published on an intrusive list; workers
//    and the caller claim chunks off a shared atomic cursor, and the
//    caller blocks until the last claimant retires. No futures, no
//    std::function, no heap traffic: a warmed Engine::run that fans its
//    GEMMs out through for_range stays allocation-free (the AllocGuard
//    contract, DESIGN.md §10).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/thread_annotations.hpp"

namespace ocb {

class ThreadPool {
 public:
  /// `threads == 0` selects default_workers(hardware_concurrency()).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Threads that run a for_range: the workers plus the calling thread.
  /// Kernels size their waves of blocks and stripes to this count.
  std::size_t executors() const noexcept { return workers_.size() + 1; }

  /// Workers for a host with `hw` CPUs (hardware_concurrency(), which
  /// reports 0 when unknown): hw − 1, so workers plus the caller equal
  /// the CPUs, and never below one, since submit() needs a thread.
  static constexpr std::size_t default_workers(unsigned hw) noexcept {
    return hw > 2 ? static_cast<std::size_t>(hw) - 1 : 1;
  }

  /// Total range chunks claimed through the pool since construction
  /// (inline fallbacks dispatch none). Observability hook for the
  /// pool-size-aware dispatch floor in for_range: small ranges must not
  /// pay per-chunk wake/claim overhead, and tests assert it.
  std::uint64_t tasks_dispatched() const noexcept {
    return tasks_dispatched_.load(std::memory_order_relaxed);
  }

  /// Enqueue a task; the returned future reports completion/exceptions.
  std::future<void> submit(std::function<void()> task) OCB_EXCLUDES(mutex_);

  /// Run `fn(i)` for i in [begin, end) across the pool and wait; the
  /// caller participates in the work. The first chunk exception is
  /// rethrown and cancels chunks not yet claimed. Heap-free on the
  /// success path (see file comment).
  template <typename Fn>
  void for_range(std::size_t begin, std::size_t end, Fn&& fn,
                 std::size_t grain = 1) {
    using F = std::remove_reference_t<Fn>;
    for_range_impl(
        begin, end,
        [](void* ctx, std::size_t lo, std::size_t hi) {
          F& f = *static_cast<F*>(ctx);
          for (std::size_t i = lo; i < hi; ++i) f(i);
        },
        const_cast<void*>(static_cast<const void*>(std::addressof(fn))),
        grain);
  }

  /// Process-wide default pool (lazily constructed).
  static ThreadPool& global();

 private:
  /// Runs a contiguous index sub-range [lo, hi) against a caller
  /// context; the type-erased form of for_range's callable.
  using RangeFn = void (*)(void* ctx, std::size_t lo, std::size_t hi);

  struct RangeJob;

  void for_range_impl(std::size_t begin, std::size_t end, RangeFn fn,
                      void* ctx, std::size_t grain) OCB_EXCLUDES(mutex_);
  void worker_loop() OCB_EXCLUDES(mutex_);
  /// Claim and execute chunks of `job` until exhausted; drops the pool
  /// lock around the user callable and re-acquires before returning.
  void run_range_chunks(RangeJob& job) OCB_REQUIRES(mutex_);
  void unlink_range_job(RangeJob& job) OCB_REQUIRES(mutex_);

  std::vector<std::thread> workers_;  // immutable between ctor and dtor
  // Lock-free relaxed counter (monotonic, no ordering needed).
  std::atomic<std::uint64_t> tasks_dispatched_{0};

  Mutex mutex_;
  CondVar cv_;        ///< workers: task queued, range published, or stopping
  CondVar range_cv_;  ///< for_range callers: a range job retired a claimant
  std::deque<std::packaged_task<void()>> queue_ OCB_GUARDED_BY(mutex_);
  RangeJob* range_head_ OCB_GUARDED_BY(mutex_) = nullptr;
  bool stopping_ OCB_GUARDED_BY(mutex_) = false;
};

}  // namespace ocb
