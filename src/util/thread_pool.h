// A small fixed-size thread pool plus a blocking parallel_for.
//
// The federated engine uses this to run device-local training in parallel
// (Algorithm 1's "for n in N do in parallel"); the tensor kernels use
// parallel_for for data-parallel loops. Per the Core Guidelines concurrency
// rules, tasks share no mutable state: each device owns its slice, and
// parallel_for hands each worker a disjoint index range.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace fedvr::util {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues a task and returns a future for its result.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    enqueue([task] { (*task)(); });
    return result;
  }

  /// Runs fn(i) for i in [begin, end), partitioned into contiguous chunks
  /// across the pool, blocking until every index is done. Exceptions from
  /// any chunk propagate (the one from the lowest chunk is rethrown). It
  /// never returns or throws while a chunk it enqueued may still run: if
  /// enqueuing a chunk throws, it waits for the chunks already enqueued,
  /// then rethrows that error.
  ///
  /// Degenerates to a serial loop when the range is small, the pool has a
  /// single worker, or the caller is itself a pool worker (nested
  /// parallelism would deadlock a fixed-size pool: every worker could end
  /// up blocked waiting for queued chunks no thread is free to run).
  template <typename F>
  void parallel_for(std::size_t begin, std::size_t end, F&& fn,
                    std::size_t grain = 1) {
    parallel_ranges(
        begin, end,
        [&fn](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) fn(i);
        },
        grain);
  }

  /// Range-granular variant: fn(lo, hi) is invoked once per contiguous
  /// chunk instead of once per index, letting the body keep unit-stride
  /// inner loops. Chunk boundaries depend on the pool size, so only use
  /// this when per-element results are chunk-invariant (disjoint writes or
  /// per-element accumulation order fixed by the body) — the determinism
  /// contract requires bit-identical results across pool sizes.
  ///
  /// A range that runs on the caller calls fn directly, so the inline path
  /// never touches the heap; fn is type-erased (by reference) only to fan
  /// out.
  template <typename F>
  void parallel_ranges(std::size_t begin, std::size_t end, F&& fn,
                       std::size_t grain = 1) {
    const std::size_t chunks = chunk_count(begin, end, grain);
    if (chunks == 0) return;
    if (chunks == 1) {
      fn(begin, end);
      return;
    }
    run_chunks(begin, end, chunks, std::ref(fn));
  }

  /// True when the calling thread is a worker of any ThreadPool in this
  /// process. The kernels use this to fall back to serial execution when
  /// already running inside a parallel region.
  [[nodiscard]] static bool in_worker();

  /// Process-wide pool sized to the hardware. Prefer passing a pool
  /// explicitly; this exists for call sites (tensor kernels) where threading
  /// a pool through every expression would obscure the math.
  static ThreadPool& global();

  /// Replaces the global pool with one of `threads` workers (0 = hardware
  /// concurrency), joining the old pool first. Test/bench hook for
  /// comparing pool sizes; the caller must ensure no other thread is using
  /// the global pool during the swap.
  static void reset_global(std::size_t threads = 0);

 private:
  void worker_loop();
  // Queues `task` and wakes a worker. If it throws, nothing was queued.
  void enqueue(std::function<void()> task);
  // Chunks parallel_ranges splits [begin, end) into: 0 for an empty range,
  // 1 when it runs on the caller. Checks begin <= end.
  [[nodiscard]] std::size_t chunk_count(std::size_t begin, std::size_t end,
                                        std::size_t grain) const;
  // Submits `chunks` contiguous chunks of [begin, end) and blocks on them.
  void run_chunks(std::size_t begin, std::size_t end, std::size_t chunks,
                  const std::function<void(std::size_t, std::size_t)>& fn);
  // Out-of-line fedvr::obs hooks (pool.* counters/gauges) so this header
  // stays free of obs includes; no-ops while observability is disabled.
  static void note_enqueued();
  static void note_dequeued();

  std::vector<std::thread> workers_;
  // FIFO: workers take tasks_[head_++], and the vector is cleared, capacity
  // kept, when its last task is taken. It holds one slot per worker from
  // the start, and a fan-out queues at most size() chunks and waits for
  // them, so a fan-out never grows it.
  std::vector<std::function<void()>> tasks_;
  std::size_t head_ = 0;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace fedvr::util
