#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "obs/registry.h"
#include "util/error.h"

namespace fedvr::util {

namespace {

// Set for the lifetime of every worker thread; parallel_for consults it to
// run nested invocations inline instead of deadlocking the pool.
thread_local bool tls_in_worker = false;

// The global pool lives behind an atomic pointer so the hot path (one
// acquire load) stays cheap while reset_global() can still swap pools.
std::unique_ptr<ThreadPool>& global_storage() {
  static std::unique_ptr<ThreadPool> storage;
  return storage;
}

std::mutex& global_mutex() {
  static std::mutex m;
  return m;
}

std::atomic<ThreadPool*> g_global_pool{nullptr};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  tasks_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::note_enqueued() {
  if (!obs::enabled()) return;
  FEDVR_OBS_COUNT("pool.tasks_submitted", 1);
  obs::Registry::global().gauge("pool.queue_depth").add(1.0);
}

void ThreadPool::note_dequeued() {
  if (!obs::enabled()) return;
  FEDVR_OBS_COUNT("pool.tasks_executed", 1);
  obs::Registry::global().gauge("pool.queue_depth").add(-1.0);
}

// TSAN: all queue and stopping_ state is exchanged under mutex_, and
// submit()'s std::future (run_chunks: its job mutex) provides the
// release/acquire edge that publishes a task's side effects to the waiter.
// The only lock-free traffic here is the obs counters above, which are
// sharded atomics (see obs/registry.h).
void ThreadPool::worker_loop() {
  tls_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      // Time spent blocked here is worker idle time (observability only).
      const std::uint64_t wait_start = obs::enabled() ? obs::now_ns() : 0;
      cv_.wait(lock, [this] { return stopping_ || head_ < tasks_.size(); });
      if (wait_start != 0) {
        FEDVR_OBS_COUNT("pool.idle_ns", obs::now_ns() - wait_start);
      }
      if (head_ == tasks_.size()) return;  // stopping_ and drained
      task = std::move(tasks_[head_++]);
      if (head_ == tasks_.size()) {
        tasks_.clear();
        head_ = 0;
      }
    }
    note_dequeued();
    task();
  }
}

std::size_t ThreadPool::chunk_count(std::size_t begin, std::size_t end,
                                    std::size_t grain) const {
  FEDVR_CHECK(begin <= end);
  const std::size_t n = end - begin;
  if (n == 0) return 0;
  grain = std::max<std::size_t>(grain, 1);
  const std::size_t max_chunks = std::max<std::size_t>(size(), 1);
  return tls_in_worker ? 1 : std::min(max_chunks, (n + grain - 1) / grain);
}

void ThreadPool::enqueue(std::function<void()> task) {
  note_enqueued();  // may throw (obs registry) before anything is queued
  {
    std::scoped_lock lock(mutex_);
    if (tasks_.size() == tasks_.capacity() && head_ > 0) {
      // Reuse the taken prefix before growing.
      tasks_.erase(tasks_.begin(),
                   tasks_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    tasks_.push_back(std::move(task));  // no effect if it throws
  }
  cv_.notify_one();
}

void ThreadPool::run_chunks(
    std::size_t begin, std::size_t end, std::size_t chunks,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  // The chunks call through `fn`, which lives in the caller's frame, and
  // report to `job`, which lives in this one, so this call must not return
  // or throw while a chunk it enqueued may still run: it waits until as
  // many chunks have finished as were enqueued, also when an enqueue throws
  // part way through the loop. A queued chunk holds only &job and its
  // index, which std::function stores without allocating.
  struct Job {
    const std::function<void(std::size_t, std::size_t)>& fn;
    std::size_t begin;
    std::size_t end;
    std::size_t chunk_len;
    std::mutex mutex;
    std::condition_variable done;
    std::size_t finished = 0;
    std::size_t error_lo = 0;  // start of the lowest chunk that threw
    std::exception_ptr error;

    [[nodiscard]] std::size_t lo(std::size_t c) const {
      return begin + c * chunk_len;
    }
    [[nodiscard]] std::size_t hi(std::size_t c) const {
      return std::min(end, lo(c) + chunk_len);
    }
    void run(std::size_t c) {
      std::exception_ptr chunk_error;
      try {
        fn(lo(c), hi(c));
      } catch (...) {
        chunk_error = std::current_exception();
      }
      // Notify under the lock: the caller destroys the job as soon as it
      // sees the last chunk finished.
      std::scoped_lock lock(mutex);
      if (chunk_error && (!error || lo(c) < error_lo)) {
        error = chunk_error;
        error_lo = lo(c);
      }
      ++finished;
      done.notify_all();
    }
  } job{fn, begin, end, (end - begin + chunks - 1) / chunks};
  std::size_t queued = 0;
  std::exception_ptr enqueue_error;
  for (std::size_t c = 0; c < chunks && job.lo(c) < job.hi(c); ++c) {
    try {
      enqueue([&job, c] { job.run(c); });
      ++queued;
    } catch (...) {
      enqueue_error = std::current_exception();
      break;
    }
  }
  std::unique_lock lock(job.mutex);
  job.done.wait(lock, [&] { return job.finished == queued; });
  if (enqueue_error) std::rethrow_exception(enqueue_error);
  if (job.error) std::rethrow_exception(job.error);
}

bool ThreadPool::in_worker() { return tls_in_worker; }

ThreadPool& ThreadPool::global() {
  ThreadPool* pool = g_global_pool.load(std::memory_order_acquire);
  if (pool != nullptr) return *pool;
  std::scoped_lock lock(global_mutex());
  auto& storage = global_storage();
  if (!storage) {
    storage = std::make_unique<ThreadPool>();
    g_global_pool.store(storage.get(), std::memory_order_release);
  }
  return *storage;
}

void ThreadPool::reset_global(std::size_t threads) {
  std::scoped_lock lock(global_mutex());
  auto& storage = global_storage();
  g_global_pool.store(nullptr, std::memory_order_release);
  storage.reset();  // joins the old workers before the new pool spins up
  storage = std::make_unique<ThreadPool>(threads);
  g_global_pool.store(storage.get(), std::memory_order_release);
}

}  // namespace fedvr::util
