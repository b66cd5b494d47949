#include "hamlet/common/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "hamlet/common/env.h"
#include "hamlet/common/mutex.h"
#include "hamlet/common/thread_annotations.h"

namespace hamlet {
namespace parallel {

namespace {

/// True while this thread is executing a ParallelFor body (worker or
/// participating caller); nested submissions then run serially inline.
thread_local bool tls_in_parallel_region = false;

}  // namespace

size_t HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

size_t ConfiguredThreads() {
  const std::optional<uint64_t> n = UnsignedFromEnv("HAMLET_THREADS", 1, 1024);
  return n ? static_cast<size_t>(*n) : HardwareThreads();
}

struct ThreadPool::Impl {
  /// One index-range job. Each submission allocates a fresh Job so a
  /// late-waking worker that picks up an already-drained job holds that
  /// job's own exhausted cursor: it can never claim indices from (or
  /// reset the progress of) a newer submission, and it only dereferences
  /// `body` for indices it actually claimed — which a drained cursor
  /// never hands out — so the caller-stack body outlives every use.
  struct Job {
    size_t n = 0;
    size_t chunk = 1;
    const std::function<void(size_t)>* body = nullptr;
    std::atomic<size_t> next{0};
  };

  explicit Impl(size_t num_threads) : num_threads(num_threads) {}

  ~Impl() {
    // Lock discipline: swap the worker list out under `mu`, join
    // outside it — joining under the mutex would deadlock against
    // workers re-acquiring it to exit their wait.
    std::vector<std::thread> to_join;
    {
      MutexLock lock(mu);
      stop = true;
      to_join.swap(workers);
    }
    work_cv.NotifyAll();
    for (std::thread& t : to_join) t.join();
  }

  /// Spawns the T-1 workers on the first submission.
  void StartWorkersLocked() HAMLET_REQUIRES(mu) {
    started = true;
    workers.reserve(num_threads - 1);
    for (size_t w = 0; w + 1 < num_threads; ++w) {
      workers.emplace_back([this] { WorkerLoop(); });
    }
  }

  void WorkerLoop() {
    tls_in_parallel_region = true;
    uint64_t seen = 0;
    mu.Lock();
    for (;;) {
      // Explicit wait loop (not a predicate lambda): the condition
      // reads guarded members, which the analysis can only verify
      // inside this annotated function body.
      while (!stop && generation == seen) work_cv.Wait(mu);
      if (stop) break;
      seen = generation;
      std::shared_ptr<Job> claimed = job;
      ++active;
      mu.Unlock();
      RunChunks(*claimed);
      mu.Lock();
      if (--active == 0) done_cv.NotifyOne();
    }
    mu.Unlock();
  }

  /// Claims chunks off the job's cursor until its range is exhausted.
  void RunChunks(Job& j) {
    for (;;) {
      const size_t begin = j.next.fetch_add(j.chunk, std::memory_order_relaxed);
      if (begin >= j.n) return;
      const size_t end = std::min(j.n, begin + j.chunk);
      for (size_t i = begin; i < end; ++i) {
        try {
          (*j.body)(i);
        } catch (...) {
          MutexLock lock(error_mu);
          if (!error) error = std::current_exception();
        }
      }
    }
  }

  const size_t num_threads;

  Mutex submit_mu;  // serializes concurrent external submissions

  Mutex mu;
  CondVar work_cv;
  CondVar done_cv;
  std::vector<std::thread> workers HAMLET_GUARDED_BY(mu);
  bool stop HAMLET_GUARDED_BY(mu) = false;
  bool started HAMLET_GUARDED_BY(mu) = false;
  uint64_t generation HAMLET_GUARDED_BY(mu) = 0;
  /// Workers currently inside RunChunks.
  size_t active HAMLET_GUARDED_BY(mu) = 0;
  /// Current submission.
  std::shared_ptr<Job> job HAMLET_GUARDED_BY(mu);

  Mutex error_mu;
  std::exception_ptr error HAMLET_GUARDED_BY(error_mu);
};

ThreadPool::ThreadPool(size_t num_threads)
    : num_threads_(std::max<size_t>(1, num_threads)),
      impl_(new Impl(num_threads_)) {}

ThreadPool::~ThreadPool() { delete impl_; }

void ThreadPool::For(size_t n, const std::function<void(size_t)>& body) {
  if (n == 0) return;
  if (num_threads_ == 1 || n == 1 || tls_in_parallel_region) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }

  MutexLock submit(impl_->submit_mu);
  auto job = std::make_shared<Impl::Job>();
  job->n = n;
  // Chunks several times smaller than a fair share keep the tail
  // balanced when per-index costs vary (grid points differ wildly).
  job->chunk = std::max<size_t>(1, n / (num_threads_ * 8));
  job->body = &body;
  {
    MutexLock lock(impl_->mu);
    if (!impl_->started) impl_->StartWorkersLocked();
    impl_->job = job;
    ++impl_->generation;
  }
  impl_->work_cv.NotifyAll();

  tls_in_parallel_region = true;
  impl_->RunChunks(*job);
  tls_in_parallel_region = false;

  std::exception_ptr error;
  {
    // The cursor is exhausted once our RunChunks returns; waiting for
    // `active == 0` under `mu` both drains in-flight workers and
    // publishes their body side effects to this thread.
    MutexLock lock(impl_->mu);
    while (impl_->active != 0) impl_->done_cv.Wait(impl_->mu);
  }
  {
    MutexLock lock(impl_->error_mu);
    std::swap(error, impl_->error);
  }
  if (error) std::rethrow_exception(error);
}

Status ThreadPool::ForStatus(size_t n,
                             const std::function<Status(size_t)>& body) {
  if (num_threads_ == 1 || n <= 1 || tls_in_parallel_region) {
    // Exact serial protocol: stop at the first error, which is also the
    // lowest-index error, so the returned Status matches the parallel path.
    for (size_t i = 0; i < n; ++i) {
      Status st = body(i);
      if (!st.ok()) return st;
    }
    return Status::OK();
  }

  Mutex first_mu;
  size_t first_index = n;
  Status first_status;
  For(n, [&](size_t i) {
    Status st = body(i);
    if (!st.ok()) {
      MutexLock lock(first_mu);
      if (i < first_index) {
        first_index = i;
        first_status = std::move(st);
      }
    }
  });
  return first_index == n ? Status::OK() : first_status;
}

namespace {

Mutex g_default_pool_mu;
std::unique_ptr<ThreadPool> g_default_pool
    HAMLET_GUARDED_BY(g_default_pool_mu);

}  // namespace

ThreadPool& DefaultPool() {
  MutexLock lock(g_default_pool_mu);
  if (g_default_pool == nullptr) {
    g_default_pool = std::make_unique<ThreadPool>(ConfiguredThreads());
  }
  return *g_default_pool;
}

void ParallelFor(size_t n, const std::function<void(size_t)>& body) {
  DefaultPool().For(n, body);
}

Status ParallelForStatus(size_t n,
                         const std::function<Status(size_t)>& body) {
  return DefaultPool().ForStatus(n, body);
}

void ResetDefaultPoolForTesting() {
  MutexLock lock(g_default_pool_mu);
  g_default_pool.reset();
}

}  // namespace parallel
}  // namespace hamlet
