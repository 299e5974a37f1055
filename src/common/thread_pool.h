#ifndef DCER_COMMON_THREAD_POOL_H_
#define DCER_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dcer {

class TaskGroup;

/// Persistent work-stealing thread pool: the single execution substrate of
/// the repo. Every worker thread owns a Chase–Lev-style deque (the owner
/// pushes and pops LIFO at the bottom; thieves CAS-steal FIFO from the top),
/// so recently spawned tasks run cache-hot on their producer while idle
/// threads drain the oldest — and typically largest — subtrees of a fork.
/// External threads submit through an injection queue and help execute while
/// they wait, so a TaskGroup::Wait never deadlocks even on a single-thread
/// pool. The pool stays alive across supersteps/scopes/calls; creating and
/// joining std::threads per round is exactly the churn this class removes.
///
/// Determinism: the pool executes tasks in a nondeterministic order, so
/// callers that need reproducible output split work into a deterministic
/// number of ordered tasks, buffer per-task results, and merge them by task
/// index afterwards (see Master::Dispatch and the DMatch supersteps).
class ThreadPool {
 public:
  /// Spawns `num_threads` worker threads (clamped to >= 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(threads_.size()); }

  /// The process-wide pool, sized max(2, hardware_concurrency) — large
  /// enough to exercise real concurrency even on one-core machines. Created
  /// on first use, joined at process exit.
  static ThreadPool& Global();

  /// Runs body(lo, hi) over [begin, end) split into chunks of at most
  /// `grain` items, in parallel, and blocks until every chunk finished.
  /// grain == 0 picks ~4 chunks per pool thread. The chunk boundaries are a
  /// pure function of (begin, end, grain), so callers can index per-chunk
  /// buffers by lo / grain for deterministic merges. Exceptions thrown by
  /// `body` are rethrown (first one wins).
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t lo, size_t hi)>& body);

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group;
  };

  // Chase–Lev work-stealing deque (Le et al., "Correct and Efficient
  // Work-Stealing for Weak Memory Models", PPoPP'13), with the fence-based
  // relaxed accesses strengthened to seq_cst on top_/bottom_: standalone
  // atomic_thread_fences are invisible to ThreadSanitizer and the stronger
  // orderings cost one fence per owner pop — noise at our task granularity.
  // Slots hold raw Task pointers in a growable circular buffer; retired
  // buffers are kept until destruction so racing thieves never touch freed
  // memory.
  class Deque {
   public:
    Deque();
    ~Deque();

    void Push(Task* task);  // owner only
    Task* Pop();            // owner only
    Task* Steal();          // any thread; nullptr on empty or lost race

   private:
    struct Buffer {
      explicit Buffer(size_t capacity)
          : mask(capacity - 1),
            slots(std::make_unique<std::atomic<Task*>[]>(capacity)) {}
      size_t capacity() const { return mask + 1; }
      Task* Get(int64_t i) const {
        return slots[static_cast<size_t>(i) & mask].load(
            std::memory_order_relaxed);
      }
      void Put(int64_t i, Task* t) {
        slots[static_cast<size_t>(i) & mask].store(t,
                                                   std::memory_order_relaxed);
      }
      const size_t mask;
      std::unique_ptr<std::atomic<Task*>[]> slots;
    };

    Buffer* Grow(Buffer* old, int64_t top, int64_t bottom);

    std::atomic<int64_t> top_{1};
    std::atomic<int64_t> bottom_{1};
    std::atomic<Buffer*> buffer_;
    std::vector<std::unique_ptr<Buffer>> retired_;  // owner only
  };

  // Enqueues a task: onto the current worker's own deque when called from a
  // pool thread, else onto the injection queue. Wakes a sleeper.
  void Submit(Task* task);

  // Tries to acquire and execute one task (own deque first, then the
  // injection queue, then stealing). `self` < 0 for external helpers.
  // Returns false when no task was found.
  bool RunOneTask(int self);

  Task* TryAcquire(int self);
  static void Execute(Task* task);
  void WorkerLoop(int self);

  std::vector<std::unique_ptr<Deque>> deques_;  // one per worker thread
  std::mutex inject_mutex_;
  std::deque<Task*> inject_;

  // Eventcount-lite: Submit bumps signal_ under wake_mutex_; a worker that
  // found nothing re-checks signal_ against its pre-scan snapshot before
  // sleeping, which closes the lost-wakeup window.
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  uint64_t signal_ = 0;
  std::atomic<bool> stop_{false};

  std::vector<std::thread> threads_;

  static thread_local ThreadPool* current_pool_;
  static thread_local int worker_index_;
};

/// Fork/join scope over a ThreadPool. Run() forks a task; Wait() blocks
/// until every task forked through this group finished, executing other pool
/// tasks while it waits (help-first join), and rethrows the first exception
/// any task threw. Groups nest freely: a task may create and wait on its own
/// TaskGroup. A group may be reused after Wait() returns.
class TaskGroup {
 public:
  /// nullptr selects ThreadPool::Global().
  explicit TaskGroup(ThreadPool* pool = nullptr);

  /// Waits for outstanding tasks (exceptions swallowed — call Wait() to
  /// observe them).
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Forks `fn` onto the pool.
  void Run(std::function<void()> fn);

  /// Joins: returns once all forked tasks completed. Rethrows the first
  /// captured exception.
  void Wait();

 private:
  friend class ThreadPool;
  void OnTaskDone(std::exception_ptr exception);

  ThreadPool* pool_;
  std::atomic<int64_t> pending_{0};
  std::mutex exception_mutex_;
  std::exception_ptr exception_;
};

}  // namespace dcer

#endif  // DCER_COMMON_THREAD_POOL_H_
