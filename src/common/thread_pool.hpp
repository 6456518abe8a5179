#pragma once
// A small fork-join host thread pool used to run simulated-CPU work bodies
// concurrently on the host.
//
// The pool distributes the indices of a `parallel_for` through a shared
// atomic counter, so idle threads steal whatever indices remain — a blocked
// caller never waits on an *unclaimed* index, it claims and runs it itself.
// That property makes nested `parallel_for` calls (a Machine region fanning
// out per node, each node fanning out per rank) deadlock-free even with a
// single host thread: every batch is fully driven by at least its initiating
// thread.
//
// The pool moves *host* work around; it must never change *simulated*
// results. Callers are responsible for handing it bodies whose side effects
// are confined to per-index state (see Node::parallel).

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace ncar {

class ThreadPool {
public:
  /// A pool of `threads` host threads in total, counting the caller of
  /// `parallel_for`; `threads - 1` workers are spawned. `threads <= 1`
  /// spawns no workers, and `parallel_for` degenerates to an inline loop.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Host threads participating in parallel_for, including the caller.
  int thread_count() const { return static_cast<int>(workers_.size()) + 1; }

  /// Run `fn(i)` for every i in [0, n), concurrently, returning when all
  /// calls have completed. The calling thread participates. If any calls
  /// throw, the exception thrown by the *lowest* index is rethrown (after
  /// every claimed index has finished), so propagation is deterministic.
  void parallel_for(int n, const std::function<void(int)>& fn);

  /// The process-wide pool, lazily created with `configured_host_threads()`
  /// threads on first use.
  static ThreadPool& global();

  /// Host thread count from SX4NCAR_HOST_THREADS (0 counts as 1), or
  /// std::thread::hardware_concurrency() when unset. Throws config_error
  /// for a malformed value (see parse_host_threads).
  static int configured_host_threads();

  /// The one SX4NCAR_HOST_THREADS grammar, shared by the pool size and the
  /// execution policy: an integer in [0, 1024], where 0 and 1 both mean
  /// sequential host execution. Returns nullopt when `value` is nullptr or
  /// empty (unset); throws ncar::config_error naming the knob otherwise.
  static std::optional<int> parse_host_threads(const char* value);

private:
  struct Batch;

  void worker_loop();
  static void run_index(Batch& b, int i);
  static void claim_and_run(Batch& b);
  void remove(const std::shared_ptr<Batch>& b);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Batch>> active_;
  bool stop_ = false;
};

}  // namespace ncar
