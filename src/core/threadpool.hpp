#pragma once
/// \file threadpool.hpp
/// \brief Fixed worker pool with statically-chunked parallel_for.
///
/// The reusable parallelism layer for every compute subsystem: the field
/// solver sweeps z-planes over it, the control layer fans out the bodies of
/// an episode, whole episodes and the chambers of a fleet over it, and
/// future subsystems (sensor scans, Monte Carlo flows) are expected to build
/// on it rather than spawning ad-hoc threads.
///
/// Design rules:
///  * Workers are created once and parked on a condition variable between
///    jobs — parallel_for has no per-call thread spawn cost.
///  * Work is split into contiguous chunks (static chunking); the calling
///    thread participates, so a pool of W workers yields W+1-way parallelism.
///  * Chunks must be independent: parallel_for gives no ordering guarantee
///    between chunks. Deterministic results are the *caller's* contract
///    (red-black coloring, per-particle RNG streams, ...).
///  * Exceptions thrown inside a chunk are captured and rethrown on the
///    calling thread after all chunks finish.

#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include <atomic>
#include <condition_variable>

namespace biochip::core {

/// Lifetime execution counters of one pool (observability, execution plane:
/// deterministic for a fixed worker configuration, but a serial run
/// dispatches no jobs at all — so these are exempt from the serial-vs-pooled
/// identity contract; see docs/observability.md). Drivers fold the
/// before/after *delta* of a run, not the process-lifetime totals.
struct PoolStats {
  std::uint64_t jobs = 0;       ///< parallel_for calls that executed work
  std::uint64_t chunks = 0;     ///< chunks executed across all jobs
  std::uint64_t max_parts = 0;  ///< widest single-job chunk fan-out

  /// Counters since `earlier` (max_parts is a high-water mark, not summed).
  PoolStats since(const PoolStats& earlier) const {
    return {jobs - earlier.jobs, chunks - earlier.chunks, max_parts};
  }
};

/// Fixed-size worker pool. Thread-safe for one parallel_for at a time per
/// pool instance; concurrent parallel_for calls on the same pool serialize.
class ThreadPool {
 public:
  /// `threads`: total parallelism including the caller (so `threads - 1`
  /// workers are spawned). 0 = one per hardware thread.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism (workers + calling thread).
  std::size_t size() const { return workers_.size() + 1; }

  /// Invoke `chunk_fn(chunk_begin, chunk_end)` over a static partition of
  /// [begin, end) into at most `max_parts` contiguous chunks (0 = pool
  /// size). Blocks until every chunk has finished; rethrows the first chunk
  /// exception. Runs inline on the caller when the range or pool is trivial.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& chunk_fn,
                    std::size_t max_parts = 0);

  /// Shared process-wide pool (lazily constructed, hardware-sized). Intended
  /// for library hot paths so they don't each own a set of threads.
  static ThreadPool& global();

  /// Snapshot of the lifetime execution counters (monotone; relaxed loads —
  /// read from serial driver code between jobs).
  PoolStats stats() const {
    return {jobs_total_.load(std::memory_order_relaxed),
            chunks_total_.load(std::memory_order_relaxed),
            max_parts_.load(std::memory_order_relaxed)};
  }

 private:
  // Chunk claiming is a single 64-bit ticket counter whose upper bits carry
  // the job generation and whose lower kPartBits bits carry the next chunk
  // index; publishing a job stores (generation << kPartBits) with release
  // semantics, and every claim is an acq_rel fetch_add. A claim is valid only
  // while its generation matches gen_parts_ (generation << kPartBits | parts,
  // also atomic), so a stale worker draining the previous job's ticket space
  // can never mix an old chunk index with the next job's chunk count — the
  // race window between writing the job fields and resetting a bare counter
  // that the original protocol left open (double-claimed chunks, early
  // completion signal on hardware with real concurrency).
  static constexpr unsigned kPartBits = 20;  // 1M chunks/job, ~17T generations
  static constexpr std::uint64_t kPartMask = (std::uint64_t{1} << kPartBits) - 1;

  void worker_loop();
  void run_chunk(std::size_t part, std::size_t parts);

  std::vector<std::thread> workers_;

  // Job state, guarded by m_ for the wakeup handshake; chunk claiming and
  // completion counting are lock-free.
  std::mutex m_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;

  // Plain fields below are published by the release store of ticket_ and only
  // read under a generation-validated claim (see claim_chunk), so they need no
  // atomicity of their own.
  const std::function<void(std::size_t, std::size_t)>* job_ = nullptr;
  std::size_t job_begin_ = 0;
  std::size_t job_end_ = 0;
  std::atomic<std::uint64_t> ticket_{0};     // generation << kPartBits | next part
  std::atomic<std::uint64_t> gen_parts_{0};  // generation << kPartBits | part count
  std::atomic<std::size_t> parts_done_{0};
  std::exception_ptr first_error_;
  std::mutex error_m_;

  // Execution counters (stats()): bumped once per dispatching parallel_for
  // call, never per chunk claim — no hot-path contention.
  std::atomic<std::uint64_t> jobs_total_{0};
  std::atomic<std::uint64_t> chunks_total_{0};
  std::atomic<std::uint64_t> max_parts_{0};

  // Serializes parallel_for calls on this pool instance.
  std::mutex job_m_;
};

}  // namespace biochip::core
