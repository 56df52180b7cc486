#include "util/round_pool.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "util/contracts.hpp"

namespace hh::util {

namespace {

/// Poll iterations before a waiting thread parks. A bound on iterations,
/// not on time: long enough to cover the serial stretch between two
/// kernels of one round (the pairing's acceptance pass, the census) so a
/// steady stream of rounds never pays a wake-up — about 160 µs on the
/// 4-vCPU Xeon VM the pool was tuned on (20 ns per pause) — and short
/// enough that an idle pool soon stops burning its cores. The poll never
/// yields: on that VM, yielding pollers let the OS stack every worker
/// onto the caller's CPU for the whole run.
constexpr int kSpinIterations = 1 << 13;

/// Low half of the job and claim words: the chunk count / claimed-chunk
/// bits; the high half is the job's sequence number.
constexpr std::uint64_t kChunkMask = 0xffffffffULL;

thread_local int t_inline_depth = 0;
thread_local int t_reversed_depth = 0;
/// True on pool workers and on a caller while its job runs: a kernel
/// started from inside a chunk runs inline (and never re-enters busy_).
thread_local bool t_in_job = false;

std::atomic<std::size_t> g_pinned_workers{0};
/// Set in a forked child: the pool's threads did not survive the fork.
std::atomic<bool> g_forked{false};

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Wait until `word` differs from `old`: poll, then park. Returns the new
/// value (acquire).
template <typename T>
T await_change(const std::atomic<T>& word, T old) {
  for (int i = 0; i < kSpinIterations; ++i) {
    const T now = word.load(std::memory_order_acquire);
    if (now != old) return now;
    cpu_relax();
  }
  for (;;) {
    word.wait(old, std::memory_order_acquire);
    const T now = word.load(std::memory_order_acquire);
    if (now != old) return now;
  }
}

class RoundPool {
 public:
  static RoundPool& instance() {
    static RoundPool pool;
    return pool;
  }

  RoundPool(const RoundPool&) = delete;
  RoundPool& operator=(const RoundPool&) = delete;

  ~RoundPool() {
    if (g_forked.load(std::memory_order_relaxed)) {
      // The threads exist only in the parent; joining them here would
      // hang. Leak the handles instead.
      (void)threads_.release();
      return;
    }
    stop_.store(true, std::memory_order_relaxed);
    post_.fetch_add(std::uint64_t{1} << 32, std::memory_order_release);
    post_.notify_all();
    for (std::thread& t : *threads_) t.join();
  }

  void run(std::size_t chunks, detail::ChunkFn fn, void* body) {
    HH_EXPECTS(chunks >= 2 && chunks <= kMaxRoundChunks);
    std::unique_lock<std::mutex> lock(busy_, std::defer_lock);
    if (t_in_job || !lock.try_lock() ||
        g_forked.load(std::memory_order_relaxed) || !grow(chunks - 1)) {
      // A nested call, another thread's job in flight, or no helper
      // threads to be had: run every chunk here, in chunk order — same
      // result.
      for (std::size_t c = 0; c < chunks; ++c) fn(body, c);
      return;
    }
    t_in_job = true;
    fn_ = fn;
    body_ = body;
    pending_.store(static_cast<std::uint32_t>(chunks - 1),
                   std::memory_order_relaxed);
    const std::uint64_t seq =
        ((post_.load(std::memory_order_relaxed) >> 32) + 1) & kChunkMask;
    claims_.store((seq << 32) | 1u, std::memory_order_release);  // chunk 0
    post_.store((seq << 32) | chunks, std::memory_order_release);
    post_.notify_all();

    run_chunk(0);
    // Then take over any chunk whose worker has not started it yet (a
    // parked or descheduled worker would otherwise hold up the round).
    for (std::size_t c = 1; c < chunks; ++c) {
      if (claim(seq, c)) finish_chunk(c);
    }
    std::uint32_t left = pending_.load(std::memory_order_acquire);
    while (left != 0) left = await_change(pending_, left);
    t_in_job = false;

    for (std::size_t c = 0; c < chunks; ++c) {
      if (errors_[c]) {
        std::exception_ptr error = std::move(errors_[c]);
        for (std::size_t d = c; d < chunks; ++d) errors_[d] = nullptr;
        std::rethrow_exception(error);
      }
    }
  }

 private:
  RoundPool() : threads_(std::make_unique<std::vector<std::thread>>()) {
    // Only the forking thread survives a fork(); the child's pool must
    // never wait on helpers that are not there.
    pthread_atfork(nullptr, nullptr,
                   [] { g_forked.store(true, std::memory_order_relaxed); });
  }

  /// Make sure `helpers` worker threads exist (busy_ held). False when a
  /// thread cannot be started.
  bool grow(std::size_t helpers) {
    std::vector<std::thread>& threads = *threads_;
    // A new worker must start from the job word as it is now, before the
    // job it is being started for is posted — reading it on the new
    // thread could already see that job and sit it out forever.
    const std::uint64_t seen = post_.load(std::memory_order_relaxed);
    try {
      while (threads.size() < helpers) {
        const std::size_t chunk = threads.size() + 1;
        const int cpu = start_cpu(chunk);
        threads.emplace_back(
            [this, chunk, seen, cpu] { worker_loop(chunk, seen, cpu); });
      }
    } catch (const std::system_error&) {
      return false;
    }
    return true;
  }

  /// The CPU the worker for `chunk` starts on: the chunk-th allowed CPU
  /// after the calling thread's, so the workers start spread out. Left to
  /// itself the OS sometimes started every new worker on the caller's
  /// CPU and took up to a second to spread them, each job meanwhile
  /// costing a full spin budget. -1 = no preference.
  static int start_cpu([[maybe_unused]] std::size_t chunk) {
#if defined(__linux__)
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    const int here = sched_getcpu();
    if (here < 0 || sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
      return -1;
    }
    int cpus[CPU_SETSIZE];
    int count = 0;
    int start = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      if (cpu == here) start = count;
      cpus[count++] = cpu;
    }
    if (count < 2) return -1;
    return cpus[(static_cast<std::size_t>(start) + chunk) %
                static_cast<std::size_t>(count)];
#else
    return -1;
#endif
  }

  /// Move the calling worker onto `cpu`, then lift the pin again: the
  /// worker starts there, and the OS stays free to move it later (a pin
  /// would chain it to a CPU that something else may come to occupy).
  static void move_to([[maybe_unused]] int cpu) {
#if defined(__linux__)
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (cpu < 0 ||
        pthread_getaffinity_np(pthread_self(), sizeof(allowed), &allowed) != 0) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0) {
      (void)pthread_setaffinity_np(pthread_self(), sizeof(allowed), &allowed);
    }
#endif
  }

  /// Claim chunk c of job `seq` for the calling thread; false when it is
  /// taken or that job is over.
  bool claim(std::uint64_t seq, std::size_t c) {
    const std::uint64_t bit = std::uint64_t{1} << c;
    std::uint64_t word = claims_.load(std::memory_order_acquire);
    while ((word >> 32) == seq && (word & bit) == 0) {
      if (claims_.compare_exchange_weak(word, word | bit,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        return true;
      }
    }
    return false;
  }

  void run_chunk(std::size_t c) {
    try {
      fn_(body_, c);
    } catch (...) {
      errors_[c] = std::current_exception();
    }
  }

  /// Run claimed helper chunk c and count it done.
  void finish_chunk(std::size_t c) {
    run_chunk(c);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_.notify_one();
    }
  }

  void worker_loop(std::size_t chunk, std::uint64_t seen, int cpu) {
    t_in_job = true;
    move_to(cpu);
    for (;;) {
      seen = await_change(post_, seen);
      if (stop_.load(std::memory_order_relaxed)) return;
      // Own chunk first (it keeps each chunk's lanes in one core's cache
      // from job to job), then any other a late worker left unclaimed.
      // Claims carry the job's sequence, so a worker waking up late can
      // never run a chunk of a job it did not see posted.
      const std::uint64_t seq = seen >> 32;
      const std::size_t chunks = seen & kChunkMask;
      if (chunk < chunks && claim(seq, chunk)) finish_chunk(chunk);
      for (std::size_t c = 1; c < chunks; ++c) {
        if (claim(seq, c)) finish_chunk(c);
      }
    }
  }

  std::mutex busy_;  ///< held by the caller of the job in flight
  std::unique_ptr<std::vector<std::thread>> threads_;  ///< [i] owns chunk i+1
  /// The job word: (sequence << 32) | chunk count. Bumped once per job.
  std::atomic<std::uint64_t> post_{0};
  /// (sequence << 32) | bit per chunk already claimed by some thread.
  std::atomic<std::uint64_t> claims_{0};
  /// Helper chunks of the current job not finished yet.
  std::atomic<std::uint32_t> pending_{0};
  std::atomic<bool> stop_{false};
  // Job description, written before the job is published and read by a
  // thread only after it claimed one of the job's chunks.
  detail::ChunkFn fn_ = nullptr;
  void* body_ = nullptr;
  std::array<std::exception_ptr, kMaxRoundChunks> errors_{};
};

}  // namespace

std::size_t round_workers() {
  const std::size_t pinned = g_pinned_workers.load(std::memory_order_relaxed);
  if (pinned != 0) return pinned;
  static const std::size_t hardware = [] {
#if defined(__linux__)
    // The CPUs this process may run on (a cpuset or taskset narrows
    // them), not every CPU the machine has.
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      return static_cast<std::size_t>(std::max(1, CPU_COUNT(&allowed)));
    }
#endif
    return static_cast<std::size_t>(
        std::max(1u, std::thread::hardware_concurrency()));
  }();
  return hardware;
}

void set_round_workers(std::size_t workers) {
  g_pinned_workers.store(workers, std::memory_order_relaxed);
}

std::size_t round_chunks(std::size_t n) {
  if (t_inline_depth > 0 || t_in_job) return 1;
  const std::size_t chunks =
      std::min({round_workers(), n / kMinRoundChunk, kMaxRoundChunks});
  return std::max<std::size_t>(chunks, 1);
}

InlineRounds::InlineRounds() { ++t_inline_depth; }

InlineRounds::~InlineRounds() { --t_inline_depth; }

ReversedRounds::ReversedRounds() { ++t_reversed_depth; }

ReversedRounds::~ReversedRounds() { --t_reversed_depth; }

namespace detail {

void dispatch_chunks(std::size_t chunks, ChunkFn fn, void* body) {
  if (t_reversed_depth > 0) {
    for (std::size_t c = chunks; c-- > 0;) fn(body, c);
    return;
  }
  RoundPool::instance().run(chunks, fn, body);
}

}  // namespace detail

}  // namespace hh::util
