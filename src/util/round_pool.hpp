// The round pool: a persistent, process-wide set of worker threads that
// runs one simulated round's data-parallel kernels as chunks.
//
// A round kernel (the fused observe+decide sweep, the environment's
// classification pass, the counter-lottery propose loop, the matching
// bookkeeping, a colony-uniform round's decide, census and observe) is a
// loop over ants or request slots whose iterations touch only their own
// lanes plus a few shared tallies. Such a loop is split into
// contiguous chunks; each chunk keeps its own partial tallies, and the
// caller merges them after the join in chunk order. Every merge is an
// integer sum or an order-independent max, so a result never depends on
// the chunk count — one worker is one chunk over [0, n), the same code.
//
// The chunk count is derived from the input, never configured:
//   min(round_workers(), n / kMinRoundChunk, kMaxRoundChunks), at least 1,
// where round_workers() is the number of CPUs the process may run on
// unless a test pins it. A thread under an InlineRounds guard (every multi-worker
// Runner worker: the trial-level parallelism already owns the cores) or a
// pool worker itself always gets one chunk.
//
// Pool rules (DESIGN.md §10):
//   * lazy start — no thread exists until the first multi-chunk call;
//   * one job at a time — a second thread calling in while a job runs
//     executes its chunks inline on its own thread (same result);
//   * chunk c belongs to worker c (chunk 0 to the caller), which keeps a
//     chunk's lanes in one core's cache across rounds; a chunk whose
//     worker has not claimed it by the time another thread is free is
//     taken over, so one late (parked, descheduled) worker does not
//     stall the round;
//   * spin then park — between jobs a worker polls for a bounded number
//     of iterations (no clock: the core/env layers never read one), then
//     parks on the job word until the next job is posted;
//   * exceptions — a chunk's throw (e.g. an HH_EXPECTS in a kernel) is
//     captured on the worker and rethrown on the caller after the join;
//     when several chunks throw, the lowest chunk's exception wins, which
//     is the one the serial loop would have raised first.
//   * zero allocations once the pool has grown to the requested size.
#ifndef HH_UTIL_ROUND_POOL_HPP
#define HH_UTIL_ROUND_POOL_HPP

#include <cstddef>
#include <type_traits>

namespace hh::util {

/// Fewest items (ants, request slots) a round kernel chunk covers.
inline constexpr std::size_t kMinRoundChunk = 2048;
/// Most chunks one kernel is split into; sizes per-chunk partial arrays.
inline constexpr std::size_t kMaxRoundChunks = 16;

/// Chunks a round kernel over `n` items runs as on the calling thread
/// (see the header comment). Always in [1, kMaxRoundChunks].
[[nodiscard]] std::size_t round_chunks(std::size_t n);

/// First item of chunk `c` when `n` items are split into `chunks`
/// contiguous chunks; chunk c covers [chunk_begin(c), chunk_begin(c + 1)).
[[nodiscard]] inline std::size_t chunk_begin(std::size_t n, std::size_t chunks,
                                             std::size_t c) {
  return n * c / chunks;
}

/// The worker count round_chunks() uses: the CPUs in the process's
/// affinity mask (hardware_concurrency() where there is none), or the
/// value pinned by set_round_workers().
[[nodiscard]] std::size_t round_workers();

/// Test seam: pin round_workers() to `workers` (0 restores the hardware
/// default). Results never depend on it; tests use it to prove that.
void set_round_workers(std::size_t workers);

/// While alive, round kernels on this thread run as one chunk.
class InlineRounds {
 public:
  InlineRounds();
  ~InlineRounds();
  InlineRounds(const InlineRounds&) = delete;
  InlineRounds& operator=(const InlineRounds&) = delete;
};

/// Test seam: while alive, every multi-chunk kernel on this thread runs
/// its chunks on this thread, last chunk first. Results never depend on
/// the chunk order; tests use it to pin that deterministically — e.g. a
/// chunk storing past the end of its own range is overwritten by its
/// neighbour in chunk order, but not in reverse.
class ReversedRounds {
 public:
  ReversedRounds();
  ~ReversedRounds();
  ReversedRounds(const ReversedRounds&) = delete;
  ReversedRounds& operator=(const ReversedRounds&) = delete;
};

namespace detail {
using ChunkFn = void (*)(void* body, std::size_t chunk);
/// Run fn(body, c) for every c in [0, chunks); see run_chunks.
void dispatch_chunks(std::size_t chunks, ChunkFn fn, void* body);
}  // namespace detail

/// Run body(c) for every chunk c in [0, chunks) and return once all have
/// finished: chunk 0 on the calling thread, the rest on the pool. `chunks`
/// is normally round_chunks(n); 1 runs body(0) directly.
template <typename Body>
void run_chunks(std::size_t chunks, Body&& body) {
  if (chunks <= 1) {
    body(std::size_t{0});
    return;
  }
  using B = std::remove_reference_t<Body>;
  detail::dispatch_chunks(
      chunks,
      [](void* b, std::size_t c) { (*static_cast<B*>(b))(c); },
      const_cast<void*>(static_cast<const void*>(&body)));
}

}  // namespace hh::util

#endif  // HH_UTIL_ROUND_POOL_HPP
