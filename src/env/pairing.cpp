#include "env/pairing.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <numeric>
#include <utility>

#include "util/contracts.hpp"
#include "util/round_pool.hpp"

namespace hh::env {

namespace {

// The greedy acceptance of the two lottery models keeps its state in one
// byte per request slot — the recruit_succeeded lane, zeroed first —
// rather than in both output lanes: bit 0 = taken as a target, bit 1 =
// matched as a recruiter. A byte lane is a quarter of the recruited_by
// lane, so its random accesses stay in cache.
constexpr std::uint8_t kTakenAsTarget = 1;
constexpr std::uint8_t kMatchedAsRecruiter = 2;

/// Offer the tentative edge w -> t to the greedy matching. In both
/// lottery models each target is offered at most once and each proposer
/// wins at most one target, so t cannot have been taken and w cannot have
/// recruited before this edge: it is taken iff t has not already
/// recruited and w has not already been recruited. A self-proposal
/// (w == t) always passes. Branch-free: the acceptance order makes every
/// decision data-dependent, so a branch on it would mispredict often.
inline void offer_edge(std::uint8_t* state, std::size_t w, std::size_t t) {
  const std::uint8_t take =
      ((state[t] & kMatchedAsRecruiter) | (state[w] & kTakenAsTarget)) == 0
          ? 1
          : 0;
  state[t] |= take;  // kTakenAsTarget
  state[w] |= static_cast<std::uint8_t>(take << 1);  // kMatchedAsRecruiter
}

/// The recruited_by entry of target t, proposed to by w, once the
/// acceptance has run.
inline std::int32_t taken_by(const std::uint8_t* state, std::size_t t,
                             std::int32_t w) {
  return (state[t] & kTakenAsTarget) != 0 ? w : kNotRecruited;
}

/// Turn the state bytes of [first, last) into recruit_succeeded flags,
/// in place.
inline void state_to_succeeded(std::uint8_t* first, std::uint8_t* last) {
  for (; first != last; ++first) *first = static_cast<std::uint8_t>(*first >> 1);
}

}  // namespace

void PairingScratch::reserve(std::size_t max_requests) {
  recruited_by.reserve(max_requests);
  recruit_succeeded.reserve(max_requests);
  perm.reserve(max_requests);
  proposal.reserve(max_requests);
  winner.reserve(max_requests);
  proposer_count.reserve(max_requests);
  ticket.reserve(max_requests);
  staged.reserve(max_requests);
}

PairingResult PairingModel::pair(std::span<const std::uint8_t> active,
                                 util::Rng& rng) const {
  PairingScratch scratch;
  pair_active(active, rng, scratch);
  PairingResult result;
  result.recruited_by = scratch.recruited_by;
  result.recruit_succeeded.assign(scratch.recruit_succeeded.begin(),
                                  scratch.recruit_succeeded.end());
  return result;
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
void PermutationPairing::pair_active(std::span<const std::uint8_t> active,
                                     const PairingCtx& ctx,
                                     PairingScratch& scratch) const {
  util::Rng& rng = ctx.rng;
  const std::size_t m = active.size();
  scratch.recruited_by.assign(m, kNotRecruited);
  scratch.recruit_succeeded.assign(m, 0);
  if (m == 0) return;

  // P: uniform random permutation of all ants in R (Algorithm 1,
  // tie-breaker) — the batched Fisher–Yates of random_permutation_into,
  // same draws and same stream advance. Only P's active ants matter to
  // the walk below (an inactive ant is skipped), and Fisher–Yates
  // finalizes P back to front, so each finalized ant is filed right away
  // into a list of P's active ants growing downward from the end of the
  // same buffer: perm[list, m) is that list in P order. Position i - 1 is
  // final once iteration i has swapped, the shuffle never reads it again,
  // and list - 1 >= i - 1 (at most m - i ants are filed), so the list
  // write never clobbers a position the shuffle still needs. Branch-free:
  // every finalized ant is written at list - 1, and only an active one
  // advances the cursor.
  std::vector<std::uint32_t>& perm = scratch.perm;
  perm.resize(m);  // lint: capacity-reserved
  std::iota(perm.begin(), perm.end(), 0u);
  std::size_t list = m;
  const auto file = [&](std::uint32_t x) {
    perm[list - 1] = x;
    list -= active[x] != 0 ? 1u : 0u;
  };
  {
    util::BatchedDraws shuffle(rng);
    for (std::size_t i = m; i > 1; --i) {
      const std::size_t j = shuffle.uniform(i, i - 1);
      const std::uint32_t x = perm[j];  // P(i - 1)
      perm[j] = perm[i - 1];
      file(x);
    }
    file(perm[0]);  // P(0)
  }

  // The draw count of the loop below is data-dependent (an active ant
  // visited after being recruited draws nothing), so BatchedDraws needs a
  // running LOWER bound on the draws still to come. Track u = active ants
  // neither visited nor recruited yet: each future draw removes one such
  // ant by drawing and at most one more by recruiting it, and the current
  // draw can recruit one too, so u <= 2*future + 1, i.e. at least
  // 1 + floor((u - 1) / 2) draws (including the current one) remain.
  // Re-decrementing u for a chosen ant that already drew only tightens
  // the bound, so no visited bookkeeping is needed.
  std::size_t u = m - list;
  util::BatchedDraws draws(rng);

  // First loop of Algorithm 1: build M in permutation order, visiting
  // only P's active ants (the inactive ones fail line 3 and draw nothing).
  for (std::size_t p = list; p < m; ++p) {
    const std::uint32_t x = perm[p];
    // Line 3: a_P(i) ∈ S (active) and not already recruited. An ant can
    // appear as recruiter at most once because each x is visited once.
    if (scratch.recruited_by[x] != kNotRecruited) continue;
    // x leaves the pool by drawing now. u may already have been spent on
    // x's behalf (a recruitment decrement can land on an ant that had
    // drawn), so clamp at 0 — an undercount only tightens the bound.
    if (u > 0) --u;
    const std::size_t remaining = 1 + (u > 0 ? (u - 1) / 2 : 0);
    // Line 4: a' drawn uniformly from ALL of R — self-recruitment possible.
    const auto chosen = static_cast<std::uint32_t>(draws.uniform(m, remaining));
    // Line 5: a' must not already be a recruiter nor recruited.
    if (scratch.recruit_succeeded[chosen] != 0 ||
        scratch.recruited_by[chosen] != kNotRecruited) {
      continue;  // no retry: the recruiter simply fails this round
    }
    scratch.recruit_succeeded[x] = 1;
    scratch.recruited_by[chosen] = static_cast<std::int32_t>(x);
    if (active[chosen] && chosen != x && u > 0) --u;  // chosen will not draw
  }
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
void UniformProposalPairing::pair_active(std::span<const std::uint8_t> active,
                                         const PairingCtx& ctx,
                                         PairingScratch& scratch) const {
  util::Rng& rng = ctx.rng;
  const std::size_t m = active.size();
  scratch.recruited_by.resize(m);  // lint: capacity-reserved
  scratch.recruit_succeeded.assign(m, 0);  // the acceptance state, zeroed
  if (m == 0) return;

  // Phase 1: every active ant commits to a proposal target up front.
  // The draw count is known (one per active ant), so the draws are bulk-
  // generated into the u64 lane and scattered — same values, same order,
  // same stream advance as drawing inside the loop.
  std::size_t n_active = 0;
  for (const std::uint8_t b : active) n_active += b ? 1u : 0u;
  scratch.ticket.resize(n_active);  // lint: capacity-reserved
  rng.uniform_u64_into(std::span<std::uint64_t>(scratch.ticket.data(), n_active),
                       m);
  scratch.proposal.assign(m, kNotRecruited);
  std::size_t next_draw = 0;
  for (std::size_t x = 0; x < m; ++x) {
    if (active[x]) {
      scratch.proposal[x] =
          static_cast<std::int32_t>(scratch.ticket[next_draw++]);
    }
  }

  // Phase 2: per-target lottery — each proposed-to ant keeps one proposer
  // uniformly at random (reservoir sampling over its proposers). Exactly
  // one draw per proposer, so the remaining-draw count is exact.
  scratch.winner.assign(m, kNotRecruited);
  scratch.proposer_count.assign(m, 0);
  util::BatchedDraws draws(rng);
  std::size_t lottery_left = n_active;
  for (std::size_t x = 0; x < m; ++x) {
    if (scratch.proposal[x] == kNotRecruited) continue;
    const auto t = static_cast<std::size_t>(scratch.proposal[x]);
    ++scratch.proposer_count[t];
    if (draws.uniform(scratch.proposer_count[t], lottery_left) == 0) {
      scratch.winner[t] = static_cast<std::int32_t>(x);
    }
    --lottery_left;
  }

  // Phase 3: accept tentative matches in random order; endpoints
  // exclusive (offer_edge), then write both outputs from the state.
  util::random_permutation_into(scratch.perm, m, rng);
  std::uint8_t* const state = scratch.recruit_succeeded.data();
  for (std::uint32_t t : scratch.perm) {
    if (scratch.winner[t] == kNotRecruited) continue;
    offer_edge(state, static_cast<std::size_t>(scratch.winner[t]), t);
  }
  for (std::size_t t = 0; t < m; ++t) {
    scratch.recruited_by[t] = taken_by(state, t, scratch.winner[t]);
  }
  state_to_succeeded(state, state + m);
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
void CounterLotteryPairing::pair_active(std::span<const std::uint8_t> active,
                                        const PairingCtx& ctx,
                                        PairingScratch& scratch) const {
  const std::size_t m = active.size();
  scratch.recruited_by.resize(m);  // lint: capacity-reserved
  scratch.recruit_succeeded.resize(m);  // lint: capacity-reserved
  if (m == 0) return;

  // Keyed calls (the engine path) draw nothing from the shared stream;
  // unkeyed ad-hoc calls derive an ephemeral key with one draw so the
  // matching stays a deterministic function of the rng state.
  const bool keyed = ctx.round != 0;
  const std::uint64_t seed = keyed ? ctx.seed : ctx.rng();
  const std::uint64_t round = keyed ? ctx.round : 1u;
  // The (seed, round) half of the mix_seed() key is loop-invariant;
  // hoisting it (mix_seed_prefix) leaves one multiply + one SplitMix64
  // squeeze per slot and produces bit-identical keys.
  const std::uint64_t key_prefix = util::mix_seed_prefix(seed, round);

  // Everything but the acceptance pass runs as chunks on the round pool
  // (util/round_pool.hpp): chunk c owns slots and targets
  // [chunk_begin(c), chunk_begin(c + 1)) of every lane.
  //
  // Propose: slot x's draws come from its own counter stream, so no slot
  // reads another slot's randomness. Each active slot proposes to a
  // uniform target t over all of R with a lottery entry — (ticket high
  // half << 32) | (m - x), never 0. Each target keeps the proposer with
  // the largest entry: the highest ticket, and on equal 32-bit tickets
  // (~2^-32 per colliding pair) the EARLIER slot, which carries the
  // larger m - x. Max does not depend on order, so the result is the
  // same however the proposals are split.
  //
  // A slot chunk first compacts its active slots into its own range of
  // the proposal lane (branchless: unconditional store, predicated
  // advance — the flags are irregular at steady state, so an
  // `if (!active[x]) continue` in the draw loop would mispredict every
  // transition), draws each one's target and entry, and stages the
  // proposals in its own range of the staged/perm lanes, grouped by the
  // chunk that owns the target. The cells are then settled by their
  // owners, each reading only the proposals aimed at it: every cell has
  // one writer, and no cache line bounces between cores (a shared
  // scatter with an atomic max per cell measured slower than the serial
  // loop on a 4-vCPU VM).
  scratch.ticket.resize(m);  // lint: capacity-reserved
  scratch.proposal.resize(m);  // lint: capacity-reserved
  scratch.proposer_count.resize(m);  // lint: capacity-reserved
  scratch.perm.resize(m);  // lint: capacity-reserved
  scratch.staged.resize(m);  // lint: capacity-reserved
  const std::size_t chunks = util::round_chunks(m);
  std::array<std::size_t, util::kMaxRoundChunks + 1> bound{};
  for (std::size_t c = 0; c <= chunks; ++c) {
    bound[c] = util::chunk_begin(m, chunks, c);
  }
  const auto begin_of = [&](std::size_t c) { return bound[c]; };
  // The chunk owning target t: a division-free count of the bounds at
  // or below t (a 64-bit divide per proposal would cost more than the
  // draws themselves).
  const auto owner_of = [&](std::size_t t) {
    std::size_t d = 0;
    for (std::size_t c = 1; c < chunks; ++c) d += t >= bound[c] ? 1u : 0u;
    return d;
  };
  // bucket[c][d]: where slot chunk c staged its proposals to chunk d.
  struct Bucket {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
  };
  using Row = std::array<Bucket, util::kMaxRoundChunks>;
  std::array<Row, util::kMaxRoundChunks> bucket{};
  util::run_chunks(chunks, [&](std::size_t c) {
    const std::size_t begin = begin_of(c);
    const std::size_t end = begin_of(c + 1);
    std::int32_t* const slots = scratch.proposal.data() + begin;
    std::size_t n_active = 0;
    for (std::size_t x = begin; x < end; ++x) {
      slots[n_active] = static_cast<std::int32_t>(x);
      n_active += active[x] ? 1u : 0u;
    }
    // Draw, in slot order, counting the proposals per owner chunk. One
    // chunk stages them in place; several write them to workspace lanes
    // first (the ticket lane is free until the cells are settled) and
    // then group them by owner.
    const bool direct = chunks == 1;
    std::uint32_t* const target =
        (direct ? scratch.perm.data() : scratch.proposer_count.data()) + begin;
    std::uint64_t* const entry =
        (direct ? scratch.staged.data() : scratch.ticket.data()) + begin;
    std::array<std::uint32_t, util::kMaxRoundChunks> next{};
    for (std::size_t i = 0; i < n_active; ++i) {
      const auto x = static_cast<std::size_t>(static_cast<std::uint32_t>(slots[i]));
      util::SplitMix64 stream(util::mix_seed(key_prefix, 0, x));
      const auto t = static_cast<std::size_t>(stream.bounded(m));
      target[i] = static_cast<std::uint32_t>(t);
      entry[i] = (stream.next() & 0xffffffff00000000ULL) |
                 static_cast<std::uint64_t>(m - x);
      ++next[owner_of(t)];
    }
    Row& row = bucket[c];
    auto at = static_cast<std::uint32_t>(begin);
    for (std::size_t d = 0; d < chunks; ++d) {
      row[d] = Bucket{at, next[d]};
      next[d] = at;
      at += row[d].size;
    }
    if (direct) return;
    for (std::size_t i = 0; i < n_active; ++i) {
      const std::uint32_t pos = next[owner_of(target[i])]++;
      scratch.perm[pos] = target[i];
      scratch.staged[pos] = entry[i];
    }
  });

  // Settle each cell (ONE u64 in the ticket lane, 0 = no proposer yet),
  // then gather the proposed-to targets in ascending order, compacted
  // in place at the start of the chunk's range as (t << 32) | winner —
  // the list the acceptance pass streams.
  std::array<std::size_t, util::kMaxRoundChunks> hits{};
  util::run_chunks(chunks, [&](std::size_t d) {
    const std::size_t begin = begin_of(d);
    const std::size_t end = begin_of(d + 1);
    std::uint64_t* const cells = scratch.ticket.data();
    std::fill(cells + begin, cells + end, std::uint64_t{0});
    for (std::size_t c = 0; c < chunks; ++c) {
      const Bucket b = bucket[c][d];
      for (std::uint32_t i = b.begin; i < b.begin + b.size; ++i) {
        const std::uint32_t t = scratch.perm[i];
        const std::uint64_t entry = scratch.staged[i];
        if (entry > cells[t]) cells[t] = entry;
      }
    }
    // In place: slot begin + n_hit <= t has already been read.
    std::size_t n_hit = 0;
    for (std::size_t t = begin; t < end; ++t) {
      const std::uint64_t entry = cells[t];
      const auto w = static_cast<std::uint64_t>(
          m - static_cast<std::size_t>(entry & 0xffffffffULL));
      cells[begin + n_hit] = (static_cast<std::uint64_t>(t) << 32) | w;
      n_hit += entry != 0 ? 1u : 0u;
    }
    hits[d] = n_hit;
  });

  // Acceptance in target-index order, draw-free. Tentative matches are
  // exchangeable across slots (the draws above are iid per slot), so a
  // fixed order yields the same matching distribution as the uniform-
  // proposal model's random-permutation acceptance. The greedy matching
  // is the one serial step — each decision depends on every earlier one
  // — and runs on the calling thread over the one-byte state lane
  // (offer_edge), which it clears itself, so its random accesses stay in
  // its own cache; it streams the gathered targets chunk by chunk, i.e.
  // in ascending t.
  std::uint8_t* const state = scratch.recruit_succeeded.data();
  std::fill(state, state + m, std::uint8_t{0});
  for (std::size_t d = 0; d < chunks; ++d) {
    const std::uint64_t* const list = scratch.ticket.data() + begin_of(d);
    for (std::size_t i = 0; i < hits[d]; ++i) {
      offer_edge(state, static_cast<std::size_t>(list[i] & 0xffffffffULL),
                 static_cast<std::size_t>(list[i] >> 32));
    }
  }

  // Write-out, one chunk per target range: recruited_by from the chunk's
  // own hit list, then its state bytes into recruit_succeeded in place.
  // The caller writes neither output lane: chunk d writes its own range
  // of both, the range the environment's bookkeeping chunk d (same m,
  // same split, same worker) reads next.
  util::run_chunks(chunks, [&](std::size_t d) {
    const std::size_t begin = begin_of(d);
    const std::size_t end = begin_of(d + 1);
    std::int32_t* const by = scratch.recruited_by.data();
    std::fill(by + begin, by + end, kNotRecruited);
    const std::uint64_t* const list = scratch.ticket.data() + begin;
    for (std::size_t i = 0; i < hits[d]; ++i) {
      const auto t = static_cast<std::size_t>(list[i] >> 32);
      by[t] = taken_by(state, t,
                       static_cast<std::int32_t>(list[i] & 0xffffffffULL));
    }
    state_to_succeeded(state + begin, state + end);
  });
}

std::string_view pairing_name(PairingKind kind) {
  switch (kind) {
    case PairingKind::kPermutation: return "permutation";
    case PairingKind::kUniformProposal: return "uniform-proposal";
    case PairingKind::kCounter: return "counter-lottery";
  }
  return "?";
}

std::optional<PairingKind> pairing_from_name(std::string_view name) {
  for (const PairingKind kind :
       {PairingKind::kPermutation, PairingKind::kUniformProposal,
        PairingKind::kCounter}) {
    if (pairing_name(kind) == name) return kind;
  }
  return std::nullopt;
}

std::unique_ptr<PairingModel> make_pairing_model(PairingKind kind) {
  switch (kind) {
    case PairingKind::kPermutation:
      return std::make_unique<PermutationPairing>();
    case PairingKind::kUniformProposal:
      return std::make_unique<UniformProposalPairing>();
    case PairingKind::kCounter:
      return std::make_unique<CounterLotteryPairing>();
  }
  HH_ASSERT(false);
  return nullptr;
}

}  // namespace hh::env
