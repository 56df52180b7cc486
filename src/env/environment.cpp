#include "env/environment.hpp"

#include <algorithm>
#include <cstddef>
#include <string>

#include "util/contracts.hpp"

namespace hh::env {

namespace {
// Domain-separation tag for the pairing-stream key: keeps the counter
// streams independent of every draw the shared rng_ makes from the same
// config seed. Mirrors the engine-layer seed tags in core/simulation.cpp.
constexpr std::uint64_t kPairingSeedTag = 0x9A1217;
}

HomeNestBackend::HomeNestBackend(EnvironmentConfig cfg,
                         std::unique_ptr<PairingModel> pairing,
                         std::unique_ptr<ObservationModel> observation)
    : cfg_(std::move(cfg)),
      pairing_(pairing ? std::move(pairing)
                       : std::make_unique<PermutationPairing>()),
      observation_(observation ? std::move(observation)
                               : std::make_unique<ExactObservation>()),
      observe_exact_(observation_->exact()),
      rng_(cfg_.seed),
      pairing_seed_(util::mix_seed(cfg_.seed, kPairingSeedTag)) {
  HH_EXPECTS(cfg_.num_ants >= 1);
  HH_EXPECTS(!cfg_.qualities.empty());
  for (double q : cfg_.qualities) HH_EXPECTS(q >= 0.0 && q <= 1.0);

  location_.assign(cfg_.num_ants, kHomeNest);  // all ants start at home
  count_.assign(num_nests() + 1, 0);
  count_[kHomeNest] = cfg_.num_ants;
  knowledge_.assign(static_cast<std::size_t>(cfg_.num_ants) * (num_nests() + 1),
                    0);
  outcomes_.resize(cfg_.num_ants);
  op_lane_ = std::make_unique_for_overwrite<MaskedOp[]>(cfg_.num_ants);
  active_lane_ = std::make_unique_for_overwrite<std::uint8_t[]>(cfg_.num_ants);
  target_lane_ = std::make_unique_for_overwrite<NestId[]>(cfg_.num_ants);
  // Every per-round buffer is sized for the worst case up front so that
  // step() never allocates (see the invariant in the header).
  requests_ = std::make_unique_for_overwrite<RequestRow[]>(cfg_.num_ants);
  request_flags_ = std::make_unique_for_overwrite<std::uint8_t[]>(cfg_.num_ants);
  request_index_.assign(cfg_.num_ants, kNoRequest);
  pairing_scratch_.reserve(cfg_.num_ants);
  // Written before read every round; left uninitialized so construction
  // does not touch its pages.
  success_ants_ = std::make_unique_for_overwrite<AntId[]>(cfg_.num_ants);
  recruit_result_.assign(cfg_.num_ants, kHomeNest);
  constexpr std::size_t kLine = 64 / sizeof(std::uint32_t);
  chunk_count_stride_ = (num_nests() + 1 + kLine - 1) / kLine * kLine + kLine;
  chunk_counts_.assign(util::kMaxRoundChunks * chunk_count_stride_, 0);
}

void HomeNestBackend::reset(std::uint64_t seed) {
  // Mirror of the constructor's initial state, minus the allocations: the
  // equivalence tests (tests/test_resume.cpp) pin reset-and-rerun to a
  // fresh construction bit for bit.
  cfg_.seed = seed;
  rng_.reseed(seed);
  pairing_seed_ = util::mix_seed(seed, kPairingSeedTag);
  round_ = 0;
  all_at_home_ = false;
  std::fill(location_.begin(), location_.end(), kHomeNest);
  std::fill(count_.begin(), count_.end(), 0u);
  count_[kHomeNest] = cfg_.num_ants;
  std::fill(knowledge_.begin(), knowledge_.end(), std::uint8_t{0});
  std::fill(request_index_.begin(), request_index_.end(), kNoRequest);
  requests_ant_indexed_ = false;
  pairing_current_ = false;
  success_count_ = 0;
  std::fill(recruit_result_.begin(), recruit_result_.end(), kHomeNest);
  stats_ = RoundStats{};
}

NestId HomeNestBackend::location(AntId a) const {
  HH_EXPECTS(a < cfg_.num_ants);
  return all_at_home_ ? kHomeNest : location_[a];
}

std::uint32_t HomeNestBackend::count(NestId i) const {
  HH_EXPECTS(i <= num_nests());
  return count_[i];
}

double HomeNestBackend::quality(NestId i) const {
  HH_EXPECTS(i >= 1 && i <= num_nests());
  return cfg_.qualities[i - 1];
}

bool HomeNestBackend::knows(AntId a, NestId i) const {
  HH_EXPECTS(a < cfg_.num_ants);
  HH_EXPECTS(i <= num_nests());
  return knowledge_[static_cast<std::size_t>(a) * (num_nests() + 1) + i] != 0;
}

void HomeNestBackend::grant_knowledge(AntId a, NestId i) {
  knowledge_[static_cast<std::size_t>(a) * (num_nests() + 1) + i] = 1;
}

void HomeNestBackend::validate(AntId a, const Action& action) const {
  const auto fail = [&](const std::string& why) {
    throw ModelViolation("ant " + std::to_string(a) + ", round " +
                         std::to_string(round_ + 1) + ": " + why);
  };
  switch (action.kind) {
    case ActionKind::kSearch:
      break;  // always legal
    case ActionKind::kGo:
      if (action.target < 1 || action.target > num_nests()) {
        fail("go() target " + std::to_string(action.target) +
             " is not a candidate nest");
      }
      // Knowledge interpretation of the paper's precondition (DESIGN.md §2):
      // the ant must have visited the nest or been recruited to it.
      if (!knows(a, action.target)) {
        fail("go(" + std::to_string(action.target) + ") without knowledge");
      }
      break;
    case ActionKind::kRecruit:
      if (action.active) {
        // recruit(1, i): the advertised nest must be a known candidate.
        if (action.target < 1 || action.target > num_nests()) {
          fail("recruit(1, " + std::to_string(action.target) +
               ") must advertise a candidate nest");
        }
        if (!knows(a, action.target)) {
          fail("recruit(1, " + std::to_string(action.target) +
               ") without knowledge");
        }
      } else {
        // recruit(0, i): i may be the home nest (an ant that knows no
        // candidate waits to be recruited) or a known candidate.
        if (action.target > num_nests()) {
          fail("recruit(0, " + std::to_string(action.target) +
               ") target out of range");
        }
        if (action.target != kHomeNest && !knows(a, action.target)) {
          fail("recruit(0, " + std::to_string(action.target) +
               ") without knowledge");
        }
      }
      break;
    case ActionKind::kIdle:
      if (!cfg_.allow_idle) {
        fail("idle is not part of the model (enable allow_idle for the "
             "fault/asynchrony extensions)");
      }
      break;
  }
}

namespace {

MaskedOp masked_op(ActionKind kind) {
  switch (kind) {
    case ActionKind::kSearch: return MaskedOp::kSearch;
    case ActionKind::kGo: return MaskedOp::kGo;
    case ActionKind::kRecruit: return MaskedOp::kRecruit;
    case ActionKind::kIdle: break;
  }
  return MaskedOp::kIdle;
}

}  // namespace

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
const std::vector<Outcome>& HomeNestBackend::step(std::span<const Action> actions) {
  HH_EXPECTS(actions.size() == cfg_.num_ants);
  const AntId n = cfg_.num_ants;
  for (AntId a = 0; a < n; ++a) {
    op_lane_[a] = masked_op(actions[a].kind);
    active_lane_[a] = actions[a].active ? 1 : 0;
    target_lane_[a] = actions[a].target;
  }
  const std::span<const MaskedOp> op(op_lane_.get(), n);
  masked_round(op, {active_lane_.get(), n}, {target_lane_.get(), n});
  return deliver_outcomes(op);
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
const std::vector<Outcome>& HomeNestBackend::step_masked_recruit(
    std::span<const MaskedOp> op, std::span<const std::uint8_t> active,
    std::span<const NestId> targets) {
  HH_EXPECTS(active.size() == cfg_.num_ants);
  masked_round(op, active, targets);
  return deliver_outcomes(op);
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
void HomeNestBackend::step_masked_recruit_quiet(
    std::span<const MaskedOp> op, std::span<const std::uint8_t> active,
    std::span<const NestId> targets) {
  HH_EXPECTS(observe_exact_);
  HH_EXPECTS(active.size() == cfg_.num_ants);
  masked_round(op, active, targets);
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
const std::vector<Outcome>& HomeNestBackend::step_masked_go(
    std::span<const MaskedOp> op, std::span<const NestId> targets) {
  // No recruiters: the request list stays empty and pair_active() on an
  // empty span draws nothing, so this is step() with the same
  // (recruit-free) action vector.
  masked_round(op, {}, targets);
  return deliver_outcomes(op);
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
void HomeNestBackend::step_masked_go_quiet(std::span<const MaskedOp> op,
                                           std::span<const NestId> targets) {
  HH_EXPECTS(observe_exact_);
  masked_round(op, {}, targets);
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
void HomeNestBackend::masked_round(std::span<const MaskedOp> op,
                                   std::span<const std::uint8_t> active,
                                   std::span<const NestId> targets) {
  // The paper's four phases — locations, matching, counts, return values —
  // in two passes plus the pairing: pass 1 classifies every ant, moves it,
  // makes the search draws, packs the requests AND takes the census; the
  // pairing runs on the packed flags; pass 2 (matching_chunk) does the
  // matching bookkeeping. The loud forms then deliver the return values
  // (deliver_outcomes). Why this is the four-phase round, draw for draw,
  // under every pairing and observation model:
  //   * the shared-stream draws before the return values are the search
  //     landings and the pairing's own; pass 1 makes the landings in ant
  //     order and before the pairing, where phase 1 makes them;
  //   * the census draws nothing and reads only the locations pass 1 has
  //     just written, so taking it ahead of the pairing changes nothing;
  //   * pass 1 assigns the request ranks in ant order — the order in
  //     which phase 1 appends requests — so every model sees the same
  //     flags in the same slots.
  // Both passes run as chunks on the round pool. Chunking changes no
  // result: every chunk writes only its own ants' lanes and its own
  // requests' rows, the ranks are the serial ones (an exclusive scan over
  // the chunks' recruiter counts places each chunk's first request), and
  // the shared counts/stats are per-chunk partials summed after the join.
  // The one order-dependent draw — a search landing from the shared
  // stream — forces pass 1 to a single chunk whenever any ant searches.
  // `active` is empty for the recruit-free go rounds.
  const std::uint32_t k = num_nests();
  const AntId n = cfg_.num_ants;
  HH_EXPECTS(op.size() == n);
  HH_EXPECTS(targets.size() == n);
  requests_ant_indexed_ = false;
  pairing_current_ = true;
  if (all_at_home_) {
    // Materialize the lazy locations of a preceding
    // step_all_recruit_quiet() round: the kIdle branch of pass 1 reads
    // location_ in place.
    std::fill(location_.begin(), location_.end(), kHomeNest);
    all_at_home_ = false;
  }

  std::size_t chunks = util::round_chunks(n);
  if (chunks > 1) {
    // Plan the ranks: count each chunk's recruiters (and searchers).
    util::run_chunks(chunks, [&](std::size_t c) {
      std::uint32_t requests = 0;
      std::uint32_t searches = 0;
      const std::size_t end = util::chunk_begin(n, chunks, c + 1);
      for (std::size_t a = util::chunk_begin(n, chunks, c); a < end; ++a) {
        requests += op[a] == MaskedOp::kRecruit ? 1u : 0u;
        searches += op[a] == MaskedOp::kSearch ? 1u : 0u;
      }
      chunk_[c].requests = requests;
      chunk_[c].searches = searches;
    });
    std::uint32_t rank = 0;
    std::uint32_t searches = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      chunk_[c].first_request = rank;
      rank += chunk_[c].requests;
      searches += chunk_[c].searches;
    }
    if (searches > 0) chunks = 1;
  }
  if (chunks == 1) {
    chunk_[0].first_request = 0;
    chunk_[0].requests = n;  // a bound: the rank cursor never passes it
  }
  util::run_chunks(chunks, [&](std::size_t c) {
    pass1_chunk(c, static_cast<AntId>(util::chunk_begin(n, chunks, c)),
                static_cast<AntId>(util::chunk_begin(n, chunks, c + 1)), op,
                active, targets);
  });
  stats_ = RoundStats{};
  std::fill(count_.begin(), count_.end(), 0u);
  std::uint32_t mreq = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const ChunkPart& part = chunk_[c];
    mreq += part.requests;
    stats_.searches += part.searches;
    stats_.gos += part.gos;
    stats_.active_recruits += part.active_recruits;
    stats_.idles += part.idles;
    const std::uint32_t* counts = chunk_counts(c);
    for (std::uint32_t i = 0; i <= k; ++i) count_[i] += counts[i];
  }
  HH_ASSERT(mreq == 0 || !active.empty());  // recruit ops need their b lane
  stats_.passive_recruits = mreq - stats_.active_recruits;

  // The pairing over the dense ranks' packed flags (the counter lottery
  // chunks its own phases), then the matching bookkeeping over request
  // chunks.
  pairing_->pair_active({request_flags_.get(), mreq},
                        PairingCtx{rng_, pairing_seed_, round_ + 1},
                        pairing_scratch_);
  HH_ENSURES(pairing_scratch_.recruited_by.size() == mreq);
  const std::size_t match_chunks = util::round_chunks(mreq);
  util::run_chunks(match_chunks, [&](std::size_t c) {
    matching_chunk(c, util::chunk_begin(mreq, match_chunks, c),
                   util::chunk_begin(mreq, match_chunks, c + 1));
  });
  merge_matching_chunks(mreq, match_chunks);

  ++round_;
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
const std::vector<Outcome>& HomeNestBackend::deliver_outcomes(
    std::span<const MaskedOp> op) {
  // The return values of the round masked_round just ran, in ant order.
  // A noisy model's perception draws come after the pairing's and in this
  // order per ant: search = quality then count, go = count then the
  // re-assessed quality, recruit = the home count. The exact model is the
  // identity and draws nothing, so it skips the virtual calls.
  const auto perceived_count = [&](NestId i) {
    return observe_exact_ ? count_[i]
                          : observation_->perceive_count(count_[i], rng_);
  };
  const auto perceived_quality = [&](NestId i) {
    const double q = quality(i);
    return observe_exact_ ? q : observation_->perceive_quality(q, rng_);
  };
  for (AntId a = 0; a < cfg_.num_ants; ++a) {
    Outcome& out = outcomes_[a];
    const NestId at = location_[a];
    switch (op[a]) {
      case MaskedOp::kSearch: {
        // (Knowledge of the found nest was granted in pass 1.)
        const double q = perceived_quality(at);
        out = Outcome{ActionKind::kSearch, at, q, perceived_count(at), false,
                      false};
        break;
      }
      case MaskedOp::kGo: {
        // Extension beyond the paper's go() signature: a visiting ant can
        // re-assess the nest it is standing in. The paper's algorithms
        // ignore the quality; the Section 6 quality-aware variant uses it.
        const std::uint32_t c = perceived_count(at);
        out = Outcome{ActionKind::kGo, at, perceived_quality(at), c, false,
                      false};
        break;
      }
      case MaskedOp::kRecruit: {
        // Return value j: the recruiter's advertised nest (Algorithm 1
        // lines 8-10) or the ant's own target; matching_chunk stored it.
        const std::uint32_t x = request_index_[a];
        out = Outcome{ActionKind::kRecruit, recruit_result_[a], 0.0,
                      perceived_count(kHomeNest),
                      pairing_scratch_.recruited_by[x] != kNotRecruited,
                      pairing_scratch_.recruit_succeeded[x] != 0};
        break;
      }
      case MaskedOp::kIdle:
        out = Outcome{ActionKind::kIdle, at, 0.0, 0, false, false};
        break;
    }
  }
  return outcomes_;
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
void HomeNestBackend::merge_matching_chunks(std::size_t items,
                                            std::size_t chunks) {
  // Each chunk staged its successes at the start of its own range; close
  // the gaps in chunk order, which is request order.
  success_count_ = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const ChunkPart& part = chunk_[c];
    AntId* const staged =
        success_ants_.get() + util::chunk_begin(items, chunks, c);
    AntId* const placed = success_ants_.get() + success_count_;
    if (placed != staged) std::copy(staged, staged + part.successes, placed);
    success_count_ += part.successes;
    stats_.self_recruitments += part.self_recruitments;
    stats_.cross_nest_recruitments += part.cross_nest_recruitments;
  }
  stats_.successful_recruitments = static_cast<std::uint32_t>(success_count_);
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
void HomeNestBackend::pass1_chunk(std::size_t c, AntId begin, AntId end,
                                  std::span<const MaskedOp> op,
                                  std::span<const std::uint8_t> active,
                                  std::span<const NestId> targets) {
  // Classification, location updates, search draws, request packing (AoS
  // row + the dense active-flag lane the pairing reads), stats, AND the
  // count scatter, one ant-order sweep: each ant's end-of-round location
  // is still in register when it is counted.
  //
  // The go/recruit pair — the whole colony from round 2 on — is handled
  // branch-free: the op mix is irregular at steady state (each ant's
  // R1-R4 block position differs), so a per-ant switch mispredicts
  // roughly every other ant. Instead every go/recruit ant does the same
  // unconditional work with conditional-move selects, including a
  // request-row store whose cursor only advances for recruiters (a go
  // ant's row is overwritten by the chunk's next recruiter). A go ant
  // after the chunk's last recruiter would write the NEXT chunk's first
  // row, so stores at or past the chunk's rank bound land in a local
  // dummy instead. Searches and idles — round-1 colonies, fault lanes —
  // take the cold branch, perfectly predicted when absent.
  const std::uint32_t k = num_nests();
  std::uint32_t* const counts = chunk_counts(c);
  std::fill(counts, counts + k + 1, 0u);
  ChunkPart& part = chunk_[c];
  RequestRow* const req_rows = requests_.get();
  std::uint8_t* const flag_rows = request_flags_.get();
  const std::uint32_t rank_end = part.first_request + part.requests;
  const bool has_flags = !active.empty();  // false in the go rounds
  RequestRow dummy_row;
  std::uint8_t dummy_flag = 0;
  std::uint32_t mreq = part.first_request;
  std::uint32_t n_go = 0;
  std::uint32_t n_rec_active = 0;
  std::uint32_t n_search = 0;
  std::uint32_t n_idle = 0;
  for (AntId a = begin; a < end; ++a) {
    const MaskedOp o = op[a];
    if (o == MaskedOp::kGo || o == MaskedOp::kRecruit) [[likely]] {
      const bool r = o == MaskedOp::kRecruit;
      const std::uint8_t b = has_flags && active[a] != 0 ? 1 : 0;
      const NestId tgt = targets[a];
      if (cfg_.enforce_model) {
        validate(a, r ? Action::recruit(b != 0, tgt) : Action::go(tgt));
      }
      const NestId loc = r ? kHomeNest : tgt;
      location_[a] = loc;
      ++counts[loc];
      request_index_[a] = r ? mreq : kNoRequest;
      const bool own = mreq < rank_end;
      *(own ? req_rows + mreq : &dummy_row) = RequestRow{a, tgt};
      *(own ? flag_rows + mreq : &dummy_flag) = b;
      mreq += r ? 1u : 0u;
      n_go += r ? 0u : 1u;
      n_rec_active += (r && b != 0) ? 1u : 0u;
    } else if (o == MaskedOp::kSearch) {
      // search(): i chosen uniformly at random from {1..k}, in ant order
      // (single-chunk rounds only; see masked_round).
      const auto found = static_cast<NestId>(1 + rng_.uniform_u64(k));
      request_index_[a] = kNoRequest;
      location_[a] = found;
      grant_knowledge(a, found);
      ++counts[found];
      ++n_search;
    } else {  // MaskedOp::kIdle
      if (cfg_.enforce_model) validate(a, Action::idle());
      request_index_[a] = kNoRequest;
      ++counts[location_[a]];
      ++n_idle;
    }
  }
  part.requests = mreq - part.first_request;
  part.searches = n_search;
  part.gos = n_go;
  part.active_recruits = n_rec_active;
  part.idles = n_idle;
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
void HomeNestBackend::matching_chunk(std::size_t c, std::size_t begin,
                                     std::size_t end) {
  // Matching bookkeeping (stats + tandem-run knowledge), indexed by
  // request position x (request x's caller is requests_[x].ant, a
  // distinct ant per request, so chunks write disjoint lanes). The same
  // walk fills the ant-indexed recruit() return values and stages the
  // chunk's successful recruiters, in request order, from
  // success_ants_[begin] on (never more than end - begin of them).
  ChunkPart& part = chunk_[c];
  std::uint32_t successes = 0;
  std::uint32_t self = 0;
  std::uint32_t cross = 0;
  AntId* const staged = success_ants_.get() + begin;
  for (std::size_t x = begin; x < end; ++x) {
    const RequestRow& req = requests_[x];
    const std::int32_t recruiter = pairing_scratch_.recruited_by[x];
    if (recruiter == kNotRecruited) {
      recruit_result_[req.ant] = req.target;
      continue;
    }
    const RequestRow& from = requests_[static_cast<std::size_t>(recruiter)];
    recruit_result_[req.ant] = from.target;
    staged[successes++] = from.ant;
    if (from.ant == req.ant) ++self;
    if (from.target != req.target) ++cross;
    if (from.target != kHomeNest) grant_knowledge(req.ant, from.target);
  }
  part.successes = successes;
  part.self_recruitments = self;
  part.cross_nest_recruitments = cross;
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
const std::vector<Outcome>& HomeNestBackend::step_all_search() {
  const std::uint32_t k = num_nests();
  stats_ = RoundStats{};
  pairing_current_ = false;  // no pairing: this round's matching is empty
  success_count_ = 0;
  stats_.searches = cfg_.num_ants;
  all_at_home_ = false;  // every location is written below
  // search() is always legal — nothing to validate.
  count_.assign(k + 1, 0);
  for (AntId a = 0; a < cfg_.num_ants; ++a) {
    // Identical draw to step()'s phase 1: i uniform from {1..k}, ant order.
    const auto found = static_cast<NestId>(1 + rng_.uniform_u64(k));
    location_[a] = found;
    ++count_[found];
    outcomes_[a] = Outcome{ActionKind::kSearch, found, 0.0, 0, false, false};
  }
  for (AntId a = 0; a < cfg_.num_ants; ++a) {
    Outcome& out = outcomes_[a];
    const double q = quality(out.nest);
    out.quality = observe_exact_ ? q : observation_->perceive_quality(q, rng_);
    out.count = observe_exact_
                    ? count_[out.nest]
                    : observation_->perceive_count(count_[out.nest], rng_);
    grant_knowledge(a, out.nest);
  }
  ++round_;
  return outcomes_;
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
void HomeNestBackend::step_all_recruit_quiet(std::span<const std::uint8_t> active,
                                         std::span<const NestId> targets) {
  HH_EXPECTS(observe_exact_);
  HH_EXPECTS(active.size() == cfg_.num_ants);
  HH_EXPECTS(targets.size() == cfg_.num_ants);
  const std::uint32_t k = num_nests();
  const AntId n = cfg_.num_ants;
  stats_ = RoundStats{};
  if (cfg_.enforce_model) {
    for (AntId a = 0; a < n; ++a) {
      validate(a, Action::recruit(active[a] != 0, targets[a]));
    }
  }
  all_at_home_ = true;
  requests_ant_indexed_ = true;
  pairing_current_ = true;
  pairing_->pair_active(active, PairingCtx{rng_, pairing_seed_, round_ + 1},
                        pairing_scratch_);
  HH_ENSURES(pairing_scratch_.recruited_by.size() == active.size());
  count_.assign(k + 1, 0);
  count_[kHomeNest] = n;
  // The phase-4 bookkeeping as ant chunks on the round pool (request x
  // is ant x, so request order is ant order).
  const std::size_t chunks = util::round_chunks(n);
  util::run_chunks(chunks, [&](std::size_t c) {
    all_recruit_chunk(c, static_cast<AntId>(util::chunk_begin(n, chunks, c)),
                      static_cast<AntId>(util::chunk_begin(n, chunks, c + 1)),
                      active, targets);
  });
  merge_matching_chunks(n, chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    stats_.active_recruits += chunk_[c].active_recruits;
  }
  stats_.passive_recruits = n - stats_.active_recruits;
  ++round_;
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
void HomeNestBackend::all_recruit_chunk(std::size_t c, AntId begin, AntId end,
                                        std::span<const std::uint8_t> active,
                                        std::span<const NestId> targets) {
  // The phase-4 bookkeeping (stats, knowledge) without Outcome writes:
  // the exact model returns values the caller can read off last_pairing()
  // and counts() directly. Request x's caller is ant x, so the
  // self-recruitment test collapses to recruiter == a. Ant a's rows are
  // its own; the chunk's tallies go to chunk_[c].
  ChunkPart& part = chunk_[c];
  std::uint32_t n_active = 0;
  std::uint32_t successes = 0;
  std::uint32_t self = 0;
  std::uint32_t cross = 0;
  AntId* const staged = success_ants_.get() + begin;
  for (AntId a = begin; a < end; ++a) {
    n_active += active[a] != 0 ? 1u : 0u;
    const std::int32_t recruiter = pairing_scratch_.recruited_by[a];
    if (recruiter == kNotRecruited) {
      recruit_result_[a] = targets[a];
      continue;
    }
    const NestId j = targets[static_cast<std::size_t>(recruiter)];
    recruit_result_[a] = j;
    staged[successes++] = static_cast<AntId>(recruiter);
    if (static_cast<AntId>(recruiter) == a) ++self;
    if (j != targets[a]) ++cross;
    if (j != kHomeNest) grant_knowledge(a, j);
  }
  part.active_recruits = n_active;
  part.successes = successes;
  part.self_recruitments = self;
  part.cross_nest_recruitments = cross;
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
void HomeNestBackend::step_all_go_quiet(std::span<const NestId> targets) {
  HH_EXPECTS(observe_exact_);
  HH_EXPECTS(targets.size() == cfg_.num_ants);
  const std::uint32_t k = num_nests();
  const AntId n = cfg_.num_ants;
  stats_ = RoundStats{};
  pairing_current_ = false;  // no pairing: this round's matching is empty
  success_count_ = 0;
  stats_.gos = n;
  all_at_home_ = false;  // every location is written below
  if (cfg_.enforce_model) {
    for (AntId a = 0; a < n; ++a) validate(a, Action::go(targets[a]));
  }
  // Locations and the census as ant chunks on the round pool, each
  // counting into its own slice; go() grants no knowledge and, exactly
  // observed, returns only counts()/qualities() — no per-ant work remains.
  const std::size_t chunks = util::round_chunks(n);
  util::run_chunks(chunks, [&](std::size_t c) {
    std::uint32_t* const counts = chunk_counts(c);
    std::fill(counts, counts + k + 1, 0u);
    const std::size_t end = util::chunk_begin(n, chunks, c + 1);
    for (std::size_t a = util::chunk_begin(n, chunks, c); a < end; ++a) {
      location_[a] = targets[a];
      ++counts[targets[a]];
    }
  });
  std::fill(count_.begin(), count_.end(), 0u);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::uint32_t* const counts = chunk_counts(c);
    for (std::uint32_t i = 0; i <= k; ++i) count_[i] += counts[i];
  }
  ++round_;
}

}  // namespace hh::env
