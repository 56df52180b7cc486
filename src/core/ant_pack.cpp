#include "core/ant_pack.hpp"

#include <algorithm>
#include <cmath>

#include "core/optimal_pack.hpp"
#include "util/contracts.hpp"

namespace hh::core {

namespace {

/// Mirror of colony.cpp's believed_n: an ant's private belief of n, drawn
/// (or not) off the ant's own stream exactly as the per-object factories
/// draw it — the packed path must consume the identical RNG prefix.
std::uint32_t believed_n(std::uint32_t num_ants, double error, util::Rng& rng) {
  if (error <= 0.0) return num_ants;
  const double lo = static_cast<double>(num_ants) * (1.0 - error);
  const double hi = static_cast<double>(num_ants) * (1.0 + error);
  const double belief = lo + (hi - lo) * rng.uniform_double();
  return std::max<std::uint32_t>(1, static_cast<std::uint32_t>(belief));
}

/// The Algorithm-3 family (SimpleAnt and its subclasses) as state arrays.
/// All four variants share one FSM and differ only in the
/// recruit-probability rule. The phase is a per-ant lane: under full
/// synchrony every ant stays in lockstep (and the uniform-shape fast paths
/// still fire, via the phase census), but a sleeping ant freezes — it
/// skips both decide and observe, exactly like the scalar ant — so under
/// partial synchrony the colony's phases drift apart and rounds become
/// permanently mixed.
class SimpleFamilyPack final : public AntPack {
 public:
  SimpleFamilyPack(AlgorithmKind kind, std::uint32_t num_ants,
                   std::uint32_t num_nests, std::uint64_t colony_seed,
                   const AlgorithmParams& params, const env::FaultPlan* faults)
      : AntPack(num_ants, num_nests),
        kind_(kind),
        uniform_prob_(params.uniform_recruit_prob),
        n_estimate_error_(params.n_estimate_error) {
    HH_EXPECTS(num_ants >= 1);
    const std::size_t n = num_ants;
    rng_.resize(n, util::Rng(0));
    phase_.resize(n);
    believed_n_.resize(n);
    active_.resize(n);
    count_.resize(n);
    quality_.resize(n);
    round_targets_.reserve(n);  // quiet rounds must not allocate
    if (kind_ == AlgorithmKind::kRateBoosted) {
      initial_k_.resize(n);
      halving_period_.resize(n);
    }
    if (faults != nullptr) install_fault_plan(*faults);
    const bool did_reset = reset(colony_seed);
    HH_ASSERT(did_reset);
  }

  [[nodiscard]] bool do_reset(std::uint64_t colony_seed) override {
    const auto num_ants = size();
    reset_commitments();
    std::fill(phase_.begin(), phase_.end(), Phase::kInit);
    phase_count_[static_cast<std::size_t>(Phase::kInit)] = num_ants;
    phase_count_[static_cast<std::size_t>(Phase::kRecruit)] = 0;
    phase_count_[static_cast<std::size_t>(Phase::kAssess)] = 0;
    for (env::AntId a = 0; a < num_ants; ++a) {
      // Identical stream derivation to make_colony (colony.cpp).
      rng_[a].reseed(util::mix_seed(colony_seed, a, 0xA17));
      // uniform-recruit ignores n and, like its per-object factory, does
      // not draw a belief; Byzantine positions never construct the inner
      // ant at all (no draw); the others draw iff the error is positive.
      believed_n_[a] =
          (kind_ == AlgorithmKind::kUniformRecruit || byzantine(a))
              ? num_ants
              : believed_n(num_ants, n_estimate_error_, rng_[a]);
    }
    std::fill(active_.begin(), active_.end(),
              std::uint8_t{1});  // initially active (Algorithm 3, line 1)
    std::fill(count_.begin(), count_.end(), 0u);
    std::fill(quality_.begin(), quality_.end(), 0.0);
    if (kind_ == AlgorithmKind::kRateBoosted) {
      std::fill(initial_k_.begin(), initial_k_.end(), 0.0);
      for (std::size_t a = 0; a < num_ants; ++a) {
        // Mirror of RateBoostedAnt's constructor (tau from the believed n).
        halving_period_[a] = std::max<std::uint32_t>(
            8, static_cast<std::uint32_t>(
                   3.0 * std::log2(static_cast<double>(
                             std::max(believed_n_[a], 2u)))));
      }
    }
    return true;
  }

  [[nodiscard]] RoundShape correct_shape(std::uint32_t /*round*/) const override {
    if (all_in(Phase::kInit)) return RoundShape::kAllSearch;
    if (all_in(Phase::kRecruit)) return RoundShape::kAllRecruit;
    if (all_in(Phase::kAssess)) return RoundShape::kAllGo;
    // Drifted phases (sleep lanes, or ants frozen mid-phase by a crash).
    // Any ant still parked in its recruit phase forces the recruit-capable
    // entry point; if none is, the round is pure movement.
    return phase_count_[static_cast<std::size_t>(Phase::kRecruit)] > 0
               ? RoundShape::kMaskedRecruit
               : RoundShape::kMaskedGo;
  }

  // lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
  [[nodiscard]] std::span<const env::NestId> fill_recruit_soa(
      std::uint32_t round, std::span<std::uint8_t> active) override {
    HH_EXPECTS(all_in(Phase::kRecruit));
    HH_EXPECTS(active.size() == rng_.size());
    // Snapshot the advertised nests: observe_recruit_pairing mutates the
    // nest lane while recruiters' targets must stay the round's values.
    // Each ant draws from its own stream, so the decide runs as chunks.
    round_targets_.resize(size());  // lint: capacity-reserved
    run_ant_chunks(util::round_chunks(size()),
                   [&](std::size_t begin, std::size_t end, std::int32_t*) {
                     for (std::size_t a = begin; a < end; ++a) {
                       round_targets_[a] = nest_[a];            // line 7
                       active[a] = decide_b(a, round) ? 1 : 0;  // lines 6 / 10
                     }
                   });
    return round_targets_;
  }

  [[nodiscard]] std::span<const env::NestId> go_targets() const override {
    return nest_;  // lines 8 / 14: go(nest)
  }

  void decide_masked(std::uint32_t round, std::span<const std::uint8_t> act,
                     std::span<env::MaskedOp> op,
                     std::span<std::uint8_t> active,
                     std::span<env::NestId> targets) override {
    for (std::size_t a = 0; a < act.size(); ++a) {
      if (!act[a]) continue;
      switch (phase_[a]) {
        case Phase::kInit:
          op[a] = env::MaskedOp::kSearch;  // line 2
          break;
        case Phase::kRecruit:
          op[a] = env::MaskedOp::kRecruit;
          active[a] = decide_b(a, round) ? 1 : 0;  // lines 6 / 10
          targets[a] = nest_[a];                   // line 7
          break;
        case Phase::kAssess:
          op[a] = env::MaskedOp::kGo;  // lines 8 / 14
          targets[a] = nest_[a];
          break;
      }
    }
  }

  // observe_all is the base forward onto this kernel (act all-ones). The
  // masked kernels run as one chunk: advance() keeps the shared phase
  // census.
  void observe_masked_acting(std::span<const std::uint8_t> act,
                             std::span<const env::Outcome> outcomes) override {
    run_ant_chunks(1, [&](std::size_t begin, std::size_t end,
                          std::int32_t* tally) {
      for (std::size_t a = begin; a < end; ++a) {
        if (!act[a]) continue;  // frozen: crashed, sleeping, or Byzantine
        switch (phase_[a]) {
          case Phase::kInit:
            apply_init(a, outcomes[a].nest, outcomes[a].count,
                       outcomes[a].quality, tally);
            break;
          case Phase::kRecruit:
            apply_recruit(a, outcomes[a].nest, tally);
            break;
          case Phase::kAssess:
            apply_assess(a, outcomes[a].count, outcomes[a].quality);
            break;
        }
        advance(a);
      }
    });
  }

  void observe_masked_quiet_acting(
      std::span<const std::uint8_t> act, const env::Environment& env,
      std::span<const env::MaskedOp> /*op*/,
      std::span<const env::NestId> targets) override {
    const std::span<const std::uint32_t> counts = env.counts();
    const std::span<const double> qualities = env.qualities();
    run_ant_chunks(1, [&](std::size_t begin, std::size_t end,
                          std::int32_t* tally) {
      for (std::size_t a = begin; a < end; ++a) {
        if (!act[a]) continue;  // frozen: crashed, sleeping, or Byzantine
        switch (phase_[a]) {
          case Phase::kInit: {
            const env::NestId found = env.location(static_cast<env::AntId>(a));
            apply_init(a, found, counts[found], qualities[found - 1], tally);
            break;
          }
          case Phase::kRecruit: {
            const std::int32_t recruiter =
                env.recruited_by_ant(static_cast<env::AntId>(a));
            if (recruiter != env::kNotRecruited) {  // else nest unchanged
              apply_recruit(a, targets[static_cast<std::size_t>(recruiter)],
                            tally);
            }
            break;
          }
          case Phase::kAssess: {
            const env::NestId nest = nest_[a];
            apply_assess(a, counts[nest], qualities[nest - 1]);
            break;
          }
        }
        advance(a);
      }
    });
  }

  // lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
  void observe_recruit_pairing(std::span<const env::NestId> targets,
                               const env::PairingScratch& pairing) override {
    HH_EXPECTS(all_in(Phase::kRecruit));
    HH_EXPECTS(targets.size() == rng_.size());
    // Equivalent to the kRecruit branch of observe_all: a recruited ant's
    // outcome.nest is its recruiter's advertised nest; everyone else's is
    // its own target (no change). quality/count are unread in this phase.
    // Every ant then moves to kAssess.
    run_ant_chunks(
        util::round_chunks(size()),
        [&](std::size_t begin, std::size_t end, std::int32_t* tally) {
          for (std::size_t a = begin; a < end; ++a) {
            const std::int32_t recruiter = pairing.recruited_by[a];
            if (recruiter == env::kNotRecruited) continue;
            apply_recruit(a, targets[static_cast<std::size_t>(recruiter)],
                          tally);
          }
          fill_phase(begin, end, Phase::kAssess);
        });
    all_entered(Phase::kAssess);
  }

  // lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
  void observe_go_counts(std::span<const std::uint32_t> counts,
                         std::span<const double> qualities) override {
    HH_EXPECTS(all_in(Phase::kAssess));
    // Equivalent to the kAssess branch of observe_all under exact
    // observation: outcome.count == counts[nest], outcome.quality ==
    // qualities[nest - 1] (every committed nest is a candidate, >= 1).
    // Every ant then moves to kRecruit.
    run_ant_chunks(util::round_chunks(size()),
                   [&](std::size_t begin, std::size_t end, std::int32_t*) {
                     for (std::size_t a = begin; a < end; ++a) {
                       const env::NestId nest = nest_[a];
                       apply_assess(a, counts[nest], qualities[nest - 1]);
                     }
                     fill_phase(begin, end, Phase::kRecruit);
                   });
    all_entered(Phase::kRecruit);
  }

  [[nodiscard]] std::string_view name() const override {
    return algorithm_name(kind_);
  }

 private:
  enum class Phase : std::uint8_t { kInit, kRecruit, kAssess };

  /// The ant's b this recruit round — drawing iff the scalar ant would
  /// (SimpleAnt::decide short-circuits the bernoulli for passive ants).
  [[nodiscard]] bool decide_b(std::size_t a, std::uint32_t round) {
    return active_[a] != 0 && rng_[a].bernoulli(recruit_probability(a, round));
  }

  /// Lines 2-4: commit to the found nest; bad quality => passive.
  void apply_init(std::size_t a, env::NestId found, std::uint32_t count,
                  double quality, std::int32_t* tally) {
    adopt_into(a, found, tally);
    count_[a] = count;
    quality_[a] = quality;
    if (quality <= 0.0) active_[a] = 0;
    if (kind_ == AlgorithmKind::kRateBoosted) {
      // RateBoostedAnt's one-shot k^ = n / c0 from the initial spread.
      const double observed = std::max<std::uint32_t>(count, 1);
      initial_k_[a] =
          std::max(1.0, static_cast<double>(believed_n_[a]) / observed);
    }
  }

  /// Line 7 / lines 10-13: unconditional nest adoption; a recruited
  /// (or poached) ant becomes active.
  void apply_recruit(std::size_t a, env::NestId j, std::int32_t* tally) {
    if (j != nest_[a]) {
      adopt_into(a, j, tally);
      active_[a] = 1;
    }
  }

  /// Lines 8 / 14 plus nest rejection (see SimpleAnt::observe).
  void apply_assess(std::size_t a, std::uint32_t count, double quality) {
    count_[a] = count;
    quality_[a] = quality;
    if (quality <= 0.0) active_[a] = 0;
  }

  /// True iff every ant (including frozen faulty ones) is in phase p —
  /// the gate for the uniform-shape fast paths.
  [[nodiscard]] bool all_in(Phase p) const {
    return phase_count_[static_cast<std::size_t>(p)] == size();
  }

  /// kInit -> kRecruit -> kAssess -> kRecruit -> ... (SimpleAnt::observe).
  void advance(std::size_t a) {
    const Phase next =
        phase_[a] == Phase::kRecruit ? Phase::kAssess : Phase::kRecruit;
    --phase_count_[static_cast<std::size_t>(phase_[a])];
    ++phase_count_[static_cast<std::size_t>(next)];
    phase_[a] = next;
  }

  /// A uniform round's lane write: ants [begin, end) enter phase p.
  void fill_phase(std::size_t begin, std::size_t end, Phase p) {
    std::fill(phase_.begin() + static_cast<std::ptrdiff_t>(begin),
              phase_.begin() + static_cast<std::ptrdiff_t>(end), p);
  }

  /// The phase census after a uniform round moved every ant's lane to p.
  void all_entered(Phase p) {
    std::fill(std::begin(phase_count_), std::end(phase_count_), 0u);
    phase_count_[static_cast<std::size_t>(p)] = size();
  }

  /// The variant's b-probability — the exact floating-point expressions of
  /// SimpleAnt / RateBoostedAnt / QualityAwareAnt / UniformRecruitAnt
  /// (equivalence requires identical operation order, not just identical
  /// math).
  [[nodiscard]] double recruit_probability(std::size_t a,
                                           std::uint32_t round) const {
    const double base = static_cast<double>(count_[a]) /
                        static_cast<double>(believed_n_[a]);
    switch (kind_) {
      case AlgorithmKind::kSimple:
        return base;
      case AlgorithmKind::kUniformRecruit:
        return uniform_prob_;
      case AlgorithmKind::kQualityAware:
        return base * std::clamp(quality_[a], 0.0, 1.0);
      case AlgorithmKind::kRateBoosted: {
        double k_estimate = 0.0;
        if (initial_k_[a] != 0.0) {
          const std::uint32_t halvings = round / halving_period_[a];
          const double decayed =
              (halvings >= 63)
                  ? 1.0
                  : initial_k_[a] / static_cast<double>(1ULL << halvings);
          k_estimate = std::max(1.0, decayed);
        }
        return std::max(base, std::min(0.5, base * k_estimate / 8.0));
      }
      default:
        break;
    }
    HH_ASSERT(false);
    return 0.0;
  }

  AlgorithmKind kind_;
  double uniform_prob_;
  double n_estimate_error_;
  std::vector<Phase> phase_;      // per ant: frozen while asleep/crashed
  std::uint32_t phase_count_[3] = {0, 0, 0};  // census over phase_

  std::vector<env::NestId> round_targets_;  // quiet-round nest snapshot
  std::vector<util::Rng> rng_;              // per-ant private streams
  std::vector<std::uint32_t> believed_n_;   // n~ (== n unless estimate error)
  std::vector<std::uint8_t> active_;
  std::vector<std::uint32_t> count_;
  std::vector<double> quality_;
  std::vector<double> initial_k_;           // rate-boosted: k^
  std::vector<std::uint32_t> halving_period_;  // rate-boosted: tau
};

/// QuorumAnt as state arrays. Both the stage and the recruit/assess phase
/// are per-ant lanes, exactly as in the scalar ant: a sleeping or crashed
/// ant freezes both, and a quorum-met ant's phase parks at kRecruit (the
/// assess observe that locked it is the last one it ever runs) while its
/// decide ignores the phase and recruits forever. The phase census keeps
/// the uniform-shape fast paths alive whenever the colony is in lockstep.
class QuorumPack final : public AntPack {
 public:
  QuorumPack(std::uint32_t num_ants, std::uint32_t num_nests,
             std::uint64_t colony_seed, const AlgorithmParams& params,
             const env::FaultPlan* faults)
      : AntPack(num_ants, num_nests, kTallyExtra),
        // Mirror of factory_for's threshold derivation (colony.cpp).
        threshold_(std::max<std::uint32_t>(
            1, static_cast<std::uint32_t>(params.quorum_fraction * num_ants))),
        tandem_rate_(params.quorum_tandem_rate) {
    HH_EXPECTS(num_ants >= 1);
    HH_EXPECTS(tandem_rate_ >= 0.0 && tandem_rate_ <= 1.0);
    rng_.resize(num_ants, util::Rng(0));
    stage_.resize(num_ants);
    phase_.resize(num_ants);
    count_.resize(num_ants);
    round_targets_.reserve(num_ants);  // quiet rounds must not allocate
    if (faults != nullptr) install_fault_plan(*faults);
    const bool did_reset = reset(colony_seed);
    HH_ASSERT(did_reset);
  }

  [[nodiscard]] bool do_reset(std::uint64_t colony_seed) override {
    for (env::AntId a = 0; a < size(); ++a) {
      rng_[a].reseed(util::mix_seed(colony_seed, a, 0xA17));
    }
    std::fill(stage_.begin(), stage_.end(),
              static_cast<std::uint8_t>(Stage::kInit));
    std::fill(phase_.begin(), phase_.end(), Phase::kInit);
    phase_count_[static_cast<std::size_t>(Phase::kInit)] = size();
    phase_count_[static_cast<std::size_t>(Phase::kRecruit)] = 0;
    phase_count_[static_cast<std::size_t>(Phase::kAssess)] = 0;
    std::fill(count_.begin(), count_.end(), 0u);
    reset_commitments();
    finalized_count_ = 0;
    return true;
  }

  [[nodiscard]] RoundShape correct_shape(std::uint32_t /*round*/) const override {
    if (all_in(Phase::kInit)) return RoundShape::kAllSearch;
    // A quorum-met ant parks at kRecruit, so an all-recruit census still
    // fires the uniform path (transporters recruit like everyone else) and
    // an all-go census implies nobody has met quorum yet. Assess rounds
    // after the first quorum — and any sleep/crash phase drift — are mixed,
    // with the parked transporters forcing the recruit-capable entry point.
    if (all_in(Phase::kRecruit)) return RoundShape::kAllRecruit;
    if (all_in(Phase::kAssess)) return RoundShape::kAllGo;
    return phase_count_[static_cast<std::size_t>(Phase::kRecruit)] > 0
               ? RoundShape::kMaskedRecruit
               : RoundShape::kMaskedGo;
  }

  // lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
  [[nodiscard]] std::span<const env::NestId> fill_recruit_soa(
      std::uint32_t /*round*/, std::span<std::uint8_t> active) override {
    HH_EXPECTS(all_in(Phase::kRecruit));
    HH_EXPECTS(active.size() == rng_.size());
    round_targets_.resize(size());  // lint: capacity-reserved
    for_chunks(util::round_chunks(size()),
               [&](std::size_t begin, std::size_t end, std::int32_t*) {
                 for (std::size_t a = begin; a < end; ++a) {
                   round_targets_[a] = nest_[a];
                   active[a] = decide_b(a) ? 1 : 0;
                 }
               });
    return round_targets_;
  }

  [[nodiscard]] std::span<const env::NestId> go_targets() const override {
    return nest_;
  }

  void decide_masked(std::uint32_t /*round*/, std::span<const std::uint8_t> act,
                     std::span<env::MaskedOp> op,
                     std::span<std::uint8_t> active,
                     std::span<env::NestId> targets) override {
    for (std::size_t a = 0; a < act.size(); ++a) {
      if (!act[a]) continue;
      switch (phase_[a]) {
        case Phase::kInit:
          op[a] = env::MaskedOp::kSearch;
          break;
        case Phase::kRecruit:
          // Quorum-met transporters are parked here and decide_b answers
          // true for them without a draw (recruit every round, locked).
          op[a] = env::MaskedOp::kRecruit;
          active[a] = decide_b(a) ? 1 : 0;
          targets[a] = nest_[a];
          break;
        case Phase::kAssess:
          op[a] = env::MaskedOp::kGo;
          targets[a] = nest_[a];
          break;
      }
    }
  }

  // observe_all is the base forward onto this kernel (act all-ones). The
  // masked kernels run as one chunk: set_phase() keeps the shared phase
  // census.
  void observe_masked_acting(std::span<const std::uint8_t> act,
                             std::span<const env::Outcome> outcomes) override {
    for_chunks(1, [&](std::size_t begin, std::size_t end, std::int32_t* tally) {
      for (std::size_t a = begin; a < end; ++a) {
        if (!act[a]) continue;  // frozen: crashed, sleeping, or Byzantine
        // Quorum-met ants recruit forever but their return value is
        // ignored (commitment locked) and their phase stays parked at
        // kRecruit.
        if (static_cast<Stage>(stage_[a]) == Stage::kQuorumMet) continue;
        if (static_cast<Stage>(stage_[a]) == Stage::kInit) {
          apply_init(a, outcomes[a].nest, outcomes[a].count,
                     outcomes[a].quality, tally);
        } else if (phase_[a] == Phase::kRecruit) {
          apply_recruit(a, outcomes[a].nest, tally);
          set_phase(a, Phase::kAssess);
        } else {
          apply_assess(a, outcomes[a].count, tally);
          set_phase(a, Phase::kRecruit);
        }
      }
    });
  }

  void observe_masked_quiet_acting(
      std::span<const std::uint8_t> act, const env::Environment& env,
      std::span<const env::MaskedOp> /*op*/,
      std::span<const env::NestId> targets) override {
    const std::span<const std::uint32_t> counts = env.counts();
    for_chunks(1, [&](std::size_t begin, std::size_t end, std::int32_t* tally) {
      for (std::size_t a = begin; a < end; ++a) {
        if (!act[a]) continue;  // frozen: crashed, sleeping, or Byzantine
        if (static_cast<Stage>(stage_[a]) == Stage::kQuorumMet) continue;
        if (static_cast<Stage>(stage_[a]) == Stage::kInit) {
          const env::NestId found = env.location(static_cast<env::AntId>(a));
          apply_init(a, found, counts[found], env.qualities()[found - 1],
                     tally);
        } else if (phase_[a] == Phase::kRecruit) {
          const std::int32_t recruiter =
              env.recruited_by_ant(static_cast<env::AntId>(a));
          if (recruiter != env::kNotRecruited) {
            apply_recruit(a, targets[static_cast<std::size_t>(recruiter)],
                          tally);
          }
          set_phase(a, Phase::kAssess);
        } else {
          apply_assess(a, counts[nest_[a]], tally);
          set_phase(a, Phase::kRecruit);
        }
      }
    });
  }

  // lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
  void observe_recruit_pairing(std::span<const env::NestId> targets,
                               const env::PairingScratch& pairing) override {
    HH_EXPECTS(all_in(Phase::kRecruit));
    HH_EXPECTS(targets.size() == rng_.size());
    // Every ant but the quorum-met ones (parked at kRecruit) absorbs its
    // recruit return and moves to kAssess; the moves are tallied.
    const std::uint32_t moved = for_chunks(
        util::round_chunks(size()),
        [&](std::size_t begin, std::size_t end, std::int32_t* tally) {
          std::int32_t n_moved = 0;
          for (std::size_t a = begin; a < end; ++a) {
            if (static_cast<Stage>(stage_[a]) == Stage::kQuorumMet) continue;
            const std::int32_t recruiter = pairing.recruited_by[a];
            if (recruiter != env::kNotRecruited) {
              apply_recruit(a, targets[static_cast<std::size_t>(recruiter)],
                            tally);
            }
            phase_[a] = Phase::kAssess;
            ++n_moved;
          }
          tally[moved_slot()] = n_moved;
        });
    moved_phase(Phase::kRecruit, Phase::kAssess, moved);
  }

  // lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
  void observe_go_counts(std::span<const std::uint32_t> counts,
                         std::span<const double> /*qualities*/) override {
    // Only reachable while no ant has met quorum (a quorum-met ant parks
    // its phase at kRecruit, blocking the all-assess census), so every
    // ant is kPassive or kPreQuorum, and every ant moves to kRecruit.
    HH_EXPECTS(all_in(Phase::kAssess));
    for_chunks(util::round_chunks(size()),
               [&](std::size_t begin, std::size_t end, std::int32_t* tally) {
                 for (std::size_t a = begin; a < end; ++a) {
                   apply_assess(a, counts[nest_[a]], tally);
                 }
                 fill_phase(begin, end, Phase::kRecruit);
               });
    moved_phase(Phase::kAssess, Phase::kRecruit, size());
  }

  [[nodiscard]] bool finalized(env::AntId a) const override {
    return static_cast<Stage>(stage_[a]) == Stage::kQuorumMet;
  }

  [[nodiscard]] bool any_finalized() const override {
    return finalized_count_ > 0;
  }

  [[nodiscard]] std::string_view name() const override {
    return algorithm_name(AlgorithmKind::kQuorum);
  }

 private:
  enum class Stage : std::uint8_t { kInit, kPassive, kPreQuorum, kQuorumMet };
  enum class Phase : std::uint8_t { kInit, kRecruit, kAssess };

  // A chunk tally's counters after its census delta: ants that met
  // quorum, and ants a uniform round moved from its phase to the other.
  static constexpr std::size_t kTallyExtra = 2;
  [[nodiscard]] std::size_t finalized_slot() const { return census_.size(); }
  [[nodiscard]] std::size_t moved_slot() const { return census_.size() + 1; }

  /// run_ant_chunks plus the quorum counters: newly finalized ants join
  /// finalized_count_; returns the chunks' phase moves, summed.
  template <typename Kernel>
  std::uint32_t for_chunks(std::size_t chunks, Kernel&& kernel) {
    std::uint32_t moved = 0;
    run_ant_chunks(chunks, kernel, [&](const std::int32_t* tally) {
      finalized_count_ += static_cast<std::uint32_t>(tally[finalized_slot()]);
      moved += static_cast<std::uint32_t>(tally[moved_slot()]);
    });
    return moved;
  }

  /// A uniform round's lane write: ants [begin, end) enter phase p.
  void fill_phase(std::size_t begin, std::size_t end, Phase p) {
    std::fill(phase_.begin() + static_cast<std::ptrdiff_t>(begin),
              phase_.begin() + static_cast<std::ptrdiff_t>(end), p);
  }

  /// The phase census after a uniform round moved `moved` lanes from
  /// phase `from` to phase `to`.
  void moved_phase(Phase from, Phase to, std::uint32_t moved) {
    phase_count_[static_cast<std::size_t>(from)] -= moved;
    phase_count_[static_cast<std::size_t>(to)] += moved;
  }

  /// The b of QuorumAnt::decide in a recruit-phase round.
  [[nodiscard]] bool decide_b(std::size_t a) {
    switch (static_cast<Stage>(stage_[a])) {
      case Stage::kPassive:
        return false;
      case Stage::kPreQuorum: {
        // Population-proportional tandem running, slowed by tandem_rate.
        const double p = tandem_rate_ * static_cast<double>(count_[a]) /
                         static_cast<double>(size());
        return rng_[a].bernoulli(p);
      }
      case Stage::kQuorumMet:
        return true;
      case Stage::kInit:
        break;
    }
    HH_ASSERT(false);  // correct_shape reports kAllSearch pre-init
    return false;
  }

  void apply_init(std::size_t a, env::NestId found, std::uint32_t count,
                  double quality, std::int32_t* tally) {
    adopt_into(a, found, tally);
    count_[a] = count;
    stage_[a] = static_cast<std::uint8_t>(quality > 0.0 ? Stage::kPreQuorum
                                                        : Stage::kPassive);
    set_phase(a, Phase::kRecruit);
  }

  [[nodiscard]] bool all_in(Phase p) const {
    return phase_count_[static_cast<std::size_t>(p)] == size();
  }

  void set_phase(std::size_t a, Phase next) {
    --phase_count_[static_cast<std::size_t>(phase_[a])];
    ++phase_count_[static_cast<std::size_t>(next)];
    phase_[a] = next;
  }

  void apply_recruit(std::size_t a, env::NestId j, std::int32_t* tally) {
    switch (static_cast<Stage>(stage_[a])) {
      case Stage::kPassive:
        if (j != nest_[a]) {
          adopt_into(a, j, tally);  // recruited: follow the tandem run
          stage_[a] = static_cast<std::uint8_t>(Stage::kPreQuorum);
        }
        break;
      case Stage::kPreQuorum:
        if (j != nest_[a]) adopt_into(a, j, tally);  // still persuadable
        break;
      default:
        break;  // quorum met: commitment locked
    }
  }

  void apply_assess(std::size_t a, std::uint32_t count, std::int32_t* tally) {
    switch (static_cast<Stage>(stage_[a])) {
      case Stage::kPassive:
        count_[a] = count;
        break;
      case Stage::kPreQuorum:
        count_[a] = count;
        if (count_[a] >= threshold_) {
          stage_[a] = static_cast<std::uint8_t>(Stage::kQuorumMet);
          ++tally[finalized_slot()];
        }
        break;
      default:
        break;
    }
  }

  std::uint32_t threshold_;
  double tandem_rate_;
  std::uint32_t finalized_count_ = 0;

  std::vector<env::NestId> round_targets_;  // quiet-round nest snapshot
  std::vector<util::Rng> rng_;
  std::vector<std::uint8_t> stage_;
  std::vector<Phase> phase_;      // per ant: frozen while asleep/crashed
  std::uint32_t phase_count_[3] = {0, 0, 0};  // census over phase_
  std::vector<std::uint32_t> count_;
};

}  // namespace

AntPack::AntPack(std::uint32_t num_ants, std::uint32_t num_nests,
                 std::size_t tally_extra)
    : num_ants_(num_ants) {
  HH_EXPECTS(num_ants >= 1);
  act_.assign(num_ants, 1);  // everyone acts until a fault plan says not
  awake_.assign(num_ants, 1);  // all-awake until begin_round says not
  nest_.assign(num_ants, env::kHomeNest);
  census_.assign(num_nests + 1, 0);
  census_[env::kHomeNest] = num_ants;  // re-derived by reset_commitments
  // Pad each tally slice by a cache line so two chunks' hot tallies never
  // share one.
  constexpr std::size_t kLine = 64 / sizeof(std::int32_t);
  tally_width_ = census_.size() + tally_extra;
  tally_stride_ = (tally_width_ + kLine - 1) / kLine * kLine + kLine;
  tallies_.assign(util::kMaxRoundChunks * tally_stride_, 0);
}

AntPack::~AntPack() = default;

void AntPack::reset_commitments() {
  std::fill(nest_.begin(), nest_.end(), env::kHomeNest);
  std::fill(census_.begin(), census_.end(), 0u);
  census_[env::kHomeNest] = correct_count();
}

void AntPack::committed_census(std::span<std::uint32_t> census) const {
  HH_EXPECTS(census.size() == census_.size());
  std::copy(census_.begin(), census_.end(), census.begin());
}

void AntPack::observe_all(std::span<const env::Outcome> outcomes) {
  HH_ASSERT(!has_faults_);  // uniform shapes are never reported faulted
  observe_masked_acting(act_, outcomes);
}

void AntPack::install_fault_plan(const env::FaultPlan& plan) {
  HH_EXPECTS(plan.type.size() == num_ants_);
  HH_EXPECTS(plan.crash_round.size() == num_ants_);
  correct_count_ = 0;
  byz_count_ = 0;
  fault_type_.resize(num_ants_);
  crash_round_.resize(num_ants_);
  byz_target_.assign(num_ants_, env::kHomeNest);
  byz_quality_.assign(num_ants_, kByzantineNoTargetQuality);
  byz_scouted_.assign(num_ants_, 0);
  for (env::AntId a = 0; a < num_ants_; ++a) {
    fault_type_[a] = static_cast<std::uint8_t>(plan.type[a]);
    crash_round_[a] = plan.crash_round[a];
    correct_count_ += plan.type[a] == env::FaultType::kNone ? 1u : 0u;
    byz_count_ += plan.type[a] == env::FaultType::kByzantine ? 1u : 0u;
  }
  byz_scouting_ = byz_count_;
  // A plan whose victim counts floored to zero is behaviorally fault-free:
  // keep the uniform fast paths.
  has_faults_ = correct_count_ != num_ants_;
}

void AntPack::begin_round(std::span<const std::uint8_t> awake) {
  HH_EXPECTS(awake.size() == num_ants_);
  std::copy(awake.begin(), awake.end(), awake_.begin());
  any_asleep_ =
      std::find(awake.begin(), awake.end(), std::uint8_t{0}) != awake.end();
  // An all-sleepers round leaves act_ zeroed with no phase advanced, so
  // the NEXT round can still be colony-uniform — and the all-search path
  // forwards act_ straight into observe_all without ever calling
  // fill_masked. Refill here, before round_shape dispatch, or a fully
  // awake round after a fully asleep one would skip every observe and
  // freeze the pack (diverging from the scalar engine).
  if (act_stale_) {
    std::fill(act_.begin(), act_.end(), std::uint8_t{1});
    act_stale_ = false;
  }
}

bool AntPack::reset(std::uint64_t colony_seed) {
  std::fill(awake_.begin(), awake_.end(), std::uint8_t{1});
  any_asleep_ = false;
  if (act_stale_) {
    std::fill(act_.begin(), act_.end(), std::uint8_t{1});
    act_stale_ = false;
  }
  if (!do_reset(colony_seed)) return false;
  if (has_faults_) {
    // Re-derive the Byzantine scout state; the installed plan (types,
    // crash rounds) persists — Simulation::reset reinstalls it when the
    // plan itself depends on the master seed.
    std::fill(byz_target_.begin(), byz_target_.end(), env::kHomeNest);
    std::fill(byz_quality_.begin(), byz_quality_.end(),
              kByzantineNoTargetQuality);
    std::fill(byz_scouted_.begin(), byz_scouted_.end(), std::uint8_t{0});
    byz_scouting_ = byz_count_;
  }
  return true;
}

RoundShape AntPack::round_shape(std::uint32_t round) const {
  const RoundShape shape = correct_shape(round);
  // Any faulty OR sleeping ant deviates from a uniform shape: crashed and
  // sleeping ants idle, Byzantine ants search through their scout rounds
  // and recruit after. A masked-recruit round whose recruiters all turn
  // out to be asleep is harmless: the empty request set draws nothing.
  if (!has_faults_ && !any_asleep_) return shape;
  const bool byz_recruiting = byz_count_ > byz_scouting_;
  const bool recruiters = shape == RoundShape::kAllRecruit ||
                          shape == RoundShape::kMaskedRecruit ||
                          byz_recruiting;
  return recruiters ? RoundShape::kMaskedRecruit : RoundShape::kMaskedGo;
}

void AntPack::overlay_faults(std::uint32_t round, std::span<env::MaskedOp> op,
                             std::span<std::uint8_t> active,
                             std::span<env::NestId> targets) {
  for (env::AntId a = 0; a < num_ants_; ++a) {
    switch (static_cast<env::FaultType>(fault_type_[a])) {
      case env::FaultType::kNone:
        act_[a] = 1;
        break;
      case env::FaultType::kCrash:
        // CrashProneAnt: idles (and stops observing) from its crash round.
        if (round < crash_round_[a]) {
          act_[a] = 1;
        } else {
          act_[a] = 0;
          op[a] = env::MaskedOp::kIdle;
        }
        break;
      case env::FaultType::kByzantine:
        // ByzantineAnt: scout for the worst nest, then recruit toward it
        // every round, forever, ignoring all feedback.
        act_[a] = 0;
        if (byz_scouted_[a] < kByzantineScoutRounds) {
          op[a] = env::MaskedOp::kSearch;
        } else {
          op[a] = env::MaskedOp::kRecruit;
          active[a] = 1;
          targets[a] = byz_target_[a];
        }
        break;
    }
  }
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
void AntPack::fill_masked(std::uint32_t round, std::span<env::MaskedOp> op,
                          std::span<std::uint8_t> active,
                          std::span<env::NestId> targets) {
  HH_EXPECTS(op.size() == num_ants_);
  HH_EXPECTS(active.size() == num_ants_);
  HH_EXPECTS(targets.size() == num_ants_);
  masked_round_ = round;
  if (has_faults_) {
    overlay_faults(round, op, active, targets);
  } else if (act_stale_) {
    std::fill(act_.begin(), act_.end(), std::uint8_t{1});
    act_stale_ = false;
  }
  if (any_asleep_) {
    // Sleep overlays AFTER faults: a sleeping ant idles no matter what its
    // fault lane planned (the scalar loop consults the scheduler before
    // the fault wrapper's decide). Stale active/target rows are unread
    // under kIdle.
    for (env::AntId a = 0; a < num_ants_; ++a) {
      if (awake_[a]) continue;
      act_[a] = 0;
      op[a] = env::MaskedOp::kIdle;
    }
    act_stale_ = !has_faults_;
  }
  decide_masked(round, act_, op, active, targets);
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
void AntPack::observe_masked(std::span<const env::Outcome> outcomes) {
  // Byzantine search outcomes exist only while some scout window is still
  // open — skip the O(n) scan for the rest of the run (mirrors the quiet
  // form). An adversary that slept (kIdle outcome) made no search, so it
  // neither learns nor burns a scout round.
  if (byz_scouting_ > 0) {
    for (env::AntId a = 0; a < num_ants_; ++a) {
      if (!byzantine(a) || outcomes[a].kind != env::ActionKind::kSearch) {
        continue;
      }
      scout_round_done(a);
      // Track the worst nest seen; ties broken toward the first found so
      // the adversary concentrates its pull on a single bad nest.
      if (outcomes[a].quality < byz_quality_[a]) {
        byz_quality_[a] = outcomes[a].quality;
        byz_target_[a] = outcomes[a].nest;
      }
    }
  }
  observe_masked_acting(act_, outcomes);
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
void AntPack::observe_masked_quiet(const env::Environment& env,
                                   std::span<const env::MaskedOp> op,
                                   std::span<const env::NestId> targets) {
  if (byz_scouting_ > 0) {
    for (env::AntId a = 0; a < num_ants_; ++a) {
      // op is this round's decide output: a scouting adversary holds
      // kSearch, a sleeping one was overlaid to kIdle (no search, no
      // learning, scout window stretched — like the scalar ant, whose
      // rounds_scouted_ only advances on a search outcome).
      if (!byzantine(a) || op[a] != env::MaskedOp::kSearch) continue;
      scout_round_done(a);
      const env::NestId found = env.location(a);
      const double q = env.qualities()[found - 1];  // exact observation
      if (q < byz_quality_[a]) {
        byz_quality_[a] = q;
        byz_target_[a] = found;
      }
    }
  }
  observe_masked_quiet_acting(act_, env, op, targets);
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
bool AntPack::observe_masked_quiet_then_decide(std::uint32_t round,
                                               const env::Environment& env,
                                               std::span<env::MaskedOp> op,
                                               std::span<std::uint8_t> active,
                                               std::span<env::NestId> targets) {
  // The gates mirror fill_masked's special cases: any of them live means
  // the next round needs the overlay machinery (or a different shape), so
  // the fused pass is not applicable and the round tail stays split. The
  // hook contract lets this short-circuit safely: a false return had no
  // side effects.
  if (!has_faults_ && !any_asleep_ && !act_stale_ &&
      correct_shape(round + 1) == RoundShape::kMaskedRecruit &&
      fused_observe_decide(env, op, active, targets)) {
    masked_round_ = round + 1;
    return true;
  }
  observe_masked_quiet(env, op, targets);
  return false;
}

std::uint32_t AntPack::agreement_census(ConvergenceMode mode,
                                        const env::Environment& /*env*/,
                                        std::span<std::uint32_t> census) const {
  // Packs default to the kCommitment notion; packs whose algorithms use
  // finalized/physical agreement override (OptimalPack).
  HH_EXPECTS(mode == ConvergenceMode::kCommitment);
  committed_census(census);
  return correct_count();
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
void AntPack::decide_masked(std::uint32_t /*round*/,
                            std::span<const std::uint8_t> /*act*/,
                            std::span<env::MaskedOp> /*op*/,
                            std::span<std::uint8_t> /*active*/,
                            std::span<env::NestId> /*targets*/) {
  HH_ASSERT(false);  // only called when round_shape() says kMasked*
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
void AntPack::observe_masked_acting(std::span<const std::uint8_t> /*act*/,
                                    std::span<const env::Outcome> /*outcomes*/) {
  HH_ASSERT(false);  // only called when round_shape() says kMasked*
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
void AntPack::observe_masked_quiet_acting(
    std::span<const std::uint8_t> /*act*/, const env::Environment& /*env*/,
    std::span<const env::MaskedOp> /*op*/,
    std::span<const env::NestId> /*targets*/) {
  HH_ASSERT(false);  // only called when round_shape() says kMasked*
}

std::span<const env::NestId> AntPack::go_targets() const {
  HH_ASSERT(false);  // only called when round_shape() says kAllGo
  return {};
}

std::span<const env::NestId> AntPack::fill_recruit_soa(
    std::uint32_t /*round*/, std::span<std::uint8_t> /*active*/) {
  HH_ASSERT(false);  // only called when round_shape() says kAllRecruit
  return {};
}

void AntPack::observe_recruit_pairing(
    std::span<const env::NestId> /*targets*/,
    const env::PairingScratch& /*pairing*/) {
  HH_ASSERT(false);  // only called for packs reporting kAllRecruit rounds
}

void AntPack::observe_go_counts(std::span<const std::uint32_t> /*counts*/,
                                std::span<const double> /*qualities*/) {
  HH_ASSERT(false);  // only called for packs reporting kAllGo rounds
}

bool AntPack::finalized(env::AntId /*a*/) const { return false; }

bool AntPack::any_finalized() const { return false; }

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
std::uint32_t AntPack::count_finalized(std::span<const env::AntId> ants) const {
  std::uint32_t c = 0;
  for (const env::AntId a : ants) c += finalized(a) ? 1u : 0u;
  return c;
}

bool packed_available(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kSimple:
    case AlgorithmKind::kRateBoosted:
    case AlgorithmKind::kQualityAware:
    case AlgorithmKind::kUniformRecruit:
    case AlgorithmKind::kQuorum:
    case AlgorithmKind::kOptimal:
    case AlgorithmKind::kOptimalSettle:
      return true;
  }
  return false;
}

Capabilities packed_capabilities(AlgorithmKind kind) {
  // One declaration covers every built-in: they all derive from the
  // AntPack base, whose fault lanes, sleep overlay, loud/quiet observe
  // kernels, and agreement censuses supply the whole matrix.
  return packed_available(kind) ? Capabilities::standard_pack()
                                : Capabilities{};
}

std::unique_ptr<AntPack> make_ant_pack(AlgorithmKind kind,
                                       std::uint32_t num_ants,
                                       std::uint32_t num_nests,
                                       std::uint64_t colony_seed,
                                       const AlgorithmParams& params,
                                       const env::FaultPlan* faults) {
  switch (kind) {
    case AlgorithmKind::kSimple:
    case AlgorithmKind::kRateBoosted:
    case AlgorithmKind::kQualityAware:
    case AlgorithmKind::kUniformRecruit:
      return std::make_unique<SimpleFamilyPack>(kind, num_ants, num_nests,
                                                colony_seed, params, faults);
    case AlgorithmKind::kQuorum:
      return std::make_unique<QuorumPack>(num_ants, num_nests, colony_seed,
                                          params, faults);
    case AlgorithmKind::kOptimal:
      return make_optimal_pack(num_ants, num_nests, colony_seed,
                               /*settle=*/false, faults);
    case AlgorithmKind::kOptimalSettle:
      return make_optimal_pack(num_ants, num_nests, colony_seed,
                               /*settle=*/true, faults);
  }
  return nullptr;
}

}  // namespace hh::core
