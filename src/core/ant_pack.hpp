// The packed (struct-of-arrays) ant engine — the zero-dispatch fast path
// for large sweeps.
//
// The per-object path models each ant as a heap-allocated polymorphic
// state machine: every round costs n virtual decide() calls, n virtual
// observe() calls, and another n virtual committed_nest() calls in the
// convergence detector. But the paper's colonies are n IDENTICAL
// probabilistic FSMs (Section 2), so an algorithm's whole colony can be
// run as parallel state arrays — one state/nest/count/RNG lane per ant —
// with a single non-virtual decide/observe pass per round over
// contiguous memory.
//
// Equivalence contract: a pack must reproduce the per-object colony
// BIT-IDENTICALLY — same per-ant RNG streams (seeded exactly as
// make_colony seeds them), same draw sequence, same floating-point
// expressions — so RunResults match the reference path for every seed.
// tests/test_ant_pack.cpp enforces this for every packed algorithm at
// 1/2/8 runner threads.
//
// Layering (the phase-aware decision-kernel split):
//   * DERIVED packs implement the algorithm's correct-ant kernels:
//     correct_shape() classifies each round, decide_masked()/the uniform
//     fill_* methods produce the acting ants' calls, and the observe
//     kernels absorb results — always drawing per-ant RNG in ant order,
//     exactly as the scalar ants would.
//   * The BASE class owns the generic fault lanes (crash rounds,
//     Byzantine scout/recruit machines mirrored from the core fault
//     wrappers, driven by env::FaultPlan): it overlays faulty ants onto
//     each round's op/active/target lanes and gates the derived kernels
//     to the acting correct ants, so every algorithm gains packed fault
//     support without fault code of its own.
//   * Colony-uniform rounds (every ant searches/recruits/goes) route
//     through the environment's all-* fast paths; mixed-phase rounds
//     (Algorithm 2's interleaved R1-R4 blocks, any faulted round) route
//     through the masked SoA entry points (Environment::step_masked_*).
//     The all-recruit and all-go paths are Outcome-free, so they serve
//     exact observation only: under noisy observation the driver runs
//     those rounds through fill_masked and the loud masked entry points,
//     whose Outcomes carry the perception draws. Exact masked rounds use
//     the Outcome-free quiet forms too.
//
// Packs exist for every built-in algorithm: the Algorithm-3 family
// (simple, rate-boosted, quality-aware, uniform-recruit), the quorum
// baseline, and Algorithm 2 (optimal, with and without the Section 4.2
// settle fix; see optimal_pack.cpp). Partial synchrony runs packed too:
// the driver pre-draws the round's awake mask (same scheduler stream and
// ant order as the scalar loop) and hands it to begin_round(); the base
// overlays sleeping ants as MaskedOp::kIdle rows exactly as it overlays
// crashed ants, and each pack keeps per-ant phase lanes so a slept ant's
// state machine freezes and resumes like its scalar counterpart.
#ifndef HH_CORE_ANT_PACK_HPP
#define HH_CORE_ANT_PACK_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/capabilities.hpp"
#include "core/colony.hpp"
#include "core/convergence.hpp"
#include "env/action.hpp"
#include "env/environment.hpp"
#include "env/faults.hpp"
#include "env/nest.hpp"
#include "env/pairing.hpp"
#include "util/rng.hpp"
#include "util/round_pool.hpp"

namespace hh::core {

/// The composition of a round, letting the driver route to the
/// environment's SoA fast paths instead of the generic per-action
/// dispatch. Uniform shapes are reported only when EVERY ant makes that
/// call (so never under fault lanes); the masked shapes carry mixed
/// rounds through Environment::step_masked_*. Under noisy observation the
/// driver runs kAllRecruit/kAllGo rounds as kMaskedRecruit/kMaskedGo (the
/// uniform recruit and go fast paths are quiet-only); packs need not know.
enum class RoundShape : std::uint8_t {
  kAllSearch,      ///< every ant searches (round 1, fault-free)
  kAllRecruit,     ///< every ant recruits: fill_recruit_soa +
                   ///< step_all_recruit_quiet
  kAllGo,          ///< every ant goes: go_targets + step_all_go_quiet
  kMaskedRecruit,  ///< mixed ops, recruiters possible: fill_masked +
                   ///< step_masked_recruit
  kMaskedGo,       ///< mixed ops, NO recruiters: fill_masked + step_masked_go
};

/// A whole colony as parallel state arrays. One virtual call per ROUND
/// (not per ant); the loops inside are non-virtual and allocation-free.
class AntPack {
 public:
  AntPack(const AntPack&) = delete;
  AntPack& operator=(const AntPack&) = delete;
  virtual ~AntPack();

  // --- driver interface (core::Simulation) --------------------------------

  /// The shape of `round` (1-based), fault lanes included: a colony whose
  /// correct ants are uniform still reports a masked shape when any
  /// faulty ant deviates (a crashed ant idles, a Byzantine ant searches
  /// then recruits).
  [[nodiscard]] RoundShape round_shape(std::uint32_t round) const;

  /// Partial synchrony: install the round's awake mask BEFORE consulting
  /// round_shape (a round with any sleeper reports a masked shape).
  /// awake[a] == 0 freezes ant a for the round: its row becomes
  /// MaskedOp::kIdle, its decide kernel draws nothing, and its observe
  /// kernel is skipped — exactly the scalar scheduler-gated loop. The
  /// driver draws the mask (scheduler stream, ant order) so the pack
  /// consumes no scheduler randomness itself. The mask is copied; it does
  /// not need to outlive the call. Omitting the call means all-awake.
  void begin_round(std::span<const std::uint8_t> awake);

  /// kMaskedRecruit/kMaskedGo rounds: fill every ant's op/active/target
  /// lanes for `round` — fault rows written by the base class, acting
  /// correct ants by the derived decide kernel (drawing the same RNG
  /// sequence the scalar colony would).
  void fill_masked(std::uint32_t round, std::span<env::MaskedOp> op,
                   std::span<std::uint8_t> active,
                   std::span<env::NestId> targets);

  /// Absorb a masked round's Outcomes (the loud form — required under
  /// noisy observation).
  void observe_masked(std::span<const env::Outcome> outcomes);

  /// Absorb a masked round quietly (exact observation): results are read
  /// straight off the environment (counts, locations, the ant-indexed
  /// matching view). `op` and `targets` must be the lanes fill_masked
  /// produced for this round — each ant's result kind and the recruit
  /// returns resolve through them.
  void observe_masked_quiet(const env::Environment& env,
                            std::span<const env::MaskedOp> op,
                            std::span<const env::NestId> targets);

  /// The fused tail of a fault-free, fully-awake masked-recruit round:
  /// absorb round `round` quietly AND overwrite the same lanes with every
  /// ant's round `round + 1` decision, returning true — the driver then
  /// skips fill_masked for the next round. Falls back to the plain quiet
  /// observe (returning false) when fault or sleep lanes are live, when
  /// round `round + 1`'s correct shape is not kMaskedRecruit, or when the
  /// pack does not implement the fusion hook. Must not be called under
  /// partial synchrony — the sleep overlay belongs to fill_masked.
  [[nodiscard]] bool observe_masked_quiet_then_decide(
      std::uint32_t round, const env::Environment& env,
      std::span<env::MaskedOp> op, std::span<std::uint8_t> active,
      std::span<env::NestId> targets);

  /// Exact kAllRecruit rounds only: write every ant's b into `active` and
  /// return the advertised-nest lane (a pack-owned snapshot that stays
  /// valid through the following observe_recruit_pairing), drawing the
  /// same RNG sequence the scalar colony would draw.
  [[nodiscard]] virtual std::span<const env::NestId> fill_recruit_soa(
      std::uint32_t round, std::span<std::uint8_t> active);

  /// Exact kAllGo rounds only: the per-ant go() targets. Packs return a
  /// view of their committed-nest lane — no copy.
  [[nodiscard]] virtual std::span<const env::NestId> go_targets() const;

  /// Deliver the end-of-round return values of a kAllSearch round
  /// (outcomes[a] answers ant a's call) — the one uniform round whose
  /// results come as Outcomes. Uniform shapes are only reported
  /// fault-free, where the act lane is all-ones — so the default forwards
  /// to the masked observe kernel, which IS the uniform kernel then (one
  /// copy of every transition, not two).
  virtual void observe_all(std::span<const env::Outcome> outcomes);

  // Quiet observation (exact model only): consume the round's results
  // straight from the environment's pairing scratch / count arrays instead
  // of a per-ant Outcome array. Semantically identical to observe_all over
  // the Outcomes the loud round would have produced. The built-in packs
  // run these two hooks and fill_recruit_soa as ant chunks on the round
  // pool (run_ant_chunks).

  /// Apply a kAllRecruit round: `targets` as returned by
  /// fill_recruit_soa, `pairing` from Environment::last_pairing().
  virtual void observe_recruit_pairing(std::span<const env::NestId> targets,
                                       const env::PairingScratch& pairing);

  /// Apply a kAllGo round from end-of-round counts (size k+1, by nest)
  /// and true qualities (size k, nest i at [i-1]).
  virtual void observe_go_counts(std::span<const std::uint32_t> counts,
                                 std::span<const double> qualities);

  /// Overwrite `census` (size k+1, indexed by nest) with the number of
  /// CORRECT ants committed to each nest (faulty ants are exempt from
  /// convergence, matching the scalar path's committed_census). The base
  /// serves it from the shared commitment lanes; packs that adopt nests
  /// exclusively through adopt_into() need no override.
  virtual void committed_census(std::span<std::uint32_t> census) const;

  /// The agreement census the convergence detector consumes, under the
  /// algorithm's convergence notion (see core::current_agreement):
  /// `census[i]` counts the correct ants agreeing on nest i — committed
  /// (kCommitment), committed AND finalized (kCommitmentFinalized), or
  /// physically located there and finalized (kPhysical). Returns the
  /// number of correct ants the census was taken over. The base handles
  /// kCommitment via committed_census(); packs whose algorithms default
  /// to another mode override.
  [[nodiscard]] virtual std::uint32_t agreement_census(
      ConvergenceMode mode, const env::Environment& env,
      std::span<std::uint32_t> census) const;

  /// Whether ant a has durably decided (see Ant::finalized). Byzantine
  /// ants never report finalized (their lanes never run the correct-ant
  /// kernels), matching core::ByzantineAnt.
  [[nodiscard]] virtual bool finalized(env::AntId a) const;

  /// True iff any ant is finalized — lets the driver skip the per-ant
  /// finalized() scan when attributing tandem runs vs transports.
  [[nodiscard]] virtual bool any_finalized() const;

  /// Number of `ants` (each listed at most once) that are finalized — the
  /// batch form of finalized() the driver feeds the round's successful
  /// recruiters (env::Environment::successful_recruiters()) to attribute
  /// transports. One virtual call per round instead of one per ant; packs
  /// with a state lane override it with a flat counted loop.
  [[nodiscard]] virtual std::uint32_t count_finalized(
      std::span<const env::AntId> ants) const;

  /// Install the per-ant fault lanes a sampled env::FaultPlan describes:
  /// crash victims idle from their crash round on (their lanes freeze,
  /// exactly like core::CrashProneAnt freezes its inner ant); Byzantine
  /// positions never run the algorithm kernel at all — they scout for the
  /// worst nest, then actively recruit toward it forever
  /// (core::ByzantineAnt). Call before reset(); reset() re-derives the
  /// Byzantine scout state but keeps the installed plan. Allocation-free
  /// after the first installation at a given colony size.
  void install_fault_plan(const env::FaultPlan& plan);

  /// Rewind the whole colony to its pre-round-1 state under a new colony
  /// seed, reusing every lane — per-ant RNG streams are re-derived exactly
  /// as construction derives them (mix_seed(colony_seed, ant, 0xA17),
  /// including the believed-n draw order), so a reset pack is
  /// indistinguishable from a freshly built one. Returns false when the
  /// pack does not support in-place reset (the caller reconstructs); the
  /// built-in packs all return true. Allocation-free.
  [[nodiscard]] bool reset(std::uint64_t colony_seed);

  /// Colony size n.
  [[nodiscard]] std::uint32_t size() const { return num_ants_; }

  /// Stable algorithm name (matches algorithm_name(kind)).
  [[nodiscard]] virtual std::string_view name() const = 0;

 protected:
  /// `tally_extra`: the pack counters each chunk tally carries after its
  /// census delta (see run_ant_chunks).
  AntPack(std::uint32_t num_ants, std::uint32_t num_nests,
          std::size_t tally_extra = 0);

  // --- the decision-kernel interface derived packs implement ---------------

  /// The shape `round` would have if every ant were correct. The base
  /// overlays fault lanes on top (a uniform shape degrades to a masked
  /// one; byz recruiters can turn kAllGo/kMaskedGo into kMaskedRecruit).
  [[nodiscard]] virtual RoundShape correct_shape(std::uint32_t round) const = 0;

  /// reset() body: re-derive every lane from `colony_seed`. Byzantine
  /// positions must skip the algorithm's per-ant construction draws
  /// (their scalar counterparts never construct the inner ant); use
  /// byzantine(a). Return false if in-place reset is unsupported.
  [[nodiscard]] virtual bool do_reset(std::uint64_t colony_seed) = 0;

  /// Masked decide kernel: for every ant with act[a] != 0 write op[a]
  /// (+ active/targets as the op requires), drawing per-ant RNG exactly
  /// as the scalar ant's decide() would. Rows with act[a] == 0 are the
  /// base class's (faulty ants) — leave them untouched.
  virtual void decide_masked(std::uint32_t round,
                             std::span<const std::uint8_t> act,
                             std::span<env::MaskedOp> op,
                             std::span<std::uint8_t> active,
                             std::span<env::NestId> targets);

  /// Masked observe kernel, loud form: apply outcomes[a] for every ant
  /// with act[a] != 0.
  virtual void observe_masked_acting(std::span<const std::uint8_t> act,
                                     std::span<const env::Outcome> outcomes);

  /// Masked observe kernel, quiet form (exact observation): derive each
  /// acting ant's results from the environment (counts(), location(),
  /// recruited_by_ant()) and the round's op/target lanes — op[a] is the
  /// single source of truth for whether ant a's result is a recruit
  /// return or a visit count (no kernel re-derives its decide table).
  virtual void observe_masked_quiet_acting(std::span<const std::uint8_t> act,
                                           const env::Environment& env,
                                           std::span<const env::MaskedOp> op,
                                           std::span<const env::NestId> targets);

  /// Fusion hook behind observe_masked_quiet_then_decide. The caller's
  /// gates guarantee every lane acts (no faults, no sleepers, act_ all
  /// ones) and that the next round's correct shape is kMaskedRecruit.
  /// Implementations observe every ant quietly and immediately rewrite
  /// its op/active/target lanes with the NEXT round's decision — one pass
  /// over the state lanes instead of an observe sweep plus a decide
  /// sweep — then return true. The default opts out: return false with
  /// NO side effects (the caller then runs the plain quiet observe).
  [[nodiscard]] virtual bool fused_observe_decide(
      const env::Environment& /*env*/, std::span<env::MaskedOp> /*op*/,
      std::span<std::uint8_t> /*active*/, std::span<env::NestId> /*targets*/) {
    return false;
  }

  // --- fault-lane helpers for derived kernels ------------------------------

  [[nodiscard]] bool has_faults() const { return has_faults_; }
  /// The round fill_masked() last planned — for observe kernels that need
  /// the round number back (Algorithm 2's block step).
  [[nodiscard]] std::uint32_t masked_round() const { return masked_round_; }
  /// True iff ant a is Byzantine (its lane never runs the derived kernel).
  [[nodiscard]] bool byzantine(env::AntId a) const {
    return has_faults_ && fault_type_[a] ==
                              static_cast<std::uint8_t>(env::FaultType::kByzantine);
  }
  /// True iff ant a belongs in convergence censuses (correct ants only;
  /// crash-SCHEDULED ants are exempt from the start, like the scalar
  /// path's Colony::correct).
  [[nodiscard]] bool counts_in_census(env::AntId a) const {
    return !has_faults_ ||
           fault_type_[a] == static_cast<std::uint8_t>(env::FaultType::kNone);
  }
  /// Number of correct ants (the census total).
  [[nodiscard]] std::uint32_t correct_count() const {
    return has_faults_ ? correct_count_ : num_ants_;
  }
  /// True iff ant a acts this round (partial synchrony; all-ones unless
  /// begin_round installed a mask with sleepers).
  [[nodiscard]] bool awake(env::AntId a) const { return awake_[a] != 0; }
  /// True iff the current round's mask has at least one sleeper.
  [[nodiscard]] bool any_asleep() const { return any_asleep_; }

  // --- shared commitment lanes ---------------------------------------------
  // Every pack tracks one committed nest per ant plus the incremental
  // census of correct ants over it; the lanes and their maintenance live
  // here ONCE so the census-exemption rule cannot drift between packs.

  /// Commitment change with census maintenance (correct ants only). The
  /// census change lands in `delta` — the calling chunk's tally (k+1
  /// entries, see run_ant_chunks) — instead of the shared census, which
  /// run_ant_chunks folds the chunks' deltas into after the join.
  void adopt_into(std::size_t a, env::NestId j, std::int32_t* delta) {
    if (counts_in_census(static_cast<env::AntId>(a))) {
      --delta[nest_[a]];
      ++delta[j];
    }
    nest_[a] = j;
  }

  // --- chunked kernels (util/round_pool.hpp) -------------------------------
  // An observe or decide kernel whose iterations touch only their own
  // ant's lanes runs as contiguous ant chunks. Each chunk gets a tally
  // slice: its census delta (k+1 entries, for adopt_into) followed by the
  // constructor's `tally_extra` pack counters, all integer sums, so a
  // result never depends on the chunk count. The slices are sized at
  // construction, so chunked rounds allocate nothing.

  /// Run kernel(begin, end, tally) over the colony split into `chunks`
  /// contiguous ant ranges — util::round_chunks(size()) for a kernel
  /// whose ants are independent, 1 for one that updates shared state —
  /// with each chunk's tally zeroed first. After the join, fold every
  /// chunk's census delta into census_ and hand its whole tally to
  /// merge(tally), in chunk order.
  template <typename Kernel, typename Merge>
  void run_ant_chunks(std::size_t chunks, Kernel&& kernel, Merge&& merge) {
    const std::size_t n = num_ants_;
    util::run_chunks(chunks, [&](std::size_t c) {
      std::int32_t* const tally = tallies_.data() + c * tally_stride_;
      std::fill(tally, tally + tally_width_, 0);
      kernel(util::chunk_begin(n, chunks, c),
             util::chunk_begin(n, chunks, c + 1), tally);
    });
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::int32_t* const tally = tallies_.data() + c * tally_stride_;
      for (std::size_t i = 0; i < census_.size(); ++i) {
        census_[i] += static_cast<std::uint32_t>(tally[i]);
      }
      merge(tally);
    }
  }

  /// run_ant_chunks for packs without extra counters.
  template <typename Kernel>
  void run_ant_chunks(std::size_t chunks, Kernel&& kernel) {
    run_ant_chunks(chunks, kernel, [](const std::int32_t*) {});
  }

  /// Rewind the commitment lanes to round 0: every ant committed to the
  /// home nest, census over the correct ants (do_reset calls this).
  void reset_commitments();

  std::vector<env::NestId> nest_;      ///< committed nest per ant
  std::vector<std::uint32_t> census_;  ///< committed census, correct ants

 private:
  /// Recompute the acting lane for `round` and write the faulty ants'
  /// op/active/target rows.
  void overlay_faults(std::uint32_t round, std::span<env::MaskedOp> op,
                      std::span<std::uint8_t> active,
                      std::span<env::NestId> targets);

  /// Burn one scout round for Byzantine ant a (it searched this round).
  void scout_round_done(env::AntId a) {
    if (++byz_scouted_[a] == kByzantineScoutRounds) --byz_scouting_;
  }

  std::uint32_t num_ants_;
  std::size_t tally_width_ = 0;        ///< int32s of a chunk tally in use
  std::size_t tally_stride_ = 0;       ///< int32s per chunk slice
  std::vector<std::int32_t> tallies_;  ///< tally slices, one per chunk
  bool has_faults_ = false;
  std::uint32_t correct_count_ = 0;
  std::uint32_t byz_count_ = 0;
  std::uint32_t masked_round_ = 0;  ///< round of the last fill_masked
  bool any_asleep_ = false;         ///< current round's mask has a sleeper
  // After a sleep round without fault lanes, act_ holds stale zeros.
  // begin_round (called every partial-synchrony round, before round_shape
  // dispatch) refills and clears the flag so a uniform round's observe_all
  // never sees them; fill_masked and reset also clear it for drivers that
  // step the pack directly. overlay_faults rewrites act_ wholesale each
  // round, so faulted packs never set this.
  bool act_stale_ = false;
  std::vector<std::uint8_t> act_;   ///< 1 = run the derived kernel this round
  std::vector<std::uint8_t> awake_;  ///< partial synchrony: 1 = acts
  std::vector<std::uint8_t> fault_type_;     ///< env::FaultType per ant
  std::vector<std::uint32_t> crash_round_;   ///< round >= which the ant idles
  std::vector<env::NestId> byz_target_;      ///< worst nest found so far
  std::vector<double> byz_quality_;          ///< its quality (2.0 = none yet)
  // A Byzantine ant scouts for kByzantineScoutRounds SEARCHES, not rounds:
  // like the scalar ByzantineAnt's rounds_scouted_, the counter only
  // advances when the ant actually searched, so sleeping through a round
  // stretches its scout window. byz_scouting_ counts the ants still in
  // theirs (0 = the worst-nest scan can be skipped entirely).
  std::vector<std::uint8_t> byz_scouted_;    ///< searches done, saturates
  std::uint32_t byz_scouting_ = 0;
};

/// True iff `kind` has a packed implementation.
[[nodiscard]] bool packed_available(AlgorithmKind kind);

/// The declared capability matrix of `kind`'s packed engine — what
/// configurations the pack may run, consumed by the data-driven engine
/// selection (core/capabilities.hpp, core/registry.hpp). Every built-in
/// pack rides the AntPack base's fault lanes and masked observation, so
/// they all declare Capabilities::standard_pack(); tests/test_registry.cpp
/// holds each declaration to what tests/test_ant_pack.cpp exercises.
[[nodiscard]] Capabilities packed_capabilities(AlgorithmKind kind);

/// Build the packed colony for `kind`, or nullptr if none exists.
/// `colony_seed` is the same seed make_colony would receive; per-ant RNG
/// streams are derived from it identically to the per-object path.
/// `num_nests` is k (packs keep an incrementally-maintained commitment
/// census of size k+1). `faults`, when non-null, is the sampled plan the
/// scalar path would wrap ants with — installed as pack-level fault lanes.
[[nodiscard]] std::unique_ptr<AntPack> make_ant_pack(
    AlgorithmKind kind, std::uint32_t num_ants, std::uint32_t num_nests,
    std::uint64_t colony_seed, const AlgorithmParams& params,
    const env::FaultPlan* faults = nullptr);

}  // namespace hh::core

#endif  // HH_CORE_ANT_PACK_HPP
