// Tests of the recruitment pairing process (paper Algorithm 1) and the
// alternative model used for the E15 ablation.
#include "env/pairing.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/simulation.hpp"
#include "util/rng.hpp"
#include "util/round_pool.hpp"

namespace hh::env {
namespace {

/// The b flags of `active` active requests followed by `passive` passive
/// ones — the flag lane every pairing entry point takes.
std::vector<std::uint8_t> make_requests(std::size_t active,
                                        std::size_t passive) {
  std::vector<std::uint8_t> reqs(active + passive, 0);
  std::fill_n(reqs.begin(), active, std::uint8_t{1});
  return reqs;
}

// Checks that the result is a valid matching per the model:
//  * vectors sized to the request count;
//  * an ant recruited at most once and recruiting at most once;
//  * only active ants appear as recruiters;
//  * an ant is never simultaneously recruiter in one pair and recruited in
//    another (self-pairs are the single allowed overlap).
void expect_valid_matching(const std::vector<std::uint8_t>& reqs,
                           const PairingResult& result) {
  ASSERT_EQ(result.recruited_by.size(), reqs.size());
  ASSERT_EQ(result.recruit_succeeded.size(), reqs.size());
  std::vector<int> times_recruiter(reqs.size(), 0);
  for (std::size_t x = 0; x < reqs.size(); ++x) {
    const std::int32_t by = result.recruited_by[x];
    if (by != kNotRecruited) {
      ASSERT_GE(by, 0);
      ASSERT_LT(static_cast<std::size_t>(by), reqs.size());
      EXPECT_NE(reqs[static_cast<std::size_t>(by)], 0)
          << "recruiter " << by << " is not active";
      EXPECT_TRUE(result.recruit_succeeded[static_cast<std::size_t>(by)]);
      ++times_recruiter[static_cast<std::size_t>(by)];
    }
  }
  for (std::size_t x = 0; x < reqs.size(); ++x) {
    EXPECT_LE(times_recruiter[x], 1) << "ant recruited twice";
    if (result.recruit_succeeded[x]) {
      EXPECT_EQ(times_recruiter[x], 1)
          << "successful recruiter with no recruited partner";
      // Recruiter-and-recruited overlap only allowed as a self-pair.
      if (result.recruited_by[x] != kNotRecruited) {
        EXPECT_EQ(result.recruited_by[x], static_cast<std::int32_t>(x));
      }
    }
  }
}

class PairingModelTest : public ::testing::TestWithParam<PairingKind> {};

TEST_P(PairingModelTest, EmptyRequestSet) {
  util::Rng rng(1);
  const auto model = make_pairing_model(GetParam());
  const auto result = model->pair({}, rng);
  EXPECT_TRUE(result.recruited_by.empty());
  EXPECT_EQ(result.pair_count(), 0u);
}

TEST_P(PairingModelTest, AllPassiveNobodyPaired) {
  util::Rng rng(2);
  const auto model = make_pairing_model(GetParam());
  const auto reqs = make_requests(0, 10);
  const auto result = model->pair(reqs, rng);
  expect_valid_matching(reqs, result);
  EXPECT_EQ(result.pair_count(), 0u);
}

TEST_P(PairingModelTest, MatchingInvariantsHoldOverManyRandomRounds) {
  util::Rng rng(3);
  util::Rng shape(4);
  const auto model = make_pairing_model(GetParam());
  for (int trial = 0; trial < 300; ++trial) {
    const auto active = static_cast<std::size_t>(shape.uniform_u64(20));
    const auto passive = static_cast<std::size_t>(shape.uniform_u64(20));
    if (active + passive == 0) continue;
    const auto reqs = make_requests(active, passive);
    const auto result = model->pair(reqs, rng);
    expect_valid_matching(reqs, result);
    EXPECT_LE(result.pair_count(), active);
    EXPECT_LE(result.pair_count(), reqs.size());
  }
}

TEST_P(PairingModelTest, DeterministicGivenRngState) {
  const auto model = make_pairing_model(GetParam());
  const auto reqs = make_requests(8, 8);
  util::Rng rng1(99);
  util::Rng rng2(99);
  const auto r1 = model->pair(reqs, rng1);
  const auto r2 = model->pair(reqs, rng2);
  EXPECT_EQ(r1.recruited_by, r2.recruited_by);
  EXPECT_EQ(std::vector<bool>(r1.recruit_succeeded),
            std::vector<bool>(r2.recruit_succeeded));
}

TEST_P(PairingModelTest, LoneActiveAntSelfRecruits) {
  // Lemma 3.1: "if c(0,r) < 2, ant a is forced to recruit itself".
  util::Rng rng(5);
  const auto model = make_pairing_model(GetParam());
  const auto reqs = make_requests(1, 0);
  int self_pairs = 0;
  for (int t = 0; t < 50; ++t) {
    const auto result = model->pair(reqs, rng);
    expect_valid_matching(reqs, result);
    if (result.recruited_by[0] == 0) ++self_pairs;
  }
  // With only one ant in R the uniform draw always picks it.
  EXPECT_EQ(self_pairs, 50);
}

TEST_P(PairingModelTest, ActiveAntsRecruitPassivePoolEffectively) {
  // With many actives and many passives, a decent fraction of actives
  // should succeed each round (Lemma 2.1 promises >= 1/16 each).
  util::Rng rng(6);
  const auto model = make_pairing_model(GetParam());
  const auto reqs = make_requests(50, 50);
  std::size_t pairs = 0;
  constexpr int kRounds = 200;
  for (int t = 0; t < kRounds; ++t) pairs += model->pair(reqs, rng).pair_count();
  const double per_active =
      static_cast<double>(pairs) / (50.0 * kRounds);
  EXPECT_GE(per_active, 1.0 / 16.0);
}

INSTANTIATE_TEST_SUITE_P(AllModels, PairingModelTest,
                         ::testing::Values(PairingKind::kPermutation,
                                           PairingKind::kUniformProposal,
                                           PairingKind::kCounter),
                         [](const auto& info) {
                           switch (info.param) {
                             case PairingKind::kPermutation:
                               return "Permutation";
                             case PairingKind::kUniformProposal:
                               return "UniformProposal";
                             case PairingKind::kCounter:
                               return "CounterLottery";
                           }
                           return "Unknown";
                         });

TEST_P(PairingModelTest, PairCountDistributionMatchesAnalyticAtMTwo) {
  // Analytic fact shared by ALL THREE models at m = 2, both active: the
  // matching has 2 pairs (both self-pairs) with probability exactly 1/4
  // and 1 pair otherwise.
  //  * permutation: first ant in P self-draws w.p. 1/2; only then can the
  //    second self-draw (w.p. 1/2) — otherwise somebody is already used;
  //  * uniform-proposal and counter-lottery: two pairs iff both ants
  //    propose to themselves (w.p. 1/4); every other proposal profile
  //    collapses to one accepted pair.
  // A biased lottery (e.g. a ticket comparison that favors low slots, or
  // a non-uniform target draw) shifts this mass — which bit-identity pins
  // can never catch for a NEW model.
  const auto model = make_pairing_model(GetParam());
  const auto reqs = make_requests(2, 0);
  util::Rng rng(0xC0DE);
  constexpr int kTrials = 40000;
  int two_pairs = 0;
  for (int t = 0; t < kTrials; ++t) {
    const auto result = model->pair(reqs, rng);
    const auto pairs = result.pair_count();
    ASSERT_GE(pairs, 1u);
    ASSERT_LE(pairs, 2u);
    two_pairs += pairs == 2 ? 1 : 0;
  }
  // Chi-square with 1 dof against Binomial(kTrials, 1/4); 3.84 = 95th
  // percentile, but use the 99.99th (15.1) so the suite stays stable
  // across seeds while still catching any real bias (a 1% shift in p
  // scores ~21 on this sample size).
  const double expected2 = kTrials / 4.0;
  const double expected1 = kTrials - expected2;
  const double d2 = two_pairs - expected2;
  const double chi2 = d2 * d2 / expected2 + d2 * d2 / expected1;
  EXPECT_LT(chi2, 15.1) << "two_pairs=" << two_pairs << "/" << kTrials;
}

TEST_P(PairingModelTest, SingleRecruiterTargetIsUniformChiSquare) {
  // One active recruiter among m ants: in every model the recruited ant
  // is the recruiter's uniform draw over ALL of R, so each of the m ants
  // (self included) is hit w.p. 1/m. Chi-square over the m buckets.
  const auto model = make_pairing_model(GetParam());
  constexpr std::size_t kM = 8;
  const auto reqs = make_requests(1, kM - 1);
  util::Rng rng(0xFACE);
  constexpr int kTrials = 80000;
  std::vector<int> hits(kM, 0);
  for (int t = 0; t < kTrials; ++t) {
    const auto result = model->pair(reqs, rng);
    ASSERT_EQ(result.pair_count(), 1u);  // lone recruiter always succeeds
    for (std::size_t x = 0; x < kM; ++x) {
      if (result.recruited_by[x] != kNotRecruited) ++hits[x];
    }
  }
  const double expected = static_cast<double>(kTrials) / kM;
  double chi2 = 0.0;
  for (std::size_t x = 0; x < kM; ++x) {
    const double d = hits[x] - expected;
    chi2 += d * d / expected;
  }
  // 7 dof: 99.99th percentile ~ 29.9.
  EXPECT_LT(chi2, 29.9);
}

TEST_P(PairingModelTest, MatchingValidAcrossEveryEntryPoint) {
  // The validity invariants (each ant <= 1 pair, only active ants
  // recruit) must hold identically through every model entry point:
  // pair() (owning) and the SoA core pair_active() — both its unkeyed Rng
  // form and the keyed PairingCtx form the environment uses.
  const auto model = make_pairing_model(GetParam());
  util::Rng rng(0xBEEF);
  util::Rng shape(0xF00D);
  PairingScratch scratch;
  scratch.reserve(64);
  for (int trial = 0; trial < 100; ++trial) {
    const auto active = static_cast<std::size_t>(shape.uniform_u64(32));
    const auto passive = static_cast<std::size_t>(shape.uniform_u64(32));
    if (active + passive == 0) continue;
    const auto reqs = make_requests(active, passive);

    const auto owning = model->pair(reqs, rng);
    expect_valid_matching(reqs, owning);

    model->pair_active(reqs, rng, scratch);
    PairingResult from_scratch;
    from_scratch.recruited_by = scratch.recruited_by;
    from_scratch.recruit_succeeded.assign(scratch.recruit_succeeded.begin(),
                                          scratch.recruit_succeeded.end());
    expect_valid_matching(reqs, from_scratch);

    // Keyed SoA call — the engine path (counter models draw nothing from
    // the rng here; sequential models must behave exactly as before).
    model->pair_active(reqs,
                       PairingCtx{rng, 0x5EED, 1 + static_cast<std::uint32_t>(trial)},
                       scratch);
    PairingResult keyed;
    keyed.recruited_by = scratch.recruited_by;
    keyed.recruit_succeeded.assign(scratch.recruit_succeeded.begin(),
                                   scratch.recruit_succeeded.end());
    expect_valid_matching(reqs, keyed);
  }
}

TEST(CounterLotteryPairing, KeyedCallsDrawNothingFromSharedStream) {
  // The property the packed fusion rests on: a keyed counter pairing
  // leaves the environment stream untouched, so search landings and
  // noise draws are unaffected by how many ants recruit.
  CounterLotteryPairing model;
  std::vector<std::uint8_t> active(64, 1);
  PairingScratch scratch;
  util::Rng rng(42);
  util::Rng untouched(42);
  model.pair_active(active, PairingCtx{rng, 7, 3}, scratch);
  EXPECT_EQ(rng(), untouched());
}

TEST(CounterLotteryPairing, KeyedMatchingDependsOnlyOnSeedRoundAndFlags) {
  // Same (seed, round, active flags) => same matching, regardless of the
  // shared rng's state; different round or seed => (almost surely)
  // different matching.
  CounterLotteryPairing model;
  std::vector<std::uint8_t> active(32, 1);
  PairingScratch s1, s2;
  util::Rng rng_a(1);
  util::Rng rng_b(999);
  model.pair_active(active, PairingCtx{rng_a, 5, 2}, s1);
  model.pair_active(active, PairingCtx{rng_b, 5, 2}, s2);
  EXPECT_EQ(s1.recruited_by, s2.recruited_by);

  model.pair_active(active, PairingCtx{rng_a, 5, 3}, s2);
  EXPECT_NE(s1.recruited_by, s2.recruited_by);
  model.pair_active(active, PairingCtx{rng_a, 6, 2}, s2);
  EXPECT_NE(s1.recruited_by, s2.recruited_by);
}

/// The counter-lottery model written out literally, slot by slot: the
/// keyed proposals, each target's max-entry lottery, then the acceptance
/// in target order with both endpoints checked both ways, as the model
/// first shipped it. Unkeyed calls draw the key from `ctx.rng`.
void literal_counter_lottery(std::span<const std::uint8_t> active,
                             const PairingCtx& ctx,
                             std::vector<std::int32_t>& recruited_by,
                             std::vector<std::uint8_t>& recruit_succeeded) {
  const std::size_t m = active.size();
  recruited_by.assign(m, kNotRecruited);
  recruit_succeeded.assign(m, 0);
  if (m == 0) return;
  const bool keyed = ctx.round != 0;
  const std::uint64_t seed = keyed ? ctx.seed : ctx.rng();
  const std::uint64_t round = keyed ? ctx.round : 1u;
  std::vector<std::uint64_t> cell(m, 0);
  for (std::size_t x = 0; x < m; ++x) {
    if (!active[x]) continue;
    util::SplitMix64 stream(util::mix_seed(seed, round, x));
    const auto t = static_cast<std::size_t>(stream.bounded(m));
    const std::uint64_t entry = (stream.next() & 0xffffffff00000000ULL) |
                                static_cast<std::uint64_t>(m - x);
    cell[t] = std::max(cell[t], entry);
  }
  for (std::size_t t = 0; t < m; ++t) {
    if (cell[t] == 0) continue;
    const std::size_t w = m - static_cast<std::size_t>(cell[t] & 0xffffffffULL);
    const bool target_free =
        recruited_by[t] == kNotRecruited && recruit_succeeded[t] == 0;
    const bool recruiter_free =
        recruited_by[w] == kNotRecruited && recruit_succeeded[w] == 0;
    if (w == t ? target_free : target_free && recruiter_free) {
      recruit_succeeded[w] = 1;
      recruited_by[t] = static_cast<std::int32_t>(w);
    }
  }
}

/// Pins the round pool's worker count for one scope.
struct PinnedWorkers {
  explicit PinnedWorkers(std::size_t workers) {
    util::set_round_workers(workers);
  }
  ~PinnedWorkers() { util::set_round_workers(0); }
  PinnedWorkers(const PinnedWorkers&) = delete;
  PinnedWorkers& operator=(const PinnedWorkers&) = delete;
};

TEST(CounterLotteryPairing, MatchesTheLiteralModel) {
  // The model accepts on a one-byte state lane and writes both outputs
  // per target chunk; the matching and the stream advance must be the
  // literal loop's at every size (one chunk, the chunking threshold,
  // several chunks), density, chunk count and chunk order, keyed and
  // unkeyed. One scratch serves every call, so no call may lean on
  // what an earlier one left in it.
  const CounterLotteryPairing model;
  PairingScratch scratch;
  for (const std::size_t m : {0u, 1u, 2u, 3u, 2047u, 2048u, 4097u, 16411u}) {
    for (const double density : {0.0, 0.05, 0.5, 0.9, 1.0}) {
      std::vector<std::uint8_t> active(m);
      util::Rng flags(m * 31 + static_cast<std::uint64_t>(density * 100));
      for (auto& b : active) b = flags.uniform_double() < density ? 1 : 0;
      for (const std::uint32_t round : {0u, 9u}) {  // unkeyed, keyed
        util::Rng want_rng(11);
        std::vector<std::int32_t> want_by;
        std::vector<std::uint8_t> want_ok;
        literal_counter_lottery(active, PairingCtx{want_rng, 0x5EED, round},
                                want_by, want_ok);
        const std::uint64_t want_next = want_rng();
        for (const std::size_t workers : {1u, 2u, 4u, 8u, 0u}) {
          // 0 = four chunks run on the calling thread, last chunk first.
          const PinnedWorkers pinned(workers == 0 ? 4 : workers);
          std::optional<util::ReversedRounds> reversed;
          if (workers == 0) reversed.emplace();
          util::Rng got_rng(11);
          model.pair_active(active, PairingCtx{got_rng, 0x5EED, round},
                            scratch);
          const std::string label =
              "m=" + std::to_string(m) + " density=" + std::to_string(density) +
              (round == 0 ? " unkeyed" : " keyed") + " workers=" +
              (workers == 0 ? std::string("4 reversed")
                            : std::to_string(workers));
          EXPECT_EQ(want_by, scratch.recruited_by) << label;
          EXPECT_EQ(want_ok, scratch.recruit_succeeded) << label;
          EXPECT_EQ(want_next, got_rng()) << label;
        }
      }
    }
  }
}

/// 64-bit FNV-1a over a run's observable results, per-round stats
/// included: a compact pin for whole simulations.
std::uint64_t run_fingerprint(const core::RunResult& run) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  mix(run.converged ? 1u : 0u);
  mix(run.rounds);
  mix(run.rounds_executed);
  mix(run.winner);
  mix(run.total_recruitments);
  mix(run.total_tandem_runs);
  mix(run.total_transports);
  for (const RoundStats& s : run.trajectories.round_stats) {
    mix(s.active_recruits);
    mix(s.passive_recruits);
    mix(s.successful_recruitments);
    mix(s.self_recruitments);
    mix(s.cross_nest_recruitments);
  }
  for (const auto& counts : run.trajectories.counts) {
    for (const std::uint32_t c : counts) mix(c);
  }
  return h;
}

TEST(CounterLotteryPairing, RunResultsMatchTheRecordedFingerprints) {
  // Whole optimal/quorum runs under the counter lottery, recorded with
  // the four-condition acceptance of literal_counter_lottery: every
  // matching of every round feeds these hashes, at one chunk (n = 300)
  // and at several (n = 9000, 4 workers).
  struct Pin {
    core::AlgorithmKind kind;
    std::uint32_t n;
    std::uint64_t seed;
    std::uint64_t want;
  };
  const Pin pins[] = {
      {core::AlgorithmKind::kOptimal, 300, 1, 0x043f2c9750071912},
      {core::AlgorithmKind::kOptimal, 300, 2, 0x7457d5016e5a5b0f},
      {core::AlgorithmKind::kOptimal, 9000, 1, 0x263fbf605cc64b2c},
      {core::AlgorithmKind::kOptimal, 9000, 2, 0x341c504181282dd9},
      {core::AlgorithmKind::kQuorum, 300, 1, 0x0c3f8251aa8979e1},
      {core::AlgorithmKind::kQuorum, 9000, 1, 0xc3583d529f36dff3},
  };
  const PinnedWorkers pinned(4);
  for (const Pin& pin : pins) {
    core::SimulationConfig cfg;
    cfg.num_ants = pin.n;
    cfg.qualities = core::SimulationConfig::binary_qualities(6, 3);
    cfg.pairing = PairingKind::kCounter;
    cfg.seed = pin.seed;
    cfg.max_rounds = 400;
    cfg.record_trajectories = true;
    const core::RunResult run = core::Simulation(cfg, pin.kind).run();
    char hex[19];
    std::snprintf(hex, sizeof(hex), "0x%016llx",
                  static_cast<unsigned long long>(run_fingerprint(run)));
    EXPECT_EQ(pin.want, run_fingerprint(run))
        << core::algorithm_name(pin.kind) << " n=" << pin.n
        << " seed=" << pin.seed << ": got " << hex;
  }
}

TEST(PermutationPairing, Lemma21SuccessProbabilityAtLeastOneSixteenth) {
  // Lemma 2.1: an active recruiter succeeds with probability >= 1/16
  // whenever c(0, r) >= 2 — checked empirically across home-nest mixes.
  PermutationPairing model;
  util::Rng rng(7);
  for (const auto& [active, passive] : std::vector<std::pair<int, int>>{
           {2, 0}, {4, 0}, {16, 0}, {64, 0}, {2, 14}, {8, 8}, {32, 96}}) {
    const auto reqs = make_requests(active, passive);
    constexpr int kRounds = 4000;
    std::int64_t successes = 0;
    for (int t = 0; t < kRounds; ++t) {
      const auto result = model.pair(reqs, rng);
      for (int a = 0; a < active; ++a) successes += result.recruit_succeeded[a];
    }
    const double p_hat =
        static_cast<double>(successes) / (static_cast<double>(active) * kRounds);
    EXPECT_GE(p_hat, 1.0 / 16.0)
        << "active=" << active << " passive=" << passive;
  }
}

/// Algorithm 1 written out literally: the full permutation P, then the walk
/// over every position of P in order, one plain draw per visit.
void literal_algorithm1(std::span<const std::uint8_t> active, util::Rng& rng,
                        std::vector<std::int32_t>& recruited_by,
                        std::vector<std::uint8_t>& recruit_succeeded) {
  const std::size_t m = active.size();
  recruited_by.assign(m, kNotRecruited);
  recruit_succeeded.assign(m, 0);
  if (m == 0) return;
  std::vector<std::uint32_t> perm;
  util::random_permutation_into(perm, m, rng);
  for (const std::uint32_t x : perm) {
    if (!active[x] || recruited_by[x] != kNotRecruited) continue;
    const auto chosen = static_cast<std::uint32_t>(rng.uniform_u64(m));
    if (recruit_succeeded[chosen] != 0 ||
        recruited_by[chosen] != kNotRecruited) {
      continue;
    }
    recruit_succeeded[x] = 1;
    recruited_by[chosen] = static_cast<std::int32_t>(x);
  }
}

TEST(PermutationPairing, MatchesTheLiteralAlgorithmDrawForDraw) {
  // The model visits only P's active ants, filed as the shuffle finalizes
  // them; the matching and the stream advance must be the literal loop's.
  // The densities span a simple-uniform run from its late rounds (few
  // active recruiters) to its early ones.
  const PermutationPairing model;
  for (const std::size_t m : {1u, 2u, 3u, 4096u}) {
    for (const double density : {0.0, 0.07, 0.45, 1.0}) {
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        std::vector<std::uint8_t> active(m);
        util::Rng flags(seed * 1000 + m);
        for (auto& b : active) b = flags.uniform_double() < density ? 1 : 0;
        util::Rng want_rng(seed);
        std::vector<std::int32_t> want_by;
        std::vector<std::uint8_t> want_ok;
        literal_algorithm1(active, want_rng, want_by, want_ok);

        util::Rng got_rng(seed);
        PairingScratch scratch;
        model.pair_active(active, got_rng, scratch);
        const std::string label = "m=" + std::to_string(m) +
                                  " density=" + std::to_string(density) +
                                  " seed=" + std::to_string(seed);
        EXPECT_EQ(want_by, scratch.recruited_by) << label;
        EXPECT_EQ(want_ok, scratch.recruit_succeeded) << label;
        EXPECT_EQ(want_rng(), got_rng()) << label;
      }
    }
  }
}

TEST(PermutationPairing, TwoActiveAntsPairingIsSymmetric) {
  // With R = {a, b} both active, by symmetry each should succeed equally
  // often.
  PermutationPairing model;
  util::Rng rng(8);
  const auto reqs = make_requests(2, 0);
  int wins_a = 0;
  int wins_b = 0;
  constexpr int kRounds = 20000;
  for (int t = 0; t < kRounds; ++t) {
    const auto result = model.pair(reqs, rng);
    wins_a += result.recruit_succeeded[0];
    wins_b += result.recruit_succeeded[1];
  }
  EXPECT_NEAR(wins_a, wins_b, 4 * std::sqrt(static_cast<double>(kRounds)));
}

TEST(PermutationPairing, RecruitedAntsAreChosenUniformlyAmongEligible) {
  // One active recruiter and m-1 passive ants: each of the m ants
  // (including the recruiter itself) is the uniform draw, so each passive
  // ant should be recruited with probability ~1/m.
  PermutationPairing model;
  util::Rng rng(9);
  constexpr std::size_t kM = 8;
  const auto reqs = make_requests(1, kM - 1);
  std::vector<int> recruited(kM, 0);
  constexpr int kRounds = 80000;
  for (int t = 0; t < kRounds; ++t) {
    const auto result = model.pair(reqs, rng);
    for (std::size_t x = 0; x < kM; ++x) {
      if (result.recruited_by[x] != kNotRecruited) ++recruited[x];
    }
  }
  const double expected = static_cast<double>(kRounds) / kM;
  for (std::size_t x = 0; x < kM; ++x) {
    EXPECT_NEAR(recruited[x], expected, 5 * std::sqrt(expected)) << "ant " << x;
  }
}

TEST(UniformProposalPairing, NameAndFactory) {
  const auto perm = make_pairing_model(PairingKind::kPermutation);
  const auto prop = make_pairing_model(PairingKind::kUniformProposal);
  const auto ctr = make_pairing_model(PairingKind::kCounter);
  EXPECT_EQ(perm->name(), "permutation");
  EXPECT_EQ(prop->name(), "uniform-proposal");
  EXPECT_EQ(ctr->name(), "counter-lottery");
}

TEST(PairingVocabulary, NamesRoundTripThroughKindCodec) {
  for (const PairingKind kind :
       {PairingKind::kPermutation, PairingKind::kUniformProposal,
        PairingKind::kCounter}) {
    const auto name = pairing_name(kind);
    EXPECT_EQ(make_pairing_model(kind)->name(), name);
    const auto parsed = pairing_from_name(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(pairing_from_name("counter").has_value());
  EXPECT_FALSE(pairing_from_name("").has_value());
}

}  // namespace
}  // namespace hh::env
