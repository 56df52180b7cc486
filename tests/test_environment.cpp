// Tests of the Section 2 model semantics: locations l(a,r), end-of-round
// counts c(i,r), knowledge-gated go()/recruit() preconditions, and the
// per-round statistics.
#include "env/environment.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "util/contracts.hpp"
#include "util/rng.hpp"
#include "util/round_pool.hpp"

namespace hh::env {
namespace {

EnvironmentConfig config(std::uint32_t n, std::vector<double> qualities,
                         std::uint64_t seed = 1) {
  EnvironmentConfig cfg;
  cfg.num_ants = n;
  cfg.qualities = std::move(qualities);
  cfg.seed = seed;
  return cfg;
}

// --- the literal four-phase round ------------------------------------------

/// The environment's pairing-stream key derivation (environment.cpp's
/// kPairingSeedTag): the counter-lottery model keys its draws on it.
constexpr std::uint64_t kPairingSeedTag = 0x9A1217;

/// Paper Section 2's round written literally as four ant-order phases
/// over an Action vector: locations and search landings, the pairing,
/// the counts, the return values. It shares nothing with the environment
/// but the pairing and observation models, so the tests below pin every
/// round entry point to it (as test_pairing.cpp pins the pairing to
/// literal Algorithm 1). It does not validate: legal action vectors only.
class LiteralWorld {
 public:
  LiteralWorld(EnvironmentConfig cfg, PairingKind pairing,
               const NoiseConfig& noise = {})
      : cfg_(std::move(cfg)),
        pairing_(make_pairing_model(pairing)),
        observation_(make_observation_model(noise)),
        rng_(cfg_.seed),
        pairing_seed_(util::mix_seed(cfg_.seed, kPairingSeedTag)),
        location_(cfg_.num_ants, kHomeNest),
        count_(num_nests() + 1, 0),
        knowledge_(static_cast<std::size_t>(cfg_.num_ants) * (num_nests() + 1),
                   0),
        recruited_by_(cfg_.num_ants, kNotRecruited),
        recruit_succeeded_(cfg_.num_ants, false),
        outcomes_(cfg_.num_ants) {
    count_[kHomeNest] = cfg_.num_ants;
  }

  const std::vector<Outcome>& step(const std::vector<Action>& actions) {
    const AntId n = cfg_.num_ants;
    const std::uint32_t k = num_nests();
    // Phase 1: every location update, the search landings and the
    // requests, in ant order.
    stats_ = RoundStats{};
    struct Request {
      AntId ant;
      NestId target;
    };
    std::vector<Request> requests;
    std::vector<std::uint8_t> flags;  // b of each request, in request order
    std::vector<std::size_t> request_of(n, 0);
    for (AntId a = 0; a < n; ++a) {
      const Action& action = actions[a];
      switch (action.kind) {
        case ActionKind::kSearch: {
          const auto found = static_cast<NestId>(1 + rng_.uniform_u64(k));
          location_[a] = found;
          knowledge_[a * (k + 1) + found] = 1;
          outcomes_[a] = Outcome{ActionKind::kSearch, found, 0.0, 0, false,
                                 false};
          ++stats_.searches;
          break;
        }
        case ActionKind::kGo:
          location_[a] = action.target;
          outcomes_[a] = Outcome{ActionKind::kGo, action.target, 0.0, 0, false,
                                 false};
          ++stats_.gos;
          break;
        case ActionKind::kRecruit:
          location_[a] = kHomeNest;
          request_of[a] = requests.size();
          requests.push_back(Request{a, action.target});
          flags.push_back(action.active ? 1 : 0);
          outcomes_[a] = Outcome{ActionKind::kRecruit, action.target, 0.0, 0,
                                 false, false};
          ++(action.active ? stats_.active_recruits : stats_.passive_recruits);
          break;
        case ActionKind::kIdle:
          outcomes_[a] = Outcome{ActionKind::kIdle, location_[a], 0.0, 0,
                                 false, false};
          ++stats_.idles;
          break;
      }
    }
    // Phase 2: the pairing process.
    rng_words_.push_back(util::Rng(rng_)());
    PairingScratch matching;
    pairing_->pair_active(flags, PairingCtx{rng_, pairing_seed_, round_ + 1},
                          matching);
    // Phase 3: the end-of-round counts c(i, r).
    std::fill(count_.begin(), count_.end(), 0u);
    for (AntId a = 0; a < n; ++a) ++count_[location_[a]];
    // Phase 4: the return values (perception draws in ant order) and the
    // tandem-run knowledge.
    successful_recruiters_.clear();
    for (AntId a = 0; a < n; ++a) {
      Outcome& out = outcomes_[a];
      recruited_by_[a] = kNotRecruited;
      recruit_succeeded_[a] = false;
      switch (out.kind) {
        case ActionKind::kSearch:
          out.quality = observation_->perceive_quality(quality(out.nest), rng_);
          out.count = observation_->perceive_count(count_[out.nest], rng_);
          break;
        case ActionKind::kGo:
          out.count = observation_->perceive_count(count_[out.nest], rng_);
          out.quality = observation_->perceive_quality(quality(out.nest), rng_);
          break;
        case ActionKind::kRecruit: {
          const std::size_t x = request_of[a];
          const std::int32_t by = matching.recruited_by[x];
          if (by != kNotRecruited) {
            const Request& from = requests[static_cast<std::size_t>(by)];
            out.nest = from.target;
            out.recruited = true;
            recruited_by_[a] = static_cast<std::int32_t>(from.ant);
            successful_recruiters_.push_back(from.ant);
            ++stats_.successful_recruitments;
            if (from.ant == a) ++stats_.self_recruitments;
            if (from.target != requests[x].target) {
              ++stats_.cross_nest_recruitments;
            }
            if (from.target != kHomeNest) {
              knowledge_[a * (k + 1) + from.target] = 1;
            }
          }
          out.recruit_succeeded = matching.recruit_succeeded[x] != 0;
          recruit_succeeded_[a] = out.recruit_succeeded;
          out.count = observation_->perceive_count(count_[kHomeNest], rng_);
          break;
        }
        case ActionKind::kIdle:
          break;
      }
    }
    ++round_;
    return outcomes_;
  }

  [[nodiscard]] std::uint32_t num_nests() const {
    return static_cast<std::uint32_t>(cfg_.qualities.size());
  }
  [[nodiscard]] std::uint32_t round() const { return round_; }
  [[nodiscard]] NestId location(AntId a) const { return location_[a]; }
  [[nodiscard]] std::uint32_t count(NestId i) const { return count_[i]; }
  [[nodiscard]] bool knows(AntId a, NestId i) const {
    return knowledge_[a * (num_nests() + 1) + i] != 0;
  }
  [[nodiscard]] const RoundStats& last_round_stats() const { return stats_; }
  [[nodiscard]] std::int32_t recruited_by_ant(AntId a) const {
    return recruited_by_[a];
  }
  [[nodiscard]] bool recruit_succeeded_ant(AntId a) const {
    return recruit_succeeded_[a];
  }
  [[nodiscard]] const std::vector<AntId>& successful_recruiters() const {
    return successful_recruiters_;
  }
  /// The shared stream's next word at each round's pairing call.
  [[nodiscard]] const std::vector<std::uint64_t>& rng_words() const {
    return rng_words_;
  }

 private:
  [[nodiscard]] double quality(NestId i) const { return cfg_.qualities[i - 1]; }

  EnvironmentConfig cfg_;
  std::unique_ptr<PairingModel> pairing_;
  std::unique_ptr<ObservationModel> observation_;
  util::Rng rng_;
  std::uint64_t pairing_seed_;
  std::uint32_t round_ = 0;
  std::vector<NestId> location_;
  std::vector<std::uint32_t> count_;
  std::vector<std::uint8_t> knowledge_;
  std::vector<std::int32_t> recruited_by_;
  std::vector<bool> recruit_succeeded_;
  std::vector<AntId> successful_recruiters_;
  std::vector<Outcome> outcomes_;
  RoundStats stats_;
  std::vector<std::uint64_t> rng_words_;
};

/// A pairing model that records the shared stream's next word at every
/// call before delegating — the environment's stream position, which no
/// accessor exposes. Compared against LiteralWorld::rng_words(), it shows
/// that both made the same number of draws up to each pairing, and a
/// final search-free round extends that to the last round's end.
class ProbedPairing final : public PairingModel {
 public:
  ProbedPairing(PairingKind kind, std::vector<std::uint64_t>& words)
      : model_(make_pairing_model(kind)), words_(words) {}
  using PairingModel::pair_active;
  void pair_active(std::span<const std::uint8_t> active, const PairingCtx& ctx,
                   PairingScratch& scratch) const override {
    words_.push_back(util::Rng(ctx.rng)());
    model_->pair_active(active, ctx, scratch);
  }
  [[nodiscard]] std::string_view name() const override {
    return model_->name();
  }

 private:
  std::unique_ptr<PairingModel> model_;
  std::vector<std::uint64_t>& words_;
};

bool same_stats(const RoundStats& a, const RoundStats& b) {
  return a.searches == b.searches && a.gos == b.gos &&
         a.active_recruits == b.active_recruits &&
         a.passive_recruits == b.passive_recruits && a.idles == b.idles &&
         a.successful_recruitments == b.successful_recruitments &&
         a.self_recruitments == b.self_recruitments &&
         a.cross_nest_recruitments == b.cross_nest_recruitments;
}

/// Everything the round left behind that a caller of `world` can see.
void expect_same_world(const LiteralWorld& want, const Environment& world,
                       const std::string& label) {
  const AntId n = world.num_ants();
  EXPECT_EQ(want.round(), world.round()) << label;
  for (NestId i = 0; i <= world.num_nests(); ++i) {
    EXPECT_EQ(want.count(i), world.count(i)) << label << ", nest " << i;
  }
  EXPECT_TRUE(same_stats(want.last_round_stats(), world.last_round_stats()))
      << label;
  EXPECT_EQ(want.successful_recruiters(),
            std::vector<AntId>(world.successful_recruiters().begin(),
                               world.successful_recruiters().end()))
      << label;
  for (AntId a = 0; a < n; ++a) {
    ASSERT_EQ(want.location(a), world.location(a)) << label << ", ant " << a;
    ASSERT_EQ(want.recruited_by_ant(a), world.recruited_by_ant(a))
        << label << ", ant " << a;
    ASSERT_EQ(want.recruit_succeeded_ant(a), world.recruit_succeeded_ant(a))
        << label << ", ant " << a;
    for (NestId i = 0; i <= world.num_nests(); ++i) {
      ASSERT_EQ(want.knows(a, i), world.knows(a, i))
          << label << ", ant " << a << ", nest " << i;
    }
  }
}

void expect_same_outcomes(const std::vector<Outcome>& want,
                          const std::vector<Outcome>& got,
                          const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t a = 0; a < want.size(); ++a) {
    ASSERT_EQ(want[a].kind, got[a].kind) << label << ", ant " << a;
    ASSERT_EQ(want[a].nest, got[a].nest) << label << ", ant " << a;
    ASSERT_EQ(want[a].quality, got[a].quality) << label << ", ant " << a;
    ASSERT_EQ(want[a].count, got[a].count) << label << ", ant " << a;
    ASSERT_EQ(want[a].recruited, got[a].recruited) << label << ", ant " << a;
    ASSERT_EQ(want[a].recruit_succeeded, got[a].recruit_succeeded)
        << label << ", ant " << a;
  }
}

TEST(Environment, InitialStateAllAntsHome) {
  Environment e(config(10, {1.0, 0.0}));
  EXPECT_EQ(e.num_ants(), 10u);
  EXPECT_EQ(e.num_nests(), 2u);
  EXPECT_EQ(e.round(), 0u);
  EXPECT_EQ(e.count(kHomeNest), 10u);
  EXPECT_EQ(e.count(1), 0u);
  for (AntId a = 0; a < 10; ++a) EXPECT_EQ(e.location(a), kHomeNest);
}

TEST(Environment, QualityAccessorMatchesConfig) {
  Environment e(config(2, {1.0, 0.25, 0.0}));
  EXPECT_DOUBLE_EQ(e.quality(1), 1.0);
  EXPECT_DOUBLE_EQ(e.quality(2), 0.25);
  EXPECT_DOUBLE_EQ(e.quality(3), 0.0);
  EXPECT_THROW((void)e.quality(0), ContractViolation);
  EXPECT_THROW((void)e.quality(4), ContractViolation);
}

TEST(Environment, ConstructorContracts) {
  EXPECT_THROW(Environment(config(0, {1.0})), ContractViolation);
  EXPECT_THROW(Environment(config(2, {})), ContractViolation);
  EXPECT_THROW(Environment(config(2, {1.5})), ContractViolation);
  EXPECT_THROW(Environment(config(2, {-0.1})), ContractViolation);
}

TEST(Environment, SearchMovesAntsAndGrantsKnowledge) {
  Environment e(config(100, {1.0, 1.0, 1.0, 1.0}));
  std::vector<Action> actions(100, Action::search());
  const auto& outcomes = e.step(actions);
  std::uint32_t at_candidates = 0;
  for (AntId a = 0; a < 100; ++a) {
    const auto& out = outcomes[a];
    EXPECT_EQ(out.kind, ActionKind::kSearch);
    EXPECT_GE(out.nest, 1u);
    EXPECT_LE(out.nest, 4u);
    EXPECT_EQ(e.location(a), out.nest);
    EXPECT_TRUE(e.knows(a, out.nest));
    at_candidates += 1;
  }
  EXPECT_EQ(e.count(kHomeNest), 0u);
  std::uint32_t total = 0;
  for (NestId i = 1; i <= 4; ++i) total += e.count(i);
  EXPECT_EQ(total, 100u);
  EXPECT_EQ(e.round(), 1u);
}

TEST(Environment, SearchIsRoughlyUniformOverNests) {
  Environment e(config(40000, {1.0, 1.0, 1.0, 1.0}, 7));
  std::vector<Action> actions(40000, Action::search());
  e.step(actions);
  for (NestId i = 1; i <= 4; ++i) {
    EXPECT_NEAR(e.count(i), 10000.0, 5 * std::sqrt(10000.0)) << "nest " << i;
  }
}

TEST(Environment, SearchReturnsEndOfRoundCountAndTrueQuality) {
  Environment e(config(50, {1.0}));  // k = 1: everyone lands on nest 1
  std::vector<Action> actions(50, Action::search());
  const auto& outcomes = e.step(actions);
  for (const auto& out : outcomes) {
    EXPECT_EQ(out.nest, 1u);
    EXPECT_EQ(out.count, 50u);  // counts taken after all moves
    EXPECT_DOUBLE_EQ(out.quality, 1.0);
  }
}

TEST(Environment, GoRequiresKnowledge) {
  Environment e(config(2, {1.0, 1.0}));
  std::vector<Action> actions{Action::go(1), Action::go(2)};
  EXPECT_THROW(e.step(actions), ModelViolation);
}

TEST(Environment, GoAfterSearchIsLegalAndReturnsCount) {
  Environment e(config(3, {1.0}));
  std::vector<Action> search(3, Action::search());
  e.step(search);  // all at nest 1, all know nest 1
  std::vector<Action> go(3, Action::go(1));
  const auto& outcomes = e.step(go);
  for (AntId a = 0; a < 3; ++a) {
    EXPECT_EQ(outcomes[a].kind, ActionKind::kGo);
    EXPECT_EQ(outcomes[a].nest, 1u);
    EXPECT_EQ(outcomes[a].count, 3u);
    EXPECT_EQ(e.location(a), 1u);
  }
}

TEST(Environment, GoTargetRangeValidated) {
  Environment e(config(1, {1.0, 1.0}));
  std::vector<Action> bad_home{Action::go(kHomeNest)};
  EXPECT_THROW(e.step(bad_home), ModelViolation);
  std::vector<Action> bad_range{Action::go(3)};
  EXPECT_THROW(e.step(bad_range), ModelViolation);
}

TEST(Environment, RecruitMovesCallerHome) {
  Environment e(config(4, {1.0}));
  std::vector<Action> search(4, Action::search());
  e.step(search);
  std::vector<Action> recruit(4, Action::recruit(false, 1));
  const auto& outcomes = e.step(recruit);
  for (AntId a = 0; a < 4; ++a) {
    EXPECT_EQ(e.location(a), kHomeNest);
    EXPECT_EQ(outcomes[a].count, 4u);  // c(0, r) after all moves
  }
  EXPECT_EQ(e.count(kHomeNest), 4u);
}

TEST(Environment, ActiveRecruitRequiresKnownCandidate) {
  Environment e(config(2, {1.0, 1.0}));
  std::vector<Action> search(2, Action::search());
  e.step(search);
  // Advertising the home nest is illegal for b = 1.
  std::vector<Action> bad{Action::recruit(true, kHomeNest),
                          Action::recruit(false, kHomeNest)};
  EXPECT_THROW(e.step(bad), ModelViolation);
}

TEST(Environment, PassiveRecruitWithHomeTargetIsLegal) {
  // An ant that knows no candidate nest may wait at home (DESIGN.md §2).
  Environment e(config(2, {1.0}));
  std::vector<Action> wait(2, Action::recruit(false, kHomeNest));
  const auto& outcomes = e.step(wait);
  for (const auto& out : outcomes) {
    EXPECT_EQ(out.kind, ActionKind::kRecruit);
    EXPECT_EQ(out.nest, kHomeNest);  // nobody recruited them
    EXPECT_FALSE(out.recruited);
  }
}

TEST(Environment, RecruitmentTeachesTheAdvertisedNest) {
  // Ant 0 searches and then recruits ant 1, which has never left home;
  // ant 1 must then be able to go() to the advertised nest.
  Environment e(config(2, {1.0}, 3));
  std::vector<Action> round1{Action::search(), Action::recruit(false, kHomeNest)};
  e.step(round1);
  bool taught = false;
  for (int tries = 0; tries < 64 && !taught; ++tries) {
    std::vector<Action> round{Action::recruit(true, 1),
                              Action::recruit(false, kHomeNest)};
    const auto& outcomes = e.step(round);
    if (outcomes[1].recruited) {
      EXPECT_EQ(outcomes[1].nest, 1u);
      EXPECT_TRUE(e.knows(1, 1));
      taught = true;
    }
  }
  ASSERT_TRUE(taught) << "recruitment never succeeded in 64 rounds";
  std::vector<Action> follow{Action::go(1), Action::go(1)};
  EXPECT_NO_THROW(e.step(follow));
}

TEST(Environment, IdleRejectedUnlessEnabled) {
  Environment strict(config(1, {1.0}));
  std::vector<Action> idle{Action::idle()};
  EXPECT_THROW(strict.step(idle), ModelViolation);

  auto cfg = config(1, {1.0});
  cfg.allow_idle = true;
  Environment lenient(std::move(cfg));
  EXPECT_NO_THROW(lenient.step(idle));
  EXPECT_EQ(lenient.location(0), kHomeNest);
}

TEST(Environment, IdleKeepsCurrentLocation) {
  auto cfg = config(1, {1.0});
  cfg.allow_idle = true;
  Environment e(std::move(cfg));
  std::vector<Action> search{Action::search()};
  e.step(search);
  const NestId where = e.location(0);
  std::vector<Action> idle{Action::idle()};
  e.step(idle);
  EXPECT_EQ(e.location(0), where);
  EXPECT_EQ(e.count(where), 1u);
}

TEST(Environment, EnforcementCanBeDisabled) {
  auto cfg = config(1, {1.0, 1.0});
  cfg.enforce_model = false;
  Environment e(std::move(cfg));
  std::vector<Action> go{Action::go(2)};  // unknown nest, but not enforced
  EXPECT_NO_THROW(e.step(go));
  EXPECT_EQ(e.location(0), 2u);
}

TEST(Environment, StepValidatesActionVectorSize) {
  Environment e(config(3, {1.0}));
  std::vector<Action> wrong(2, Action::search());
  EXPECT_THROW(e.step(wrong), ContractViolation);
}

TEST(Environment, CountsAlwaysSumToColonySize) {
  // Random legal walks: each ant targets only nests it knows.
  Environment e(config(64, {1.0, 0.0, 1.0}, 11));
  util::Rng rng(5);
  std::vector<Action> actions(64);
  std::vector<NestId> known(64, kHomeNest);  // last nest learned, 0 = none
  for (int round = 0; round < 30; ++round) {
    for (AntId a = 0; a < 64; ++a) {
      if (known[a] == kHomeNest || rng.bernoulli(0.3)) {
        actions[a] = Action::search();
      } else if (rng.bernoulli(0.5)) {
        actions[a] = Action::recruit(rng.bernoulli(0.5), known[a]);
      } else {
        actions[a] = Action::go(known[a]);
      }
    }
    const auto& outcomes = e.step(actions);
    for (AntId a = 0; a < 64; ++a) {
      if (outcomes[a].kind == ActionKind::kSearch ||
          (outcomes[a].kind == ActionKind::kRecruit &&
           outcomes[a].nest != kHomeNest)) {
        known[a] = outcomes[a].nest;
      }
    }
    std::uint32_t total = 0;
    for (NestId i = 0; i <= 3; ++i) total += e.count(i);
    ASSERT_EQ(total, 64u) << "round " << round;
  }
}

TEST(Environment, RoundStatsCountActions) {
  Environment e(config(6, {1.0}, 13));
  std::vector<Action> search(6, Action::search());
  e.step(search);
  EXPECT_EQ(e.last_round_stats().searches, 6u);
  std::vector<Action> mixed{Action::recruit(true, 1),  Action::recruit(true, 1),
                            Action::recruit(false, 1), Action::recruit(false, 1),
                            Action::go(1),             Action::search()};
  e.step(mixed);
  const RoundStats& stats = e.last_round_stats();
  EXPECT_EQ(stats.active_recruits, 2u);
  EXPECT_EQ(stats.passive_recruits, 2u);
  EXPECT_EQ(stats.gos, 1u);
  EXPECT_EQ(stats.searches, 1u);
  EXPECT_LE(stats.successful_recruitments, 2u);
}

TEST(Environment, CrossNestRecruitmentTracked) {
  // Two ants committed to different nests recruiting each other must
  // produce cross-nest recruitments when pairing succeeds.
  auto cfg = config(2, {1.0, 1.0});
  cfg.enforce_model = false;  // let us place ants directly
  Environment e(std::move(cfg), nullptr, nullptr);
  std::vector<Action> place{Action::go(1), Action::go(2)};
  e.step(place);
  std::uint32_t cross = 0;
  for (int t = 0; t < 50; ++t) {
    std::vector<Action> duel{Action::recruit(true, 1), Action::recruit(true, 2)};
    e.step(duel);
    cross += e.last_round_stats().cross_nest_recruitments;
  }
  EXPECT_GT(cross, 0u);
}

TEST(Environment, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    Environment e(config(32, {1.0, 0.0, 1.0}, seed));
    std::vector<Action> search(32, Action::search());
    e.step(search);
    std::vector<NestId> locations;
    for (AntId a = 0; a < 32; ++a) locations.push_back(e.location(a));
    return locations;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

// The SoA round-shape entry points (step_all_search and the quiet
// step_all_recruit/go forms) must be RNG- and state-equivalent to the
// literal round with the corresponding uniform action vector — the packed
// engine's exact uniform rounds rest on this.
TEST(Environment, RoundShapeFastPathsMatchTheLiteralRound) {
  constexpr std::uint32_t n = 64;
  const std::vector<double> qualities = {1.0, 1.0, 0.0, 0.0};
  LiteralWorld generic(config(n, qualities, 77), PairingKind::kPermutation);
  Environment fast(config(n, qualities, 77));
  Environment quiet(config(n, qualities, 77));

  const auto expect_same_state = [&](const Environment& other,
                                     const char* label) {
    for (NestId i = 0; i <= generic.num_nests(); ++i) {
      EXPECT_EQ(generic.count(i), other.count(i)) << label << " nest " << i;
    }
    for (AntId a = 0; a < n; ++a) {
      EXPECT_EQ(generic.location(a), other.location(a)) << label << " ant " << a;
      for (NestId i = 0; i <= generic.num_nests(); ++i) {
        EXPECT_EQ(generic.knows(a, i), other.knows(a, i)) << label;
      }
    }
    EXPECT_EQ(generic.last_round_stats().successful_recruitments,
              other.last_round_stats().successful_recruitments)
        << label;
    EXPECT_EQ(generic.last_round_stats().self_recruitments,
              other.last_round_stats().self_recruitments)
        << label;
    EXPECT_EQ(generic.last_round_stats().cross_nest_recruitments,
              other.last_round_stats().cross_nest_recruitments)
        << label;
    EXPECT_EQ(generic.last_round_stats().active_recruits,
              other.last_round_stats().active_recruits)
        << label;
  };

  // Round 1: all search.
  std::vector<Action> search(n, Action::search());
  const std::vector<Outcome> generic_search = generic.step(search);
  const std::vector<Outcome>& fast_search = fast.step_all_search();
  for (AntId a = 0; a < n; ++a) {
    EXPECT_EQ(generic_search[a].nest, fast_search[a].nest);
    EXPECT_EQ(generic_search[a].count, fast_search[a].count);
    EXPECT_EQ(generic_search[a].quality, fast_search[a].quality);
  }
  quiet.step_all_search();
  expect_same_state(fast, "after search");

  // Round 2: all recruit (advertising the nest each ant found). The
  // quiet form's return values are read off the pairing scratch, the
  // recruit-return lane and the counts.
  std::vector<Action> recruit(n);
  std::vector<std::uint8_t> active(n);
  std::vector<NestId> targets(n);
  for (AntId a = 0; a < n; ++a) {
    const bool b = a % 2 == 0;
    recruit[a] = Action::recruit(b, generic.location(a));
    active[a] = b ? 1 : 0;
    targets[a] = generic.location(a);
  }
  const std::vector<Outcome> generic_recruit = generic.step(recruit);
  quiet.step_all_recruit_quiet(active, targets);
  for (AntId a = 0; a < n; ++a) {
    EXPECT_EQ(generic_recruit[a].nest, quiet.recruit_results()[a]);
    EXPECT_EQ(generic_recruit[a].recruited,
              quiet.last_pairing().recruited_by[a] != kNotRecruited);
    EXPECT_EQ(generic_recruit[a].recruit_succeeded,
              quiet.last_pairing().recruit_succeeded[a] != 0);
    EXPECT_EQ(generic_recruit[a].count, quiet.count(kHomeNest));
  }
  expect_same_state(quiet, "after quiet recruit");

  // Round 3: all go (to the nest learned in the recruit round).
  std::vector<Action> go(n);
  std::vector<NestId> go_targets(n);
  for (AntId a = 0; a < n; ++a) {
    go_targets[a] = generic_recruit[a].nest;
    go[a] = Action::go(go_targets[a]);
  }
  const std::vector<Outcome> generic_go = generic.step(go);
  quiet.step_all_go_quiet(go_targets);
  for (AntId a = 0; a < n; ++a) {
    EXPECT_EQ(generic_go[a].count, quiet.count(go_targets[a]));
    EXPECT_EQ(generic_go[a].quality, quiet.quality(go_targets[a]));
  }
  expect_same_state(quiet, "after quiet go");
  EXPECT_EQ(generic.round(), 3u);
  EXPECT_EQ(quiet.round(), 3u);
}

// The masked SoA entry points (step_masked_recruit/go and the quiet
// forms) must be RNG- and state-equivalent to the literal round with the
// corresponding MIXED action vector — the per-ant-phase packs (optimal)
// and the pack-level fault lanes rest on this.
TEST(Environment, MaskedEntryPointsMatchTheLiteralRound) {
  constexpr std::uint32_t n = 64;
  const std::vector<double> qualities = {1.0, 1.0, 0.0, 0.0};
  auto cfg = config(n, qualities, 91);
  cfg.allow_idle = true;  // masked rounds carry crashed (idle) ants
  LiteralWorld generic(cfg, PairingKind::kPermutation);
  Environment masked(cfg);
  Environment quiet(cfg);

  const auto expect_same_state = [&](const Environment& other,
                                     const char* label) {
    for (NestId i = 0; i <= generic.num_nests(); ++i) {
      EXPECT_EQ(generic.count(i), other.count(i)) << label << " nest " << i;
    }
    for (AntId a = 0; a < n; ++a) {
      EXPECT_EQ(generic.location(a), other.location(a))
          << label << " ant " << a;
      for (NestId i = 0; i <= generic.num_nests(); ++i) {
        EXPECT_EQ(generic.knows(a, i), other.knows(a, i)) << label;
      }
    }
    EXPECT_EQ(generic.last_round_stats().successful_recruitments,
              other.last_round_stats().successful_recruitments)
        << label;
    EXPECT_EQ(generic.last_round_stats().idles,
              other.last_round_stats().idles)
        << label;
    EXPECT_EQ(generic.last_round_stats().searches,
              other.last_round_stats().searches)
        << label;
    EXPECT_EQ(generic.last_round_stats().gos, other.last_round_stats().gos)
        << label;
  };

  // Round 1: a go-free mix — searchers and idlers (a crashed-at-round-1
  // colony slice). No recruiters => the masked_go form.
  std::vector<Action> actions(n);
  std::vector<MaskedOp> op(n);
  std::vector<std::uint8_t> active(n, 0);
  std::vector<NestId> targets(n, kHomeNest);
  for (AntId a = 0; a < n; ++a) {
    const bool idle = a % 7 == 0;
    actions[a] = idle ? Action::idle() : Action::search();
    op[a] = idle ? MaskedOp::kIdle : MaskedOp::kSearch;
  }
  const std::vector<Outcome> generic_r1 = generic.step(actions);
  const std::vector<Outcome>& masked_r1 = masked.step_masked_go(op, targets);
  quiet.step_masked_go_quiet(op, targets);
  for (AntId a = 0; a < n; ++a) {
    EXPECT_EQ(generic_r1[a].nest, masked_r1[a].nest);
    EXPECT_EQ(generic_r1[a].count, masked_r1[a].count);
    EXPECT_EQ(generic_r1[a].quality, masked_r1[a].quality);
  }
  expect_same_state(masked, "after masked search/idle");
  expect_same_state(quiet, "after quiet masked search/idle");

  // Round 2: the full mix — recruiters (active and passive), goers,
  // searchers, and idlers in one round, as an Algorithm-2 block round
  // with fault lanes would produce.
  for (AntId a = 0; a < n; ++a) {
    const NestId known = generic.location(a) == kHomeNest
                             ? kHomeNest
                             : generic.location(a);
    switch (a % 4) {
      case 0:
        actions[a] = Action::idle();
        op[a] = MaskedOp::kIdle;
        break;
      case 1:
        actions[a] = Action::recruit(known != kHomeNest, known);
        op[a] = MaskedOp::kRecruit;
        active[a] = known != kHomeNest ? 1 : 0;
        targets[a] = known;
        break;
      case 2:
        if (known == kHomeNest) {
          actions[a] = Action::search();
          op[a] = MaskedOp::kSearch;
        } else {
          actions[a] = Action::go(known);
          op[a] = MaskedOp::kGo;
          targets[a] = known;
        }
        break;
      default:
        actions[a] = Action::search();
        op[a] = MaskedOp::kSearch;
        break;
    }
  }
  const std::vector<Outcome> generic_r2 = generic.step(actions);
  const std::vector<Outcome>& masked_r2 =
      masked.step_masked_recruit(op, active, targets);
  quiet.step_masked_recruit_quiet(op, active, targets);
  for (AntId a = 0; a < n; ++a) {
    EXPECT_EQ(generic_r2[a].nest, masked_r2[a].nest) << "ant " << a;
    EXPECT_EQ(generic_r2[a].count, masked_r2[a].count) << "ant " << a;
    EXPECT_EQ(generic_r2[a].recruited, masked_r2[a].recruited) << "ant " << a;
    EXPECT_EQ(generic_r2[a].recruit_succeeded, masked_r2[a].recruit_succeeded)
        << "ant " << a;
    // Ant-indexed matching views agree with the Outcomes on both the loud
    // and the quiet environment.
    EXPECT_EQ(masked_r2[a].recruited,
              masked.recruited_by_ant(a) != kNotRecruited)
        << "ant " << a;
    EXPECT_EQ(masked_r2[a].recruit_succeeded, masked.recruit_succeeded_ant(a))
        << "ant " << a;
    EXPECT_EQ(generic_r2[a].recruited,
              quiet.recruited_by_ant(a) != kNotRecruited)
        << "ant " << a;
    EXPECT_EQ(generic_r2[a].recruit_succeeded, quiet.recruit_succeeded_ant(a))
        << "ant " << a;
    if (generic_r2[a].recruited) {
      const std::int32_t recruiter = quiet.recruited_by_ant(a);
      ASSERT_GE(recruiter, 0);
      EXPECT_EQ(generic_r2[a].nest,
                targets[static_cast<std::size_t>(recruiter)])
          << "ant " << a;
    }
  }
  expect_same_state(masked, "after masked mixed round");
  expect_same_state(quiet, "after quiet masked mixed round");
  EXPECT_EQ(generic.round(), 2u);
  EXPECT_EQ(masked.round(), 2u);
  EXPECT_EQ(quiet.round(), 2u);
}

// Every generic and masked round entry point against the literal round,
// round by round: the three pairing models x exact/noisy observation x
// op mixes drawn from search, go, recruit and idle, at 64 ants (one
// chunk) and at 2 * kMinRoundChunk + 37 ants on 4 round workers (the
// round body's chunked passes). Compared: Outcomes (loud forms),
// locations, counts, knowledge, stats, the ant-indexed matching,
// recruit_results(), successful_recruiters() and the shared stream's
// position at every pairing call. The last round is search-free, so its
// pairing probe sees the stream where the round before it ended.
TEST(Environment, EveryRoundEntryPointMatchesTheLiteralRound) {
  struct PinnedWorkers {
    PinnedWorkers() { util::set_round_workers(4); }
    ~PinnedWorkers() { util::set_round_workers(0); }
  } const pinned;
  struct Mix {
    const char* name;
    int search, go, recruit, idle;  // weights
    bool passive_only = false;
  };
  const Mix mixes[] = {
      {"search+idle", 6, 0, 0, 1},   {"full", 1, 3, 4, 1},
      {"go", 0, 1, 0, 0},            {"recruit", 0, 0, 1, 0},
      {"go+idle", 0, 3, 0, 1},       {"go+recruit", 0, 1, 1, 0},
      {"search+recruit", 1, 0, 3, 0}, {"full", 1, 3, 4, 1},
      {"passive recruit", 0, 0, 1, 0, true},
  };
  // Ant a's call under `mix`, legal in `world`'s current state.
  const auto draw_action = [](const LiteralWorld& world, AntId a,
                              const Mix& mix, util::Rng& rng) {
    std::vector<NestId> known;
    for (NestId i = 1; i <= world.num_nests(); ++i) {
      if (world.knows(a, i)) known.push_back(i);
    }
    const NestId some =
        known.empty() ? kHomeNest : known[rng.uniform_u64(known.size())];
    auto pick = static_cast<int>(
        rng.uniform_u64(mix.search + mix.go + mix.recruit + mix.idle));
    if ((pick -= mix.search) < 0) return Action::search();
    if ((pick -= mix.go) < 0) {
      return some == kHomeNest ? Action::search() : Action::go(some);
    }
    if ((pick -= mix.recruit) < 0) {
      const bool b =
          !mix.passive_only && some != kHomeNest && rng.uniform_u64(2) == 0;
      return Action::recruit(b, some);
    }
    return Action::idle();
  };

  enum class Entry { kStep, kMaskedRecruit, kMasked, kQuietRecruit, kQuiet };
  struct Driven {
    Entry entry;
    std::string name;
    std::vector<std::uint64_t> words;
    std::unique_ptr<Environment> world;
  };
  const NoiseConfig noisy{0.3, 0.2, 0.1};
  for (const std::uint32_t n :
       {64u, static_cast<std::uint32_t>(2 * util::kMinRoundChunk + 37)}) {
    for (const PairingKind kind :
         {PairingKind::kPermutation, PairingKind::kUniformProposal,
          PairingKind::kCounter}) {
      for (const bool noise : {false, true}) {
        auto cfg = config(n, {1.0, 0.0, 1.0, 0.5, 0.0}, 1234 + n);
        cfg.allow_idle = true;
        const NoiseConfig observation = noise ? noisy : NoiseConfig{};
        LiteralWorld literal(cfg, kind, observation);
        std::vector<std::unique_ptr<Driven>> driven;
        for (const auto& [entry, name] :
             {std::pair{Entry::kStep, "step"},
              std::pair{Entry::kMaskedRecruit, "step_masked_recruit"},
              std::pair{Entry::kMasked, "step_masked_go/recruit"},
              std::pair{Entry::kQuietRecruit, "step_masked_recruit_quiet"},
              std::pair{Entry::kQuiet, "step_masked_go/recruit_quiet"}}) {
          const bool quiet =
              entry == Entry::kQuietRecruit || entry == Entry::kQuiet;
          if (quiet && noise) continue;  // the quiet forms are exact-only
          auto d = std::make_unique<Driven>();
          d->entry = entry;
          d->name = name;
          d->world = std::make_unique<Environment>(
              cfg, std::make_unique<ProbedPairing>(kind, d->words),
              make_observation_model(observation));
          driven.push_back(std::move(d));
        }

        util::Rng mix_rng(n + static_cast<std::uint64_t>(kind));
        std::uint32_t recruitments = 0;
        std::vector<Action> actions(n);
        std::vector<MaskedOp> op(n);
        std::vector<std::uint8_t> active(n);
        std::vector<NestId> targets(n);
        for (const Mix& mix : mixes) {
          bool recruit_free = true;
          for (AntId a = 0; a < n; ++a) {
            actions[a] = draw_action(literal, a, mix, mix_rng);
            const Action& act = actions[a];
            op[a] = act.kind == ActionKind::kSearch  ? MaskedOp::kSearch
                    : act.kind == ActionKind::kGo    ? MaskedOp::kGo
                    : act.kind == ActionKind::kIdle  ? MaskedOp::kIdle
                                                     : MaskedOp::kRecruit;
            active[a] = act.active ? 1 : 0;
            targets[a] = act.target;
            recruit_free = recruit_free && act.kind != ActionKind::kRecruit;
          }
          const std::vector<Outcome> want = literal.step(actions);
          recruitments += literal.last_round_stats().successful_recruitments;
          for (const auto& d : driven) {
            const std::string label =
                d->name + ", n " + std::to_string(n) + ", " +
                std::string(pairing_name(kind)) +
                (noise ? ", noisy" : ", exact") + ", round " +
                std::to_string(literal.round()) + " (" + mix.name + ")";
            Environment& world = *d->world;
            const bool go_form = d->entry == Entry::kMasked ||
                                 d->entry == Entry::kQuiet;
            switch (d->entry) {
              case Entry::kStep:
                expect_same_outcomes(want, world.step(actions), label);
                break;
              case Entry::kMaskedRecruit:
              case Entry::kMasked:
                expect_same_outcomes(
                    want,
                    go_form && recruit_free
                        ? world.step_masked_go(op, targets)
                        : world.step_masked_recruit(op, active, targets),
                    label);
                break;
              case Entry::kQuietRecruit:
              case Entry::kQuiet:
                if (go_form && recruit_free) {
                  world.step_masked_go_quiet(op, targets);
                } else {
                  world.step_masked_recruit_quiet(op, active, targets);
                }
                break;
            }
            expect_same_world(literal, world, label);
            EXPECT_EQ(literal.rng_words(), d->words) << label;
            for (AntId a = 0; a < n; ++a) {
              if (op[a] != MaskedOp::kRecruit) continue;
              ASSERT_EQ(want[a].nest, world.recruit_results()[a])
                  << label << ", ant " << a;
            }
          }
        }
        EXPECT_GT(recruitments, 0u);
      }
    }
  }
}

TEST(Environment, ChunkedPass1KeepsEveryStoreInsideItsChunksRanks) {
  // Pass 1 stores every go ant's request row at the chunk's rank cursor
  // (the next recruiter overwrites it). After the chunk's last recruiter
  // the cursor sits on the NEXT chunk's first row, and the rank bound
  // diverts those stores. Here chunk 0 ends in a run of go ants, and the
  // two chunks run last-first, so a store past the bound would overwrite
  // chunk 1's first request after chunk 1 wrote it.
  struct PinnedWorkers {
    PinnedWorkers() { util::set_round_workers(2); }
    ~PinnedWorkers() { util::set_round_workers(0); }
  } const pinned;
  const util::ReversedRounds reversed;
  const auto n = static_cast<AntId>(2 * util::kMinRoundChunk + 37);
  ASSERT_EQ(util::round_chunks(n), 2u);
  const auto end0 = static_cast<AntId>(util::chunk_begin(n, 2, 1));
  for (const PairingKind kind :
       {PairingKind::kPermutation, PairingKind::kUniformProposal,
        PairingKind::kCounter}) {
    const auto cfg = config(n, {1.0, 0.0, 1.0}, 77);
    LiteralWorld literal(cfg, kind);
    Environment world(cfg, make_pairing_model(kind));
    std::vector<Action> actions(n, Action::search());
    literal.step(actions);
    world.step(actions);  // round 1: every ant learns the nest it found
    std::vector<MaskedOp> op(n);
    std::vector<std::uint8_t> active(n);
    std::vector<NestId> targets(n);
    util::Rng rng(5);
    for (int round = 2; round <= 4; ++round) {
      for (AntId a = 0; a < n; ++a) {
        const NestId found = literal.location(a) != kHomeNest
                                 ? literal.location(a)
                                 : targets[a];
        const bool go = a + 40 >= end0 && a < end0;
        actions[a] = go ? Action::go(found)
                        : Action::recruit(rng.uniform_u64(2) == 0, found);
        op[a] = go ? MaskedOp::kGo : MaskedOp::kRecruit;
        active[a] = actions[a].active ? 1 : 0;
        targets[a] = found;
      }
      const std::vector<Outcome> want = literal.step(actions);
      world.step_masked_recruit_quiet(op, active, targets);
      const std::string label = std::string(pairing_name(kind)) +
                                ", round " + std::to_string(round);
      expect_same_world(literal, world, label);
      for (AntId a = 0; a < n; ++a) {
        if (op[a] != MaskedOp::kRecruit) continue;
        ASSERT_EQ(want[a].nest, world.recruit_results()[a])
            << label << ", ant " << a;
      }
    }
  }
}

TEST(Environment, SelfRecruitmentCountsInStats) {
  Environment e(config(1, {1.0}, 5));
  std::vector<Action> search{Action::search()};
  e.step(search);
  std::vector<Action> recruit{Action::recruit(true, 1)};
  e.step(recruit);
  // A lone recruiter always pairs with itself (Lemma 3.1's remark).
  EXPECT_EQ(e.last_round_stats().self_recruitments, 1u);
  EXPECT_EQ(e.last_round_stats().successful_recruitments, 1u);
}

// successful_recruiters() describes the LAST round whatever entry point
// ran it: the recruiters of that round's matching in the order of the ants
// they recruited, and empty after a round without recruit calls. Each
// probe round runs right after a quiet recruit round that left a
// non-empty list behind, so a path that forgot to reset it shows up.
TEST(Environment, SuccessfulRecruitersDescribeTheLastRoundOnEveryPath) {
  constexpr std::uint32_t n = 64;
  for (const PairingKind kind :
       {PairingKind::kPermutation, PairingKind::kCounter}) {
    Environment e(config(n, {1.0, 1.0, 0.0, 0.0}, 17),
                  make_pairing_model(kind));
    e.step_all_search();
    std::vector<NestId> home(n);
    for (AntId a = 0; a < n; ++a) home[a] = e.location(a);
    const std::vector<std::uint8_t> all_active(n, 1);
    std::vector<Action> recruits(n);
    std::vector<Action> gos(n);
    std::vector<MaskedOp> mixed(n);
    std::vector<MaskedOp> go_only(n, MaskedOp::kGo);
    for (AntId a = 0; a < n; ++a) {
      recruits[a] = Action::recruit(true, home[a]);
      gos[a] = Action::go(home[a]);
      mixed[a] = a % 3 == 0 ? MaskedOp::kGo : MaskedOp::kRecruit;
    }

    struct Probe {
      const char* name;
      bool recruits;
      std::function<void()> run;
    };
    const std::vector<Probe> probes = {
        {"step_all_search", false, [&] { e.step_all_search(); }},
        {"step (go)", false, [&] { e.step(gos); }},
        {"step (recruit)", true, [&] { e.step(recruits); }},
        {"step_all_recruit_quiet", true,
         [&] { e.step_all_recruit_quiet(all_active, home); }},
        {"step_all_go_quiet", false, [&] { e.step_all_go_quiet(home); }},
        {"step_masked_recruit", true,
         [&] { e.step_masked_recruit(mixed, all_active, home); }},
        {"step_masked_recruit_quiet", true,
         [&] { e.step_masked_recruit_quiet(mixed, all_active, home); }},
        {"step_masked_go", false, [&] { e.step_masked_go(go_only, home); }},
        {"step_masked_go_quiet", false,
         [&] { e.step_masked_go_quiet(go_only, home); }},
    };
    for (const Probe& probe : probes) {
      const std::string label =
          std::string(pairing_name(kind)) + " / " + probe.name;
      e.step_all_recruit_quiet(all_active, home);
      ASSERT_FALSE(e.successful_recruiters().empty()) << label;
      probe.run();
      std::vector<AntId> want;
      for (AntId a = 0; a < n; ++a) {
        const std::int32_t by = e.recruited_by_ant(a);
        if (by != kNotRecruited) want.push_back(static_cast<AntId>(by));
      }
      const std::vector<AntId> got(e.successful_recruiters().begin(),
                                   e.successful_recruiters().end());
      EXPECT_EQ(want, got) << label;
      EXPECT_EQ(got.size(), e.last_round_stats().successful_recruitments)
          << label;
      EXPECT_EQ(got.empty(), !probe.recruits) << label;
    }
  }
}

}  // namespace
}  // namespace hh::env
