// The round pool (util/round_pool.hpp) and the chunked round kernels on
// top of it: a simulated round must come out bit-identical whatever the
// number of chunks it is split into. Every check here runs the same work
// with the pool pinned to 1, 2 and 8 workers — at n = 20000, so the
// chunks are uneven (20000 / 8 and the request counts do not divide) —
// and compares everything observable: whole RunResults with per-round
// trajectories, against the scalar reference engine too, and a
// standalone environment round lane by lane.
#include "util/round_pool.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/simulation.hpp"
#include "env/environment.hpp"
#include "env/observation.hpp"
#include "env/pairing.hpp"
#include "util/rng.hpp"

namespace hh {
namespace {

/// Pins the pool's worker count for one scope.
class PinnedWorkers {
 public:
  explicit PinnedWorkers(std::size_t workers) {
    util::set_round_workers(workers);
  }
  ~PinnedWorkers() { util::set_round_workers(0); }
  PinnedWorkers(const PinnedWorkers&) = delete;
  PinnedWorkers& operator=(const PinnedWorkers&) = delete;
};

constexpr std::size_t kWorkerCounts[] = {1, 2, 8};
constexpr std::uint32_t kAnts = 20000;

TEST(RoundPool, ChunkCountFollowsTheInputAndTheGuards) {
  const PinnedWorkers pinned(8);
  EXPECT_EQ(util::round_chunks(kAnts), 8u);  // min(8, 20000 / 2048 = 9)
  EXPECT_EQ(util::round_chunks(3 * util::kMinRoundChunk), 3u);
  EXPECT_EQ(util::round_chunks(2 * util::kMinRoundChunk - 1), 1u);
  EXPECT_EQ(util::round_chunks(0), 1u);
  {
    const util::InlineRounds guard;  // what a multi-worker Runner holds
    EXPECT_EQ(util::round_chunks(kAnts), 1u);
  }
  EXPECT_EQ(util::round_chunks(kAnts), 8u);
  util::set_round_workers(1000);
  EXPECT_EQ(util::round_chunks(std::size_t{1} << 30), util::kMaxRoundChunks);
}

TEST(RoundPool, RunsEveryChunkOnceAndNestedKernelsInline) {
  const PinnedWorkers pinned(8);
  for (int job = 0; job < 50; ++job) {
    std::array<int, 8> runs{};
    std::array<std::size_t, 8> nested{};
    util::run_chunks(8, [&](std::size_t c) {
      ++runs[c];
      nested[c] = util::round_chunks(kAnts);
    });
    for (std::size_t c = 0; c < 8; ++c) {
      EXPECT_EQ(runs[c], 1) << "chunk " << c;
      EXPECT_EQ(nested[c], 1u) << "chunk " << c;
    }
  }
}

TEST(RoundPool, RethrowsTheLowestFailingChunkOnTheCaller) {
  const PinnedWorkers pinned(4);
  try {
    util::run_chunks(4, [](std::size_t c) {
      if (c >= 2) throw std::runtime_error("chunk " + std::to_string(c));
    });
    FAIL() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 2");
  }
  // The pool keeps working after a failed job.
  std::atomic<std::size_t> sum{0};
  util::run_chunks(4, [&](std::size_t c) { sum += c; });
  EXPECT_EQ(sum.load(), 6u);
}

// --- whole simulations -----------------------------------------------------

core::SimulationConfig colony_config(std::uint64_t seed) {
  core::SimulationConfig cfg;
  cfg.num_ants = kAnts;
  cfg.qualities = core::SimulationConfig::binary_qualities(8, 4);
  cfg.pairing = env::PairingKind::kCounter;
  cfg.seed = seed;
  cfg.record_trajectories = true;
  cfg.max_rounds = 60;  // a cap for the runtime; truncated runs compare too
  return cfg;
}

bool same_stats(const env::RoundStats& a, const env::RoundStats& b) {
  return a.searches == b.searches && a.gos == b.gos &&
         a.active_recruits == b.active_recruits &&
         a.passive_recruits == b.passive_recruits && a.idles == b.idles &&
         a.successful_recruitments == b.successful_recruitments &&
         a.self_recruitments == b.self_recruitments &&
         a.cross_nest_recruitments == b.cross_nest_recruitments;
}

void expect_same_run(const core::RunResult& want, const core::RunResult& got,
                     const std::string& label) {
  EXPECT_EQ(want.converged, got.converged) << label;
  EXPECT_EQ(want.rounds, got.rounds) << label;
  EXPECT_EQ(want.rounds_executed, got.rounds_executed) << label;
  EXPECT_EQ(want.winner, got.winner) << label;
  EXPECT_EQ(want.winner_quality, got.winner_quality) << label;
  EXPECT_EQ(want.total_recruitments, got.total_recruitments) << label;
  EXPECT_EQ(want.total_tandem_runs, got.total_tandem_runs) << label;
  EXPECT_EQ(want.total_transports, got.total_transports) << label;
  const core::Trajectories& a = want.trajectories;
  const core::Trajectories& b = got.trajectories;
  EXPECT_EQ(a.counts, b.counts) << label;
  EXPECT_EQ(a.committed, b.committed) << label;
  EXPECT_EQ(a.tandem_successes, b.tandem_successes) << label;
  EXPECT_EQ(a.transport_successes, b.transport_successes) << label;
  ASSERT_EQ(a.round_stats.size(), b.round_stats.size()) << label;
  for (std::size_t r = 0; r < a.round_stats.size(); ++r) {
    EXPECT_TRUE(same_stats(a.round_stats[r], b.round_stats[r]))
        << label << ", round " << r + 1;
  }
}

core::RunResult run_at(std::size_t workers, core::SimulationConfig cfg,
                       core::AlgorithmKind kind, core::EngineKind engine) {
  const PinnedWorkers pinned(workers);
  cfg.engine = engine;
  core::Simulation sim(cfg, kind);
  EXPECT_EQ(sim.packed(), engine == core::EngineKind::kPacked);
  return sim.run();
}

void expect_identical_across_workers(const core::SimulationConfig& cfg,
                                     core::AlgorithmKind kind,
                                     const std::string& label) {
  const core::RunResult scalar =
      run_at(1, cfg, kind, core::EngineKind::kScalar);
  EXPECT_GT(scalar.rounds_executed, 1u) << label;
  for (const std::size_t workers : kWorkerCounts) {
    expect_same_run(scalar, run_at(workers, cfg, kind, core::EngineKind::kPacked),
                    label + ", packed at " + std::to_string(workers) +
                        " workers vs scalar");
  }
}

TEST(RoundPool, SimulationsBitIdenticalAtOneTwoAndEightWorkers) {
  for (const std::uint64_t seed : {3u, 17u}) {
    for (const core::AlgorithmKind kind :
         {core::AlgorithmKind::kOptimal, core::AlgorithmKind::kOptimalSettle,
          core::AlgorithmKind::kQuorum, core::AlgorithmKind::kSimple}) {
      expect_identical_across_workers(
          colony_config(seed), kind,
          std::string(core::algorithm_name(kind)) + ", seed " +
              std::to_string(seed));
    }
  }
  // Permutation pairing: Algorithm 3 and the quorum baseline run
  // colony-uniform rounds from round 2 on, whose decide, environment
  // bookkeeping and observe kernels are chunked (the pairing walk stays
  // serial).
  {
    const PinnedWorkers pinned(2);
    ASSERT_EQ(util::round_chunks(kAnts), 2u);
  }
  for (const std::uint64_t seed : {3u, 17u}) {
    core::SimulationConfig cfg = colony_config(seed);
    cfg.pairing = env::PairingKind::kPermutation;
    for (const core::AlgorithmKind kind :
         {core::AlgorithmKind::kSimple, core::AlgorithmKind::kRateBoosted,
          core::AlgorithmKind::kQualityAware,
          core::AlgorithmKind::kUniformRecruit, core::AlgorithmKind::kQuorum}) {
      expect_identical_across_workers(
          cfg, kind,
          std::string(core::algorithm_name(kind)) + ", permutation, seed " +
              std::to_string(seed));
    }
  }
  // Noisy observation: the packed engine runs the uniform recruit and go
  // rounds of Algorithm 3 and the quorum baseline as loud masked rounds
  // (chunked pass 1 and matching walk, then the ant-order perception
  // draws), under a sequential and a keyed pairing.
  for (const env::PairingKind pairing :
       {env::PairingKind::kPermutation, env::PairingKind::kCounter}) {
    core::SimulationConfig cfg = colony_config(11);
    cfg.pairing = pairing;
    cfg.noise.count_sigma = 0.3;
    cfg.noise.quality_flip_prob = 0.02;
    for (const core::AlgorithmKind kind :
         {core::AlgorithmKind::kSimple, core::AlgorithmKind::kQuorum}) {
      expect_identical_across_workers(
          cfg, kind,
          std::string(core::algorithm_name(kind)) + ", noisy, " +
              std::string(env::pairing_name(pairing)) + ", seed 11");
    }
  }
}

TEST(RoundPool, FaultedSimulationBitIdenticalAtOneTwoAndEightWorkers) {
  // Byzantine scouts search inside masked-recruit rounds, so those rounds
  // take the single-chunk pass-1 fallback (the landings draw from the
  // shared stream in ant order); crash lanes add idles to the mix.
  for (const std::uint64_t seed : {5u, 23u}) {
    core::SimulationConfig cfg = colony_config(seed);
    cfg.faults.byzantine_fraction = 0.01;
    cfg.faults.crash_fraction = 0.02;
    cfg.convergence_tolerance = 0.1;
    expect_identical_across_workers(cfg, core::AlgorithmKind::kOptimal,
                                    "faulted optimal, seed " +
                                        std::to_string(seed));
  }
}

TEST(RoundPool, ScalarEngineBitIdenticalAtOneTwoAndEightWorkers) {
  // The scalar engine's step() runs the chunked round body too (loud
  // masked rounds under noise, search-laden rounds under Byzantine
  // scouts), so its runs must not depend on the worker count either.
  std::vector<std::pair<core::SimulationConfig, core::AlgorithmKind>> runs;
  runs.emplace_back(colony_config(3), core::AlgorithmKind::kOptimal);
  core::SimulationConfig permutation = colony_config(3);
  permutation.pairing = env::PairingKind::kPermutation;
  runs.emplace_back(permutation, core::AlgorithmKind::kQuorum);
  core::SimulationConfig noisy = colony_config(7);
  noisy.pairing = env::PairingKind::kUniformProposal;
  noisy.noise.count_sigma = 0.1;
  runs.emplace_back(noisy, core::AlgorithmKind::kSimple);
  core::SimulationConfig faulted = colony_config(5);
  faulted.faults.byzantine_fraction = 0.01;
  faulted.faults.crash_fraction = 0.02;
  faulted.convergence_tolerance = 0.1;
  runs.emplace_back(faulted, core::AlgorithmKind::kOptimal);
  for (const auto& [cfg, kind] : runs) {
    const std::string label = std::string(core::algorithm_name(kind)) + ", " +
                              std::string(env::pairing_name(cfg.pairing)) +
                              ", seed " + std::to_string(cfg.seed);
    const core::RunResult want =
        run_at(1, cfg, kind, core::EngineKind::kScalar);
    EXPECT_GT(want.rounds_executed, 1u) << label;
    for (const std::size_t workers : {2u, 8u}) {
      expect_same_run(want, run_at(workers, cfg, kind, core::EngineKind::kScalar),
                      label + ", scalar at " + std::to_string(workers) +
                          " workers vs 1");
    }
  }
}

// --- one environment round, lane by lane -----------------------------------

/// Everything a round leaves behind that a caller can see.
struct RoundRecord {
  std::vector<env::NestId> locations;
  std::vector<std::uint32_t> counts;
  env::RoundStats stats;
  std::vector<std::int32_t> recruited_by;
  std::vector<std::uint8_t> recruit_succeeded;
  std::vector<env::AntId> successful_recruiters;
  std::vector<env::NestId> recruit_results;  ///< recruit-op ants only
  std::vector<std::uint8_t> knowledge;       ///< knows(a, i), flattened
  std::vector<env::Outcome> outcomes;        ///< loud rounds only
};

bool same_outcomes(const std::vector<env::Outcome>& a,
                   const std::vector<env::Outcome>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].nest != b[i].nest ||
        a[i].quality != b[i].quality || a[i].count != b[i].count ||
        a[i].recruited != b[i].recruited ||
        a[i].recruit_succeeded != b[i].recruit_succeeded) {
      return false;
    }
  }
  return true;
}

/// Record `world` after a round whose per-ant calls were `op`.
RoundRecord record_round(const env::HomeNestBackend& world,
                         std::span<const env::MaskedOp> op) {
  RoundRecord rec;
  for (env::AntId a = 0; a < kAnts; ++a) {
    rec.locations.push_back(world.location(a));
    if (op[a] == env::MaskedOp::kRecruit) {
      rec.recruit_results.push_back(world.recruit_results()[a]);
    }
    for (env::NestId i = 0; i <= world.num_nests(); ++i) {
      rec.knowledge.push_back(world.knows(a, i) ? 1 : 0);
    }
  }
  rec.counts.assign(world.counts().begin(), world.counts().end());
  rec.stats = world.last_round_stats();
  rec.recruited_by = world.last_pairing().recruited_by;
  rec.recruit_succeeded = world.last_pairing().recruit_succeeded;
  rec.successful_recruiters.assign(world.successful_recruiters().begin(),
                                   world.successful_recruiters().end());
  return rec;
}

env::EnvironmentConfig world_config(std::uint64_t seed) {
  env::EnvironmentConfig ec;
  ec.num_ants = kAnts;
  ec.qualities = {1.0, 1.0, 1.0, 0.0, 0.5, 0.0, 1.0, 0.25};
  ec.seed = seed;
  ec.allow_idle = true;
  return ec;
}

/// Drive a standalone home-nest world under `pairing` through a search
/// round and then rounds of a fixed random op mix (one of them with a few
/// searchers, the last one without recruiters), recording every round.
/// Quiet: exact observation and the quiet masked forms. Loud: noisy
/// observation, and the rounds alternate between step() and the loud
/// masked forms, Outcomes recorded.
std::vector<RoundRecord> drive_backend(std::size_t workers,
                                       env::PairingKind pairing, bool loud) {
  const PinnedWorkers pinned(workers);
  env::HomeNestBackend world(
      world_config(41), env::make_pairing_model(pairing),
      env::make_observation_model(loud ? env::NoiseConfig{0.2, 0.1, 0.05}
                                       : env::NoiseConfig{}));
  (void)world.step_all_search();
  std::vector<env::NestId> home_nest(kAnts);
  for (env::AntId a = 0; a < kAnts; ++a) home_nest[a] = world.location(a);

  util::Rng mix(99);
  std::vector<env::MaskedOp> op(kAnts);
  std::vector<std::uint8_t> active(kAnts);
  std::vector<env::NestId> targets(kAnts);
  std::vector<env::Action> actions(kAnts);
  std::vector<RoundRecord> records;
  for (int round = 0; round < 6; ++round) {
    const bool go_round = round == 5;
    for (env::AntId a = 0; a < kAnts; ++a) {
      const std::uint64_t r = mix.uniform_u64(100);
      op[a] = r < 48 && !go_round ? env::MaskedOp::kRecruit
              : r < 95            ? env::MaskedOp::kGo
                                  : env::MaskedOp::kIdle;
      if (round == 3 && r >= 99) op[a] = env::MaskedOp::kSearch;
      active[a] = mix.uniform_u64(2) != 0 ? 1 : 0;
      targets[a] = home_nest[a];
      switch (op[a]) {
        case env::MaskedOp::kRecruit:
          actions[a] = env::Action::recruit(active[a] != 0, targets[a]);
          break;
        case env::MaskedOp::kGo: actions[a] = env::Action::go(targets[a]); break;
        case env::MaskedOp::kSearch: actions[a] = env::Action::search(); break;
        case env::MaskedOp::kIdle: actions[a] = env::Action::idle(); break;
      }
    }
    const std::vector<env::Outcome>* outcomes = nullptr;
    if (!loud) {
      if (go_round) {
        world.step_masked_go_quiet(op, targets);
      } else {
        world.step_masked_recruit_quiet(op, active, targets);
      }
    } else if (round % 2 == 0) {
      outcomes = &world.step(actions);
    } else {
      outcomes = go_round ? &world.step_masked_go(op, targets)
                          : &world.step_masked_recruit(op, active, targets);
    }
    records.push_back(record_round(world, op));
    if (outcomes != nullptr) records.back().outcomes = *outcomes;
  }
  return records;
}

/// Drive a standalone home-nest world under permutation pairing through a
/// search round and then alternating colony-uniform recruit and go rounds
/// (the quiet forms the packed engine calls), recording every round.
std::vector<RoundRecord> drive_uniform_backend(std::size_t workers) {
  const PinnedWorkers pinned(workers);
  env::HomeNestBackend world(
      world_config(43),
      env::make_pairing_model(env::PairingKind::kPermutation));
  (void)world.step_all_search();
  std::vector<env::NestId> nest(kAnts);
  for (env::AntId a = 0; a < kAnts; ++a) nest[a] = world.location(a);

  util::Rng mix(7);
  const std::vector<env::MaskedOp> recruit_ops(kAnts, env::MaskedOp::kRecruit);
  const std::vector<env::MaskedOp> go_ops(kAnts, env::MaskedOp::kGo);
  std::vector<std::uint8_t> active(kAnts);
  std::vector<RoundRecord> records;
  for (int round = 0; round < 6; ++round) {
    if (round % 2 == 0) {
      for (auto& b : active) b = mix.uniform_u64(3) == 0 ? 1 : 0;
      world.step_all_recruit_quiet(active, nest);
      records.push_back(record_round(world, recruit_ops));
      // Recruited ants now know, and go to, their recruiter's nest.
      for (env::AntId a = 0; a < kAnts; ++a) {
        nest[a] = world.recruit_results()[a];
      }
    } else {
      world.step_all_go_quiet(nest);
      records.push_back(record_round(world, go_ops));
    }
  }
  return records;
}

void expect_same_records(const std::vector<RoundRecord>& want,
                         const std::vector<RoundRecord>& got,
                         std::size_t workers) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t r = 0; r < want.size(); ++r) {
    const std::string label =
        std::to_string(workers) + " workers, round " + std::to_string(r);
    EXPECT_EQ(want[r].locations, got[r].locations) << label;
    EXPECT_EQ(want[r].counts, got[r].counts) << label;
    EXPECT_TRUE(same_stats(want[r].stats, got[r].stats)) << label;
    EXPECT_EQ(want[r].recruited_by, got[r].recruited_by) << label;
    EXPECT_EQ(want[r].recruit_succeeded, got[r].recruit_succeeded) << label;
    EXPECT_EQ(want[r].successful_recruiters, got[r].successful_recruiters)
        << label;
    EXPECT_EQ(want[r].recruit_results, got[r].recruit_results) << label;
    EXPECT_EQ(want[r].knowledge, got[r].knowledge) << label;
    EXPECT_TRUE(same_outcomes(want[r].outcomes, got[r].outcomes)) << label;
  }
}

TEST(RoundPool, BackendRoundBitIdenticalAtOneTwoAndEightWorkers) {
  for (const env::PairingKind pairing :
       {env::PairingKind::kPermutation, env::PairingKind::kUniformProposal,
        env::PairingKind::kCounter}) {
    for (const bool loud : {false, true}) {
      SCOPED_TRACE(std::string(env::pairing_name(pairing)) +
                   (loud ? ", loud" : ", quiet"));
      const std::vector<RoundRecord> want = drive_backend(1, pairing, loud);
      EXPECT_GT(want[3].stats.searches, 0u);  // the single-chunk fallback ran
      EXPECT_GT(want[4].stats.successful_recruitments, 0u);
      EXPECT_EQ(want[5].stats.active_recruits + want[5].stats.passive_recruits,
                0u);
      EXPECT_EQ(want[0].outcomes.size(), loud ? kAnts : 0u);
      for (const std::size_t workers : {2u, 8u}) {
        expect_same_records(want, drive_backend(workers, pairing, loud),
                            workers);
      }
    }
  }
}

TEST(RoundPool, UniformBackendRoundsBitIdenticalAtOneTwoAndEightWorkers) {
  const std::vector<RoundRecord> want = drive_uniform_backend(1);
  EXPECT_GT(want[0].stats.successful_recruitments, 0u);
  for (const std::size_t workers : {2u, 8u}) {
    expect_same_records(want, drive_uniform_backend(workers), workers);
  }
}

TEST(RoundPool, PairActiveBitIdenticalAtOneTwoAndEightWorkers) {
  const env::CounterLotteryPairing model;
  for (const double density : {0.05, 0.5, 1.0}) {
    std::vector<std::uint8_t> active(kAnts);
    util::Rng rng(7);
    for (auto& b : active) b = rng.uniform_double() < density ? 1 : 0;
    std::vector<std::int32_t> want_by;
    std::vector<std::uint8_t> want_ok;
    for (const std::size_t workers : kWorkerCounts) {
      const PinnedWorkers pinned(workers);
      env::PairingScratch scratch;
      util::Rng unused(1);
      model.pair_active(active, env::PairingCtx{unused, 0xABCDu, 12}, scratch);
      if (workers == 1) {
        want_by = scratch.recruited_by;
        want_ok = scratch.recruit_succeeded;
        EXPECT_GT(scratch.pair_count(), 0u);
        continue;
      }
      EXPECT_EQ(want_by, scratch.recruited_by)
          << workers << " workers, density " << density;
      EXPECT_EQ(want_ok, scratch.recruit_succeeded)
          << workers << " workers, density " << density;
    }
  }
}

TEST(RoundPool, ModelViolationInAHelperChunkSurfacesOnTheCaller) {
  // Two illegal go() calls in the last quarter of the colony (a helper
  // chunk at 8 workers): every worker count reports the first one, as
  // the serial loop would — under a keyed and a sequential pairing
  // model, through the quiet masked round and through step().
  std::vector<env::MaskedOp> op(kAnts, env::MaskedOp::kRecruit);
  std::vector<std::uint8_t> active(kAnts, 0);
  std::vector<env::NestId> targets(kAnts, env::kHomeNest);
  op[17001] = env::MaskedOp::kGo;  // go(1) with no knowledge of nest 1
  targets[17001] = 1;
  op[19999] = env::MaskedOp::kGo;
  targets[19999] = 2;
  std::vector<env::Action> actions(kAnts, env::Action::recruit(false, 0));
  actions[17001] = env::Action::go(1);
  actions[19999] = env::Action::go(2);
  for (const env::PairingKind pairing :
       {env::PairingKind::kCounter, env::PairingKind::kPermutation}) {
    for (const bool loud : {false, true}) {
      for (const std::size_t workers : kWorkerCounts) {
        const std::string label =
            std::string(env::pairing_name(pairing)) +
            (loud ? ", step()" : ", quiet masked") + ", " +
            std::to_string(workers) + " workers";
        const PinnedWorkers pinned(workers);
        env::EnvironmentConfig ec;
        ec.num_ants = kAnts;
        ec.qualities = {1.0, 1.0};
        ec.seed = 3;
        env::HomeNestBackend world(ec, env::make_pairing_model(pairing));
        try {
          if (loud) {
            (void)world.step(actions);
          } else {
            world.step_masked_recruit_quiet(op, active, targets);
          }
          FAIL() << label << ": no exception";
        } catch (const ModelViolation& e) {
          EXPECT_NE(std::string(e.what()).find("ant 17001"), std::string::npos)
              << label << ": " << e.what();
        }
      }
    }
  }
}

}  // namespace
}  // namespace hh
