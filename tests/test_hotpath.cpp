// The zero-allocation invariant of the hot path: after construction,
// env::Environment::step() — and the whole packed-engine round on top of
// it — performs no heap allocations. Enforced with a counting global
// operator new, so a regression (a stray vector copy, a pairing model
// that forgets its scratch) fails loudly here rather than silently
// costing a sweep 20% throughput.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/simulation.hpp"
#include "counting_alloc.hpp"
#include "env/environment.hpp"
#include "test_util.hpp"
#include "util/round_pool.hpp"

namespace hh {
namespace {

/// Allocations performed by fn(). Only the counter reads around measured
/// regions matter; gtest's own allocations happen outside them.
template <typename Fn>
std::uint64_t allocations_during(Fn&& fn) {
  const std::uint64_t before = testing::allocation_count();
  fn();
  return testing::allocation_count() - before;
}

env::EnvironmentConfig env_config(std::uint32_t n, env::PairingKind kind) {
  env::EnvironmentConfig cfg;
  cfg.num_ants = n;
  cfg.qualities = {1.0, 1.0, 0.0, 0.0};
  cfg.seed = 9;
  (void)kind;
  return cfg;
}

TEST(HotPath, EnvironmentStepNeverAllocates) {
  for (const env::PairingKind kind :
       {env::PairingKind::kPermutation, env::PairingKind::kUniformProposal,
        env::PairingKind::kCounter}) {
    env::Environment environment(env_config(512, kind),
                                 env::make_pairing_model(kind));
    std::vector<env::Action> search(512, env::Action::search());
    std::vector<env::Action> recruit(512);

    // Round 1 (the all-search round) must already be allocation-free.
    EXPECT_EQ(allocations_during([&] { environment.step(search); }), 0u)
        << "search round, pairing " << static_cast<int>(kind);

    // Recruit rounds exercise the pairing process + scratch buffers.
    for (env::AntId a = 0; a < 512; ++a) {
      recruit[a] = env::Action::recruit(a % 2 == 0, environment.location(a));
    }
    EXPECT_EQ(allocations_during([&] {
                for (int round = 0; round < 50; ++round) {
                  environment.step(recruit);
                }
              }),
              0u)
        << "recruit rounds, pairing " << static_cast<int>(kind);
  }

  // At 4 * kMinRoundChunk ants on 4 round workers step() and the masked
  // rounds run their body as chunks on the pool: after the round that
  // starts the pool's threads, neither the caller nor the workers may
  // allocate (the counting operator new sees every thread). Noisy
  // observation keeps the masked round loud.
  util::set_round_workers(4);
  constexpr std::uint32_t n = 4 * util::kMinRoundChunk;
  ASSERT_EQ(util::round_chunks(n), 4u);
  for (const env::PairingKind kind :
       {env::PairingKind::kPermutation, env::PairingKind::kCounter}) {
    env::Environment environment(
        env_config(n, kind), env::make_pairing_model(kind),
        env::make_observation_model(env::NoiseConfig{0.2, 0.1, 0.0}));
    std::vector<env::Action> search(n, env::Action::search());
    environment.step(search);
    std::vector<env::Action> mixed(n);
    std::vector<env::MaskedOp> op(n);
    std::vector<std::uint8_t> active(n);
    std::vector<env::NestId> targets(n);
    for (env::AntId a = 0; a < n; ++a) {
      targets[a] = environment.location(a);
      active[a] = a % 2 == 0 ? 1 : 0;
      const bool go = a % 3 == 0;
      op[a] = go ? env::MaskedOp::kGo : env::MaskedOp::kRecruit;
      mixed[a] = go ? env::Action::go(targets[a])
                    : env::Action::recruit(active[a] != 0, targets[a]);
    }
    environment.step(mixed);  // the first multi-chunk round grows the pool
    EXPECT_EQ(allocations_during([&] {
                for (int round = 0; round < 20; ++round) {
                  environment.step(mixed);
                  environment.step_masked_recruit(op, active, targets);
                }
              }),
              0u)
        << "step / noisy step_masked_recruit at 4 round workers, pairing "
        << env::pairing_name(kind);
  }
  util::set_round_workers(0);
}

TEST(HotPath, PackedSimulationRoundNeverAllocates) {
  core::SimulationConfig cfg;
  cfg.num_ants = 512;
  cfg.qualities = core::SimulationConfig::binary_qualities(4, 2);
  cfg.seed = 13;
  cfg.engine = core::EngineKind::kPacked;
  // simple/quorum cover the uniform round shapes; optimal (settle on and
  // off) covers the masked mixed-phase rounds — every round >= 2 of
  // Algorithm 2 interleaves recruit and go calls across per-ant states.
  // All three pairing models must honor the contract (the counter model's
  // ticket lane is reserved up front like every other scratch lane).
  for (const env::PairingKind pairing :
       {env::PairingKind::kPermutation, env::PairingKind::kUniformProposal,
        env::PairingKind::kCounter}) {
    cfg.pairing = pairing;
    for (const core::AlgorithmKind kind :
         {core::AlgorithmKind::kSimple, core::AlgorithmKind::kQuorum,
          core::AlgorithmKind::kOptimal, core::AlgorithmKind::kOptimalSettle}) {
      core::Simulation sim(cfg, kind);
      ASSERT_TRUE(sim.packed());
      sim.step();  // settle any lazy first-round setup
      EXPECT_EQ(allocations_during([&] {
                  for (int round = 0; round < 100; ++round) sim.step();
                }),
                0u)
          << core::algorithm_name(kind) << " / "
          << env::pairing_name(pairing);
    }
  }

  // Threaded rounds: above util::kMinRoundChunk ants the masked
  // counter-lottery round and the colony-uniform rounds run as chunks on
  // the round pool. The first multi-chunk round warms it (the pool starts
  // its threads lazily); after that neither the caller nor the workers may
  // allocate — the counting operator new is global, so it sees
  // allocations on the worker threads too. Under noisy observation the
  // simple/quorum uniform rounds run as loud masked rounds
  // (step_masked_* + deliver_outcomes), so those are pinned too.
  util::set_round_workers(4);
  cfg.num_ants = 4 * util::kMinRoundChunk;
  ASSERT_EQ(util::round_chunks(cfg.num_ants), 4u);
  const env::NoiseConfig exact;
  const env::NoiseConfig noisy{0.3, 0.02, 0.0};
  struct Case {
    core::AlgorithmKind kind;
    env::PairingKind pairing;
    env::NoiseConfig noise;
  };
  for (const Case& c :
       {Case{core::AlgorithmKind::kOptimal, env::PairingKind::kCounter, exact},
        Case{core::AlgorithmKind::kOptimalSettle, env::PairingKind::kCounter,
             exact},
        Case{core::AlgorithmKind::kSimple, env::PairingKind::kPermutation,
             exact},
        Case{core::AlgorithmKind::kQuorum, env::PairingKind::kPermutation,
             exact},
        Case{core::AlgorithmKind::kSimple, env::PairingKind::kPermutation,
             noisy},
        Case{core::AlgorithmKind::kQuorum, env::PairingKind::kPermutation,
             noisy}}) {
    cfg.pairing = c.pairing;
    cfg.noise = c.noise;
    core::Simulation sim(cfg, c.kind);
    ASSERT_TRUE(sim.packed());
    sim.step();
    sim.step();  // the first multi-chunk round grows the pool
    EXPECT_EQ(allocations_during([&] {
                for (int round = 0; round < 60 && !sim.converged(); ++round) {
                  sim.step();
                }
              }),
              0u)
        << core::algorithm_name(c.kind) << " / "
        << env::pairing_name(c.pairing)
        << (c.noise.any() ? " / noisy" : "") << " at 4 round workers";
  }
  cfg.noise = exact;
  util::set_round_workers(0);
}

TEST(HotPath, FaultedPackedRoundNeverAllocates) {
  // Crash + Byzantine lanes push every round through the masked SoA entry
  // points; the zero-allocation contract must survive the overlay.
  core::SimulationConfig cfg;
  cfg.num_ants = 512;
  cfg.qualities = core::SimulationConfig::binary_qualities(4, 2);
  cfg.seed = 29;
  cfg.engine = core::EngineKind::kPacked;
  cfg.faults.crash_fraction = 0.1;
  cfg.faults.byzantine_fraction = 0.05;
  cfg.convergence_tolerance = 0.25;
  for (const core::AlgorithmKind kind :
       {core::AlgorithmKind::kSimple, core::AlgorithmKind::kOptimal}) {
    core::Simulation sim(cfg, kind);
    ASSERT_TRUE(sim.packed());
    for (int warmup = 0; warmup < 12; ++warmup) sim.step();
    EXPECT_EQ(allocations_during([&] {
                for (int round = 0; round < 100; ++round) sim.step();
              }),
              0u)
        << core::algorithm_name(kind);
  }
}

TEST(HotPath, PairActiveReusesScratch) {
  std::vector<std::uint8_t> active(256);
  for (std::size_t i = 0; i < active.size(); ++i) active[i] = i % 2 == 0;
  util::Rng rng(4);
  env::PairingScratch scratch;
  scratch.reserve(active.size());
  for (const env::PairingKind kind :
       {env::PairingKind::kPermutation, env::PairingKind::kUniformProposal,
        env::PairingKind::kCounter}) {
    const auto model = env::make_pairing_model(kind);
    model->pair_active(active, rng, scratch);  // warm (workspace sizing)
    EXPECT_EQ(allocations_during([&] {
                for (int i = 0; i < 20; ++i) {
                  model->pair_active(active, rng, scratch);
                }
              }),
              0u)
        << model->name();
    ASSERT_EQ(scratch.recruited_by.size(), active.size());
    ASSERT_EQ(scratch.recruit_succeeded.size(), active.size());
  }
}

TEST(HotPath, PairWrapperMatchesPairActive) {
  // The owning-vector wrapper must draw the identical RNG sequence and
  // produce the identical matching.
  std::vector<std::uint8_t> active(64);
  for (std::size_t i = 0; i < active.size(); ++i) active[i] = i % 3 != 0;
  for (const env::PairingKind kind :
       {env::PairingKind::kPermutation, env::PairingKind::kUniformProposal,
        env::PairingKind::kCounter}) {
    const auto model = env::make_pairing_model(kind);
    util::Rng rng_a(21);
    util::Rng rng_b(21);
    const env::PairingResult result = model->pair(active, rng_a);
    env::PairingScratch scratch;
    model->pair_active(active, rng_b, scratch);
    ASSERT_EQ(result.recruited_by, scratch.recruited_by);
    ASSERT_EQ(result.recruit_succeeded.size(),
              scratch.recruit_succeeded.size());
    for (std::size_t i = 0; i < result.recruit_succeeded.size(); ++i) {
      EXPECT_EQ(result.recruit_succeeded[i],
                scratch.recruit_succeeded[i] != 0);
    }
    EXPECT_EQ(rng_a(), rng_b());  // streams advanced identically
  }
}

}  // namespace
}  // namespace hh
