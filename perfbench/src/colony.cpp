// The colony workloads: single trials back to back on one thread.
//
//   simple-uniform  Algorithm 3, n=4096, k=8 (4 zero-quality nests),
//                   permutation pairing. Every round is colony-uniform, so
//                   it runs the kAll* entry points and sequential pairing.
//   optimal-masked  Algorithm 2, n=16384, k=8 (4 zero-quality nests),
//                   counter-lottery pairing. Per-ant phases make every
//                   round masked: fused observe+decide, keyed counter
//                   pairing and the OptimalPack censuses.
//
// Both use the packed engine, reset in place between trials (the Runner's
// arena path), over trial seeds derived from the benchmark seed.
#include <string>
#include <vector>

#include "analysis/scenario.hpp"
#include "common.hpp"
#include "core/simulation.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using hh::core::AlgorithmKind;
using hh::core::RunResult;

struct ColonyWorkload {
  const char* name;
  AlgorithmKind algorithm;
  std::uint32_t num_ants;
  hh::env::PairingKind pairing;
};

constexpr ColonyWorkload kColonyWorkloads[] = {
    {"simple-uniform", AlgorithmKind::kSimple, 4096,
     hh::env::PairingKind::kPermutation},
    {"optimal-masked", AlgorithmKind::kOptimal, 16384,
     hh::env::PairingKind::kCounter},
};

constexpr std::uint32_t kNests = 8;
constexpr std::uint32_t kBadNests = 4;
/// Floor on trials per run: p90 then has at least ten samples beyond it.
constexpr std::size_t kMinTrials = 100;
/// Trials re-run on the scalar reference engine after the timed loop.
constexpr std::size_t kScalarChecks = 2;
/// Trial seeds per traced pass.
constexpr std::size_t kTracedSeeds = 4;
/// Set-up repetitions; setup_s is their median.
constexpr int kSetups = 15;

hh::analysis::Scenario make_scenario(const ColonyWorkload& w,
                                     hh::core::EngineKind engine) {
  hh::core::SimulationConfig config;
  config.num_ants = w.num_ants;
  config.qualities =
      hh::core::SimulationConfig::binary_qualities(kNests, kBadNests);
  config.pairing = w.pairing;
  config.engine = engine;
  return hh::analysis::Scenario::of(w.name, w.algorithm, config);
}

/// The HouseHunting predicate: converged on a quality-1 nest within the cap.
bool house_hunting(const RunResult& r, std::uint32_t max_rounds) {
  return r.converged && r.winner_quality == 1.0 && r.rounds_executed <= max_rounds;
}

}  // namespace

void run_colony_workload(const Options& options, Result& result) {
  const ColonyWorkload* workload = nullptr;
  for (const ColonyWorkload& w : kColonyWorkloads) {
    if (options.workload == w.name) workload = &w;
  }
  Verifier& verify = result.verify;
  const auto trial_seed = [&](std::size_t i) {
    return hh::util::mix_seed(options.seed, i);
  };

  // Set-up: scenario build plus first construction of the packed engine.
  std::vector<double> setup_s;
  hh::analysis::Scenario scenario;
  std::unique_ptr<hh::core::Simulation> sim;
  for (int i = 0; i < kSetups; ++i) {
    const auto start = Clock::now();
    scenario = make_scenario(*workload, hh::core::EngineKind::kPacked);
    sim = scenario.make_simulation(trial_seed(0));
    setup_s.push_back(seconds_since(start));
  }

  if (options.trace) {
    std::string why;
    verify.check(replayable(scenario, &why), "replay scope: " + why);
    std::vector<std::uint64_t> seeds;
    for (std::size_t i = 0; i < kTracedSeeds; ++i) seeds.push_back(trial_seed(i));
    trace_scenarios({scenario}, seeds, options.seconds, result);
    result.notes.push_back(
        "analysis.* and service.* are 0: colony trials never touch the "
        "Runner, the result store or the service");
    return;
  }

  // Timed loop: reset + run per trial, at least kMinTrials.
  std::vector<double> trial_ms;
  std::vector<RunResult> checked;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kMinTrials || seconds_since(start) < options.seconds;
       ++i) {
    const auto t0 = Clock::now();
    const bool reset = sim->reset(trial_seed(i));
    RunResult r = sim->run();
    trial_ms.push_back(micros(t0, Clock::now()) * 1e-3);
    verify.check(reset && r.engine == hh::core::EngineKind::kPacked &&
                     house_hunting(r, sim->max_rounds()),
                 std::string(workload->name) + ": trial " + std::to_string(i) +
                     " meets HouseHunting on the packed engine");
    if (checked.size() < kScalarChecks) checked.push_back(std::move(r));
  }
  const double elapsed = seconds_since(start);

  // Cross-check against the scalar reference engine (outside the timing).
  const hh::analysis::Scenario reference =
      make_scenario(*workload, hh::core::EngineKind::kScalar);
  for (std::size_t i = 0; i < checked.size(); ++i) {
    const RunResult r = reference.make_simulation(trial_seed(i))->run();
    verify.check(r.engine == hh::core::EngineKind::kScalar &&
                     same_result(r, checked[i]),
                 std::string(workload->name) + ": trial " + std::to_string(i) +
                     " identical on the scalar engine");
  }

  const std::size_t trials = trial_ms.size();
  result.add("throughput_per_s", static_cast<double>(trials) / elapsed, "1/s",
             trials);
  result.add("latency_ms_p50", percentile_of(trial_ms, 50.0), "ms", trials);
  result.add("latency_ms_p90", percentile_of(trial_ms, 90.0), "ms", trials);
  result.add("setup_s", median_of(setup_s), "s", setup_s.size());
  result.add("peak_rss_mb", peak_rss_mb(), "MiB", 1);
}

bool is_colony_workload(const std::string& name) {
  for (const ColonyWorkload& w : kColonyWorkloads) {
    if (name == w.name) return true;
  }
  return false;
}

}  // namespace perfbench
