#include "trace.hpp"

#include <array>
#include <memory>
#include <span>
#include <stdexcept>

#include "core/ant_pack.hpp"
#include "core/convergence.hpp"
#include "core/registry.hpp"
#include "core/simulation.hpp"
#include "env/environment.hpp"
#include "env/observation.hpp"
#include "env/pairing.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using hh::core::RoundShape;
using hh::env::MaskedOp;
using hh::util::mix_seed;

// Seed-derivation tags private to core/simulation.cpp (env, colony) and
// env/environment.cpp (pairing key). The replay re-derives the same
// sub-seeds; the per-seed check against Simulation::run catches any drift.
constexpr std::uint64_t kEnvSeedTag = 0xE1717;
constexpr std::uint64_t kColonySeedTag = 0xC0107;
constexpr std::uint64_t kPairingSeedTag = 0x9A1217;

/// Work and time summed over the traced trials of a replay.
struct LayerTotals {
  // Span self times, microseconds.
  double decide_us = 0.0;   ///< round_shape + fill_masked/fill_recruit_soa/go_targets
  double observe_us = 0.0;  ///< tandem/transport attribution + observe_* hooks
  double census_us = 0.0;   ///< agreement_census + ConvergenceDetector::update
  double env_step_us = 0.0;  ///< HomeNestBackend::step_* (pairing included)
  double pairing_us = 0.0;   ///< the pair_active replay
  double trial_us = 0.0;     ///< traced trial wall time, instrumentation included
  // Exact counts.
  std::uint64_t trials = 0;
  std::uint64_t rounds = 0;
  /// Rounds per core::RoundShape, in enum order (all_search, all_recruit,
  /// all_go, masked_recruit, masked_go).
  std::array<std::uint64_t, 5> shapes{};
  std::uint64_t pairing_requests = 0;
  std::uint64_t searches = 0;
  std::uint64_t gos = 0;
  std::uint64_t active_recruits = 0;
  std::uint64_t successful_recruitments = 0;

  /// True when every exact count equals `other`'s.
  [[nodiscard]] bool same_counts(const LayerTotals& other) const {
    return trials == other.trials && rounds == other.rounds &&
           shapes == other.shapes &&
           pairing_requests == other.pairing_requests &&
           searches == other.searches && gos == other.gos &&
           active_recruits == other.active_recruits &&
           successful_recruitments == other.successful_recruitments;
  }
};

/// The fields of a RunResult the replay reproduces.
struct ReplayResult {
  bool converged = false;
  std::uint32_t rounds = 0;
  std::uint32_t rounds_executed = 0;
  hh::env::NestId winner = hh::env::kHomeNest;
  std::uint64_t total_recruitments = 0;
  std::uint64_t tandem_runs = 0;
  std::uint64_t transports = 0;
  /// Rounds whose replayed matching differed from last_pairing().
  std::uint64_t pairing_mismatches = 0;
};

bool reproduces(const ReplayResult& replay, const hh::core::RunResult& run) {
  return replay.converged == run.converged && replay.rounds == run.rounds &&
         replay.rounds_executed == run.rounds_executed &&
         replay.winner == run.winner &&
         replay.total_recruitments == run.total_recruitments &&
         replay.tandem_runs == run.total_tandem_runs &&
         replay.transports == run.total_transports;
}

/// One trial at a time through Simulation::step_packed's call sequence
/// (the fault-free, fully synchronous, exact-observation branch), with a
/// span around each layer call.
class TracedReplay {
 public:
  TracedReplay(const hh::analysis::Scenario& scenario, std::uint32_t max_rounds)
      : spec_(hh::core::AlgorithmRegistry::instance().find(scenario.algorithm)),
        max_rounds_(max_rounds),
        env_(env_config(scenario.config),
             hh::env::make_pairing_model(scenario.config.pairing),
             hh::env::make_observation_model(scenario.config.noise)),
        pairing_(hh::env::make_pairing_model(scenario.config.pairing)),
        detector_(spec_->mode, scenario.config.stability_rounds,
                  scenario.config.convergence_tolerance) {
    const hh::core::SimulationConfig& config = scenario.config;
    pack_ = spec_->pack(config, mix_seed(config.seed, kColonySeedTag),
                        scenario.params, nullptr);
    const std::uint32_t n = config.num_ants;
    op_.resize(n);
    active_.resize(n);
    targets_.resize(n);
    flags_.reserve(n);
    census_.resize(config.qualities.size() + 1);
    scratch_.reserve(n);
  }

  ReplayResult run(std::uint64_t seed, LayerTotals& totals);

 private:
  static hh::env::EnvironmentConfig env_config(
      const hh::core::SimulationConfig& config) {
    hh::env::EnvironmentConfig ec;
    ec.num_ants = config.num_ants;
    ec.qualities = config.qualities;
    ec.seed = mix_seed(config.seed, kEnvSeedTag);
    ec.enforce_model = false;  // the packed engine skips model validation
    return ec;
  }

  /// Advance the shadow stream past this round's search landings (one
  /// uniform draw per searching ant, in ant order, as the env draws them).
  void shadow_searches() {
    for (const MaskedOp o : op_) {
      if (o == MaskedOp::kSearch) (void)shadow_.uniform_u64(env_.num_nests());
    }
  }

  /// Replay the round's pairing on `flags` (one byte per recruit request,
  /// in request order); true when it equals the env's matching.
  bool replay_pairing(std::span<const std::uint8_t> flags, std::uint32_t round,
                      LayerTotals& totals) {
    const auto start = Clock::now();
    pairing_->pair_active(flags,
                          hh::env::PairingCtx{shadow_, pairing_seed_, round},
                          scratch_);
    totals.pairing_us += micros(start, Clock::now());
    const hh::env::PairingScratch& live = env_.last_pairing();
    return scratch_.recruited_by == live.recruited_by &&
           scratch_.recruit_succeeded == live.recruit_succeeded;
  }

  std::shared_ptr<const hh::core::AlgorithmSpec> spec_;
  std::uint32_t max_rounds_;
  hh::env::HomeNestBackend env_;
  std::unique_ptr<hh::core::AntPack> pack_;
  std::unique_ptr<hh::env::PairingModel> pairing_;
  hh::core::ConvergenceDetector detector_;
  hh::util::Rng shadow_;  ///< mirrors the env's sequential stream
  std::uint64_t pairing_seed_ = 0;
  hh::env::PairingScratch scratch_;
  std::vector<MaskedOp> op_;
  std::vector<std::uint8_t> active_;
  std::vector<hh::env::NestId> targets_;
  std::vector<std::uint8_t> flags_;
  std::vector<std::uint32_t> census_;
};

ReplayResult TracedReplay::run(std::uint64_t seed, LayerTotals& totals) {
  const auto trial_start = Clock::now();
  if (!pack_->reset(mix_seed(seed, kColonySeedTag))) {
    throw std::runtime_error("traced replay: pack cannot reset in place");
  }
  const std::uint64_t env_seed = mix_seed(seed, kEnvSeedTag);
  env_.reset(env_seed);
  shadow_.reseed(env_seed);
  pairing_seed_ = mix_seed(env_seed, kPairingSeedTag);
  detector_.reset();

  ReplayResult result;
  bool prefilled = false;  // Simulation's masked_lanes_prefilled_
  const std::uint32_t n = env_.num_ants();
  while (!detector_.converged() && env_.round() < max_rounds_) {
    const std::uint32_t round = env_.round() + 1;
    std::uint32_t tandem = 0;
    std::uint32_t transport = 0;
    // Simulation::step_packed's attribute_quiet.
    const auto attribute = [&] {
      const std::uint32_t successes =
          env_.last_round_stats().successful_recruitments;
      if (successes == 0) return;
      if (!pack_->any_finalized()) {
        tandem = successes;
        return;
      }
      transport = pack_->count_finalized(env_.successful_recruiters());
      tandem = successes - transport;
    };

    // t0 round start | decide | t1 | env step | t2 | instrumentation | t3 |
    // observe | t4 | census | t5
    const auto t0 = Clock::now();
    const RoundShape shape = pack_->round_shape(round);
    Clock::time_point t1;
    Clock::time_point t2;
    Clock::time_point t3;
    bool matched = true;
    switch (shape) {
      case RoundShape::kAllSearch: {
        t1 = Clock::now();
        const std::vector<hh::env::Outcome>& outcomes = env_.step_all_search();
        t2 = Clock::now();
        for (std::uint32_t a = 0; a < n; ++a) {
          (void)shadow_.uniform_u64(env_.num_nests());
        }
        t3 = Clock::now();
        pack_->observe_all(outcomes);
        break;
      }
      case RoundShape::kAllRecruit: {
        const std::span<const hh::env::NestId> targets =
            pack_->fill_recruit_soa(round, active_);
        t1 = Clock::now();
        env_.step_all_recruit_quiet(active_, targets);
        t2 = Clock::now();
        matched = replay_pairing(active_, round, totals);
        t3 = Clock::now();
        attribute();
        pack_->observe_recruit_pairing(targets, env_.last_pairing());
        break;
      }
      case RoundShape::kAllGo: {
        const std::span<const hh::env::NestId> targets = pack_->go_targets();
        t1 = Clock::now();
        env_.step_all_go_quiet(targets);
        t2 = Clock::now();
        t3 = t2;
        pack_->observe_go_counts(env_.counts(), env_.qualities());
        break;
      }
      case RoundShape::kMaskedRecruit: {
        if (!prefilled) pack_->fill_masked(round, op_, active_, targets_);
        prefilled = false;
        t1 = Clock::now();
        env_.step_masked_recruit_quiet(op_, active_, targets_);
        t2 = Clock::now();
        shadow_searches();
        flags_.clear();
        for (std::uint32_t a = 0; a < n; ++a) {
          if (op_[a] == MaskedOp::kRecruit) flags_.push_back(active_[a]);
        }
        matched = replay_pairing(flags_, round, totals);
        t3 = Clock::now();
        attribute();
        prefilled = pack_->observe_masked_quiet_then_decide(round, env_, op_,
                                                            active_, targets_);
        break;
      }
      case RoundShape::kMaskedGo: {
        pack_->fill_masked(round, op_, active_, targets_);
        t1 = Clock::now();
        env_.step_masked_go_quiet(op_, targets_);
        t2 = Clock::now();
        shadow_searches();
        t3 = Clock::now();
        pack_->observe_masked_quiet(env_, op_, targets_);
        break;
      }
    }
    const auto t4 = Clock::now();
    const std::uint32_t correct_total =
        pack_->agreement_census(detector_.mode(), env_, census_);
    detector_.update(census_, correct_total, env_);
    const auto t5 = Clock::now();

    totals.decide_us += micros(t0, t1);
    totals.env_step_us += micros(t1, t2);
    totals.observe_us += micros(t3, t4);
    totals.census_us += micros(t4, t5);
    const hh::env::RoundStats& stats = env_.last_round_stats();
    ++totals.rounds;
    ++totals.shapes[static_cast<std::size_t>(shape)];
    totals.pairing_requests += stats.active_recruits + stats.passive_recruits;
    totals.searches += stats.searches;
    totals.gos += stats.gos;
    totals.active_recruits += stats.active_recruits;
    totals.successful_recruitments += stats.successful_recruitments;
    result.total_recruitments += stats.successful_recruitments;
    result.tandem_runs += tandem;
    result.transports += transport;
    if (!matched) ++result.pairing_mismatches;
  }
  result.converged = detector_.converged();
  result.rounds_executed = env_.round();
  if (result.converged) {
    result.rounds = detector_.decision_round();
    result.winner = detector_.winner();
  }
  ++totals.trials;
  totals.trial_us += micros(trial_start, Clock::now());
  return result;
}

void add_times(LayerTotals& into, const LayerTotals& from) {
  into.decide_us += from.decide_us;
  into.observe_us += from.observe_us;
  into.census_us += from.census_us;
  into.env_step_us += from.env_step_us;
  into.pairing_us += from.pairing_us;
  into.trial_us += from.trial_us;
  into.trials += from.trials;
  into.rounds += from.rounds;
}

}  // namespace

bool same_result(const hh::core::RunResult& a, const hh::core::RunResult& b) {
  return a.converged == b.converged && a.rounds == b.rounds &&
         a.rounds_executed == b.rounds_executed && a.winner == b.winner &&
         a.winner_quality == b.winner_quality &&
         a.total_recruitments == b.total_recruitments &&
         a.total_tandem_runs == b.total_tandem_runs &&
         a.total_transports == b.total_transports &&
         a.first_passage == b.first_passage;
}

bool replayable(const hh::analysis::Scenario& scenario, std::string* why) {
  const hh::core::SimulationConfig& c = scenario.config;
  const auto spec =
      hh::core::AlgorithmRegistry::instance().find(scenario.algorithm);
  const char* gap = nullptr;
  if (!spec || !spec->pack) {
    gap = "the algorithm has no packed engine";
  } else if (c.engine == hh::core::EngineKind::kScalar) {
    gap = "the scenario forces the scalar engine";
  } else if (c.env_backend != hh::env::BackendKind::kHomeNest) {
    gap = "only the home-nest world is replayed";
  } else if (c.noise.any() || c.faults.any() || c.skip_probability > 0.0) {
    gap = "noise, faults and partial synchrony take unreplayed branches";
  }
  if (gap != nullptr && why != nullptr) *why = gap;
  return gap == nullptr;
}

void trace_scenarios(const std::vector<hh::analysis::Scenario>& scenarios,
                     const std::vector<std::uint64_t>& seeds, double seconds,
                     Result& result) {
  Verifier& verify = result.verify;
  std::vector<std::unique_ptr<TracedReplay>> replays(scenarios.size());
  std::vector<double> step_us;
  std::vector<double> setup_us;
  std::vector<double> reset_us;
  double untraced_us = 0.0;
  std::uint64_t untraced_trials = 0;
  LayerTotals all;
  LayerTotals first;
  LayerTotals second;
  const auto start = Clock::now();
  for (std::size_t cycle = 0; cycle < 2 || seconds_since(start) < seconds;
       ++cycle) {
    LayerTotals totals;
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      const hh::analysis::Scenario& scenario = scenarios[s];
      const auto built = Clock::now();
      const std::unique_ptr<hh::core::Simulation> sim =
          scenario.make_simulation(seeds.front());
      setup_us.push_back(micros(built, Clock::now()));
      if (!replays[s]) {
        replays[s] = std::make_unique<TracedReplay>(scenario, sim->max_rounds());
      }
      for (const std::uint64_t seed : seeds) {
        const auto t0 = Clock::now();
        const bool reset = sim->reset(seed);
        const auto t1 = Clock::now();
        const hh::core::RunResult plain = sim->run();
        untraced_us += micros(t0, Clock::now());
        ++untraced_trials;
        reset_us.push_back(micros(t0, t1));
        verify.check(reset && sim->packed(), scenario.name + ": packed reset");

        (void)sim->reset(seed);
        while (!sim->converged() && sim->round() < sim->max_rounds()) {
          const auto t = Clock::now();
          sim->step();
          step_us.push_back(micros(t, Clock::now()));
        }
        verify.check(same_result(sim->run(), plain),
                     scenario.name + ": stepped run equals run()");

        const ReplayResult replay = replays[s]->run(seed, totals);
        verify.check(reproduces(replay, plain),
                     scenario.name + ": traced replay reproduces run() for seed " +
                         std::to_string(seed));
        verify.check(replay.pairing_mismatches == 0,
                     scenario.name + ": replayed pairing equals last_pairing()");
      }
    }
    if (cycle == 0) first = totals;
    if (cycle == 1) second = totals;
    add_times(all, totals);
  }
  verify.check(first.same_counts(second),
               "exact counts repeat across two traced passes");

  const auto rounds = static_cast<double>(all.rounds);
  const double round_mean = mean_of(step_us);
  const double decide = all.decide_us / rounds;
  const double observe = all.observe_us / rounds;
  const double census = all.census_us / rounds;
  const double env_step = all.env_step_us / rounds;
  const double pairing = all.pairing_us / rounds;
  const std::size_t nr = all.rounds;
  result.add("core.round_us_p50", percentile_of(step_us, 50.0), "us", step_us.size());
  result.add("core.round_us_p99", percentile_of(step_us, 99.0), "us", step_us.size());
  result.add("core.round_us_mean", round_mean, "us", step_us.size());
  result.add("core.decide_us", decide, "us", nr);
  result.add("core.observe_us", observe, "us", nr);
  result.add("core.census_us", census, "us", nr);
  result.add("core.unattributed_share",
             (round_mean - (decide + observe + census + env_step)) / round_mean,
             "ratio", nr);
  result.add("core.setup_us", median_of(setup_us), "us", setup_us.size());
  result.add("core.reset_us", median_of(reset_us), "us", reset_us.size());
  result.add("env.round_us", env_step - pairing, "us", nr);
  result.add("env.pairing_us", pairing, "us", nr);

  // Exact counts, over the first pass (first.trials trials).
  const std::size_t nt = first.trials;
  result.add("core.rounds_per_trial",
             static_cast<double>(first.rounds) / static_cast<double>(nt),
             "count", nt);
  static constexpr const char* kShapes[] = {"all_search", "all_recruit",
                                            "all_go", "masked_recruit",
                                            "masked_go"};
  for (std::size_t i = 0; i < first.shapes.size(); ++i) {
    result.add(std::string("core.rounds_by_shape.") + kShapes[i],
               static_cast<double>(first.shapes[i]), "count", nt);
  }
  result.add("env.pairing_requests", static_cast<double>(first.pairing_requests),
             "count", nt);
  result.add("env.searches", static_cast<double>(first.searches), "count", nt);
  result.add("env.gos", static_cast<double>(first.gos), "count", nt);
  result.add("env.pairing_success_ratio",
             first.active_recruits == 0
                 ? 0.0
                 : static_cast<double>(first.successful_recruitments) /
                       static_cast<double>(first.active_recruits),
             "ratio", nt);

  const double traced_tps = static_cast<double>(all.trials) / (all.trial_us * 1e-6);
  const double untraced_tps =
      static_cast<double>(untraced_trials) / (untraced_us * 1e-6);
  result.add("trace.trials_per_s_traced", traced_tps, "1/s", all.trials);
  result.add("trace.trials_per_s_untraced", untraced_tps, "1/s", untraced_trials);
  result.add("trace.overhead_ratio", untraced_tps / traced_tps, "ratio",
             all.trials);
}

}  // namespace perfbench
