// The traced run's per-round split.
//
// Wall-clock spans stay out of src/core and src/env (the determinism
// rules), so the split comes from a replay: TracedReplay drives one trial
// through the same public calls Simulation::step_packed makes, in the same
// order — AntPack round_shape / decide / observe hooks, the
// HomeNestBackend::step_* entry points, AntPack::agreement_census and
// ConvergenceDetector::update — and times each call. The pairing layer
// runs inside the env step, so it is timed by replaying
// PairingModel::pair_active on the replay's own active mask with a
// shadow of the environment's RNG stream; the replayed matching must
// equal last_pairing() every round, and the replayed trial must equal
// Simulation::run's result, or the trace counts as failed.
#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/scenario.hpp"
#include "common.hpp"

namespace perfbench {

/// RunResult equality on every model output (engine and engine_fallback
/// are diagnostics that differ by design between engines).
[[nodiscard]] bool same_result(const hh::core::RunResult& a,
                               const hh::core::RunResult& b);

/// Whether `scenario` is inside the replay's scope (packed home-nest
/// engine, exact observation, no faults, full synchrony); `why` names the
/// first gap otherwise.
[[nodiscard]] bool replayable(const hh::analysis::Scenario& scenario,
                              std::string* why);

/// Per-layer metrics for `scenarios`: for each trace cycle, every
/// scenario runs each of its seeds three ways — plain Simulation::run
/// (untraced), Simulation::step() timed per call (core.round_us_*), and
/// the traced replay (the layer split). Cycles repeat until `seconds` have
/// passed, at least twice; the exact counts come from the first cycle and
/// must repeat bit-for-bit in the second. Adds the core.*, env.* and
/// trace.* metrics to `result` and records every check in its verifier.
void trace_scenarios(const std::vector<hh::analysis::Scenario>& scenarios,
                     const std::vector<std::uint64_t>& seeds, double seconds,
                     Result& result);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_HPP
