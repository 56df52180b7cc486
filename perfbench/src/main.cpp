// perfbench — the repository benchmark (README.md in this directory).
//
//   perfbench --workload <simple-uniform|optimal-masked|served-sweep>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Prints a human-readable report, then one JSON record line with the host
// tag and per-metric sample counts, then the result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when any output check fails, 2 on bad arguments.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <unistd.h>

#include "analysis/manifest.hpp"
#include "common.hpp"
#include "util/json.hpp"

namespace perfbench {
namespace {

struct MetricDecl {
  const char* name;
  const char* unit;
};

// The metric sets BENCHMARK.json declares, in its order.
constexpr MetricDecl kEndToEnd[] = {
    {"throughput_per_s", "1/s"}, {"latency_ms_p50", "ms"},
    {"latency_ms_p90", "ms"},    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDecl kPerLayer[] = {
    {"core.round_us_p50", "us"},
    {"core.round_us_p99", "us"},
    {"core.round_us_mean", "us"},
    {"core.decide_us", "us"},
    {"core.observe_us", "us"},
    {"core.census_us", "us"},
    {"core.unattributed_share", "ratio"},
    {"core.setup_us", "us"},
    {"core.reset_us", "us"},
    {"core.rounds_per_trial", "count"},
    {"core.rounds_by_shape.all_search", "count"},
    {"core.rounds_by_shape.all_recruit", "count"},
    {"core.rounds_by_shape.all_go", "count"},
    {"core.rounds_by_shape.masked_recruit", "count"},
    {"core.rounds_by_shape.masked_go", "count"},
    {"env.round_us", "us"},
    {"env.pairing_us", "us"},
    {"env.pairing_requests", "count"},
    {"env.searches", "count"},
    {"env.gos", "count"},
    {"env.pairing_success_ratio", "ratio"},
    {"analysis.cell_us", "us"},
    {"analysis.arena_reuse_ratio", "ratio"},
    {"analysis.store_open_ms", "ms"},
    {"analysis.store_find_ns", "ns"},
    {"analysis.store_hit_ratio", "ratio"},
    {"analysis.store_bytes_per_record", "bytes"},
    {"analysis.spec_codec_us", "us"},
    {"service.accept_ms", "ms"},
    {"service.queue_wait_ms", "ms"},
    {"service.events_per_submit", "count"},
    {"service.row_codec_us", "us"},
    {"trace.trials_per_s_traced", "1/s"},
    {"trace.trials_per_s_untraced", "1/s"},
    {"trace.overhead_ratio", "ratio"},
};

/// What a generic end-to-end metric measures on `workload` (the report
/// prints it next to the value; README.md has the table).
const char* meaning(const std::string& workload, const std::string& metric) {
  const bool served = workload == "served-sweep";
  if (metric == "throughput_per_s") return served ? "cold_cells_per_s" : "trials_per_s";
  if (metric == "latency_ms_p50") return served ? "warm_submit_ms_p50" : "trial_ms_p50";
  if (metric == "latency_ms_p90") return served ? "warm_submit_ms_p90" : "trial_ms_p90";
  return "";
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<simple-uniform|optimal-masked|served-sweep> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string_view value = argv[++i];
    const auto parse_u64 = [&](std::uint64_t& out) {
      const auto [end, ec] = std::from_chars(value.data(), value.data() + value.size(), out);
      if (ec != std::errc{} || end != value.data() + value.size()) usage("bad number");
    };
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      parse_u64(options.seed);
    } else if (flag == "--seconds") {
      std::uint64_t s = 0;
      parse_u64(s);
      if (s < 1 || s > 600) usage("--seconds must be in [1, 600]");
      options.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = std::string(value);
    } else {
      usage("unknown flag");
    }
  }
  if (!have_workload) usage("--workload is required");
  if (options.work_dir.empty()) {
    options.work_dir =
        std::filesystem::path(".bench_build") / ("perfbench-run-" + std::to_string(getpid()));
  }
  return options;
}

hh::util::Json host_tag() {
  hh::util::Json host;
  host.set("nproc", load_threads());
  host.set("compiler", PERFBENCH_COMPILER);
  host.set("build_type", PERFBENCH_BUILD_TYPE);
  host.set("git_sha", hh::analysis::build_git_sha());
  return host;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse_args(argc, argv);
  const bool served = options.workload == "served-sweep";
  if (!served && !is_colony_workload(options.workload)) usage("unknown workload");

  Result result;
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  try {
    if (served) {
      run_served_workload(options, result);
    } else {
      run_colony_workload(options, result);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    std::filesystem::remove_all(options.work_dir, ec);
    return 1;
  }
  std::filesystem::remove_all(options.work_dir, ec);

  // Every declared metric of the requested set is reported; a per-layer
  // metric the workload does not exercise reads 0 (see the notes), a
  // missing end-to-end metric is a failure.
  hh::util::Json metrics;
  hh::util::Json record_metrics;
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const MetricDecl& decl : options.trace ? std::span<const MetricDecl>(kPerLayer)
                                              : std::span<const MetricDecl>(kEndToEnd)) {
    const Metric* found = nullptr;
    for (const Metric& m : result.metrics) {
      if (m.name == decl.name) found = &m;
    }
    if (found == nullptr && !options.trace) {
      result.verify.check(false, std::string("end-to-end metric measured: ") + decl.name);
    }
    if (found != nullptr && found->unit != decl.unit) {
      result.verify.check(false, std::string("declared unit of ") + decl.name);
    }
    const Metric m = found != nullptr ? *found : Metric{decl.name, 0.0, decl.unit, 0};
    std::printf("  %-40s %14.6g %-6s n=%-8zu %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, meaning(options.workload, m.name));
    hh::util::Json value;
    value.set("value", m.value);
    value.set("unit", m.unit);
    metrics.set(m.name, value);
    value.set("samples", static_cast<double>(m.samples));
    record_metrics.set(m.name, value);
  }
  const std::uint64_t attempted = result.verify.attempted();
  const std::uint64_t failed = result.verify.failed();
  const bool correct = failed == 0 && attempted > 0;
  const double failed_frac =
      attempted == 0 ? 1.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  std::printf("  %-40s %14.6g %-6s n=%-8llu (checks failed / checks made)\n",
              "failed_frac", failed_frac, "ratio",
              static_cast<unsigned long long>(attempted));
  for (const std::string& note : result.notes) std::printf("  note: %s\n", note.c_str());

  hh::util::Json record;
  record.set("workload", options.workload);
  record.set("seed", std::to_string(options.seed));
  record.set("trace", options.trace);
  record.set("host", host_tag());
  record.set("failed_frac", failed_frac);
  record.set("metrics", record_metrics);
  hh::util::Json record_line;
  record_line.set("record", record);
  std::printf("%s\n", hh::util::dump_json(record_line).c_str());

  hh::util::Json line;
  line.set("correct", correct);
  line.set("attempted", static_cast<double>(attempted));
  line.set("failed", static_cast<double>(failed));
  line.set("metrics", metrics);
  std::printf("%s\n", hh::util::dump_json(line).c_str());
  return correct ? 0 : 1;
}
