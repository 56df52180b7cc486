// Shared plumbing of the repository benchmark: run options, the result
// record every workload fills, sample statistics, and the verification
// ledger behind `attempted`/`failed`.
#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] inline double micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Command-line options (main.cpp parses them).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for this run (result stores); removed at exit.
  std::filesystem::path work_dir;
};

/// One reported figure. `samples` is how many measurements the value
/// summarizes (printed in the report and record lines; the result line
/// carries value and unit only).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Counts verified operations; every failed check also prints its reason
/// (the first few) to stderr.
class Verifier {
 public:
  void check(bool ok, const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// What one workload run produced.
struct Result {
  Verifier verify;
  std::vector<Metric> metrics;
  /// Free-form remarks for the report (e.g. layers this workload does not
  /// touch).
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit,
           std::size_t samples) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
};

/// Median, and the q-th percentile (q in [0, 100], linear interpolation).
[[nodiscard]] double median_of(const std::vector<double>& xs);
[[nodiscard]] double percentile_of(const std::vector<double>& xs, double q);
[[nodiscard]] double mean_of(const std::vector<double>& xs);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Worker threads the load may use: hardware threads, at least 1.
[[nodiscard]] unsigned load_threads();

// Workloads (colony.cpp, served.cpp).
[[nodiscard]] bool is_colony_workload(const std::string& name);
void run_colony_workload(const Options& options, Result& result);
void run_served_workload(const Options& options, Result& result);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_HPP
