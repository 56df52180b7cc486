#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <span>
#include <thread>

#include "util/stats.hpp"

namespace perfbench {

void Verifier::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failed_ <= 10) std::fprintf(stderr, "verification failed: %s\n", what.c_str());
}

double median_of(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : hh::util::median(std::span<const double>(xs));
}

double percentile_of(const std::vector<double>& xs, double q) {
  return xs.empty() ? 0.0 : hh::util::percentile(std::span<const double>(xs), q);
}

double mean_of(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : hh::util::mean(std::span<const double>(xs));
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so it
  // would report the launching process's peak when that one was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

unsigned load_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace perfbench
