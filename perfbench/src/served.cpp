// The served-sweep workload: an in-process anthill-serve (Runner workers =
// hardware threads) and one client connection over loopback TCP.
//
// Per-cell colony work is small (n <= 256), so the arena, store, spec
// codec and protocol costs show. The client submits kColdSpecs distinct
// one-sweep specs cold (fresh keys: the server runs and stores every
// cell), then resubmits the whole experiment — one spec holding all those
// sweeps — in a closed loop: one request in flight, the next sent when the
// previous job is done, and every warm job must be served entirely from
// the store. Cold writes the store and warm only reads it, so a change
// that trades one for the other shows on one of the two figures. A warm
// job reads every stored cell, so its per-cell work (key derivation,
// store lookups, aggregation, row encoding) outweighs its three job-record
// file writes, whose latency swings with the host's disk load.
#include <sched.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/result_store.hpp"
#include "analysis/runner.hpp"
#include "analysis/spec.hpp"
#include "common.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "trace.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using hh::analysis::ExperimentSpec;
using Rows = std::vector<std::vector<double>>;

/// Distinct cold submissions per run (a fixed number, so the store every
/// warm job reads has the same size on every run).
constexpr std::size_t kColdSpecs = 8;
constexpr std::size_t kTrialsPerScenario = 400;  // 18 scenarios: 7200 cells
/// Floor on warm submissions: p90 then has at least ten samples beyond it.
constexpr std::size_t kMinWarm = 100;
/// Set-up repetitions (daemon restart over the cold jobs' store: server
/// start + store open + connect); setup_s is their median.
constexpr int kSetups = 15;
/// Traced run: trials per scenario for the Runner-arena probe, and the
/// repetitions behind the codec / store-open medians.
constexpr std::size_t kArenaTrials = 20;
constexpr int kCodecReps = 200;
constexpr int kStoreOpens = 5;

/// Sweep `index`: simple + quorum x n {64, 128, 256} x k {4, 8, 16} (half
/// the nests bad), base seed from the benchmark seed. Cold submission
/// `index` is this sweep alone; the warm spec holds all of them.
hh::analysis::SweepEntry served_sweep(std::uint64_t seed, std::size_t index) {
  hh::analysis::SweepEntry entry;
  entry.name = "served-" + std::to_string(index);
  entry.trials = kTrialsPerScenario;
  entry.base_seed = hh::util::mix_seed(seed, index, 0x5E7);
  entry.sweep = hh::analysis::SweepSpec(entry.name)
                    .algorithms({hh::core::AlgorithmKind::kSimple,
                                 hh::core::AlgorithmKind::kQuorum})
                    .colony_sizes({64, 128, 256})
                    .nest_counts({4, 8, 16}, 0.5);
  return entry;
}

/// The wire form of a tidy table: equal strings mean byte-equal CSVs.
std::string wire_rows(const Rows& rows) {
  return hh::util::dump_json(hh::service::rows_to_json(rows));
}

/// A running server plus its connections: the library client, and in
/// traced runs a raw protocol connection so every event gets a timestamp.
struct Service {
  std::unique_ptr<hh::service::Server> server;
  std::unique_ptr<hh::service::Client> client;
  hh::util::net::Socket raw;
  std::unique_ptr<hh::util::net::LineReader> raw_reader;
};

/// Start a server on `store_dir` (it opens and indexes whatever the store
/// holds), connect, and ping; false when any step fails.
bool start_service(Service& service, const fs::path& store_dir,
                   unsigned threads, bool raw) {
  hh::service::ServerOptions options;
  options.store_dir = store_dir.string();
  options.threads = threads;
  service.server = std::make_unique<hh::service::Server>(options);
  service.server->start();
  service.client = std::make_unique<hh::service::Client>(
      hh::service::Client::connect("127.0.0.1", service.server->port()));
  bool up = service.client->connected() && service.client->ping();
  if (raw) {
    service.raw = hh::util::net::Socket::connect_tcp("127.0.0.1",
                                                     service.server->port());
    service.raw_reader = std::make_unique<hh::util::net::LineReader>(service.raw);
    std::string hello;
    up = up && service.raw.valid() && service.raw_reader->next_line(hello);
  }
  return up;
}

void stop_service(Service& service) {
  if (service.client && service.client->connected()) {
    (void)service.client->shutdown_server();
  }
  service.raw_reader.reset();
  service.raw = hh::util::net::Socket{};
  service.client.reset();
  service.server.reset();  // request_stop + join
}

/// Restricts the calling thread, and every thread it starts while the
/// object lives, to the CPU it is running on; restores the old mask at
/// destruction. The warm loop is one job in flight handed between the
/// client, session and scheduler threads: on one CPU those hand-offs are
/// context switches, not cross-CPU wake-ups, whose cost on a virtual
/// machine swings with the host's load.
class PinnedToOneCpu {
 public:
  PinnedToOneCpu() {
    pinned_ = sched_getaffinity(0, sizeof(saved_), &saved_) == 0;
    const int cpu = sched_getcpu();
    if (!pinned_ || cpu < 0) {
      pinned_ = false;
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinnedToOneCpu() {
    if (pinned_) (void)sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinnedToOneCpu(const PinnedToOneCpu&) = delete;
  PinnedToOneCpu& operator=(const PinnedToOneCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// One sweep's tidy table as a job returned it.
struct Table {
  std::vector<std::string> header;
  Rows rows;
};

/// What one submission returned, from either path.
struct Job {
  bool ok = false;
  double ms = 0.0;  ///< submit -> job_done
  std::size_t cells_total = 0;
  std::size_t cached = 0;
  std::size_t run = 0;
  std::vector<Table> tables;  ///< one per sweep, in spec order
};

Job from_client(const hh::service::JobOutcome& outcome, double ms) {
  Job job{outcome.ok, ms, outcome.cells_total, outcome.cached, outcome.run, {}};
  for (const hh::service::SweepResult& sweep : outcome.sweeps) {
    job.tables.push_back({sweep.csv_header, sweep.rows});
  }
  return job;
}

/// True when `tables` equal `expected` header for header and byte for byte.
bool same_tables(const std::vector<Table>& tables,
                 const std::vector<const Table*>& expected) {
  if (tables.size() != expected.size()) return false;
  for (std::size_t i = 0; i < tables.size(); ++i) {
    if (tables[i].header != expected[i]->header ||
        wire_rows(tables[i].rows) != wire_rows(expected[i]->rows)) {
      return false;
    }
  }
  return true;
}

/// A job over the raw protocol path, with a timestamp per event.
struct RawJob {
  Job job;
  double accept_ms = -1.0;          ///< submit -> accepted
  double first_progress_ms = -1.0;  ///< submit -> first progress
  std::size_t events = 0;           ///< job events (heartbeats excluded)
};

std::size_t size_field(const hh::util::Json& body, const char* key) {
  const hh::util::Json* v = body.find(key);
  return v != nullptr && v->is_number() ? static_cast<std::size_t>(v->as_number())
                                        : 0;
}

RawJob raw_submit(hh::util::net::Socket& socket,
                  hh::util::net::LineReader& reader, const ExperimentSpec& spec) {
  RawJob raw;
  Job& job = raw.job;
  hh::service::Request request;
  request.op = hh::service::Request::Op::kSubmit;
  request.spec = spec;
  const auto start = Clock::now();
  if (!socket.send_all(hh::service::encode_request(request) + "\n")) return raw;
  std::string line;
  while (reader.next_line(line)) {
    const double at_ms = micros(start, Clock::now()) * 1e-3;
    const hh::service::Event event = hh::service::parse_event(line);
    if (event.kind == "hb") continue;
    ++raw.events;
    if (event.kind == "accepted") {
      raw.accept_ms = at_ms;
    } else if (event.kind == "progress") {
      if (raw.first_progress_ms < 0.0) raw.first_progress_ms = at_ms;
    } else if (event.kind == "sweep_done") {
      Table& table = job.tables.emplace_back();
      if (const hh::util::Json* h = event.body.find("csv_header")) {
        table.header = hh::service::strings_from_json(*h);
      }
      if (const hh::util::Json* r = event.body.find("rows")) {
        table.rows = hh::service::rows_from_json(*r);
      }
    } else if (event.kind == "job_done") {
      job.ok = true;
      job.ms = at_ms;
      job.cells_total = size_field(event.body, "cells_total");
      job.cached = size_field(event.body, "cached");
      job.run = size_field(event.body, "run");
      return raw;
    } else if (event.kind == "error" || event.kind == "canceled" ||
               event.kind == "interrupted") {
      return raw;
    }
  }
  return raw;
}

std::uintmax_t shard_bytes(const fs::path& dir) {
  std::uintmax_t bytes = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().extension() == ".hhrs") {
      bytes += e.file_size();
    }
  }
  return bytes;
}

/// Traced-only analysis probes: TrialArena at the served colony sizes,
/// the spec and row codecs, and the store the cold jobs wrote.
void analysis_probes(const std::vector<ExperimentSpec>& specs,
                     const Rows& rows, const fs::path& store_dir,
                     Result& result) {
  Verifier& verify = result.verify;
  const hh::analysis::SweepEntry& entry = specs.front().sweeps.front();
  const std::vector<hh::analysis::Scenario> scenarios = entry.expand();

  // TrialArena::run, scenario-major like a Runner worker's block.
  hh::analysis::TrialArena arena;
  std::vector<double> cell_us;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    for (std::size_t t = 0; t < kArenaTrials; ++t) {
      const auto start = Clock::now();
      (void)arena.run(scenarios[s], hh::analysis::trial_seed(entry.base_seed, s, t));
      cell_us.push_back(micros(start, Clock::now()));
    }
  }
  result.add("analysis.cell_us", mean_of(cell_us), "us", cell_us.size());
  result.add("analysis.arena_reuse_ratio",
             static_cast<double>(arena.resets()) /
                 static_cast<double>(arena.resets() + arena.builds()),
             "ratio", cell_us.size());

  std::vector<double> spec_us;
  std::vector<double> row_us;
  for (int i = 0; i < kCodecReps; ++i) {
    auto start = Clock::now();
    const ExperimentSpec parsed = hh::analysis::parse_experiment_spec(
        hh::analysis::dump_experiment_spec(specs.front(), 0));
    spec_us.push_back(micros(start, Clock::now()));
    verify.check(parsed.sweeps.size() == 1 &&
                     parsed.sweeps[0].base_seed == entry.base_seed,
                 "spec codec round trip");
    start = Clock::now();
    const Rows back =
        hh::service::rows_from_json(hh::service::rows_to_json(rows));
    row_us.push_back(micros(start, Clock::now()));
    verify.check(wire_rows(back) == wire_rows(rows), "row codec round trip");
  }
  result.add("analysis.spec_codec_us", median_of(spec_us), "us", spec_us.size());
  result.add("service.row_codec_us", median_of(row_us), "us", row_us.size());

  // The store as the cold jobs left it: open it read-only (this probe
  // never opens a shard), then look up every cell of every cold spec.
  std::vector<double> open_ms;
  std::unique_ptr<hh::analysis::ResultStore> store;
  for (int i = 0; i < kStoreOpens; ++i) {
    const auto start = Clock::now();
    store = std::make_unique<hh::analysis::ResultStore>(store_dir, "probe");
    open_ms.push_back(micros(start, Clock::now()) * 1e-3);
  }
  std::vector<hh::analysis::TrialKey> keys;
  for (const ExperimentSpec& spec : specs) {
    const hh::analysis::SweepEntry& e = spec.sweeps.front();
    const std::vector<hh::analysis::Scenario> cells = e.expand();
    for (std::size_t s = 0; s < cells.size(); ++s) {
      const std::uint64_t fp = hh::analysis::scenario_fingerprint(cells[s]);
      for (std::size_t t = 0; t < e.trials; ++t) {
        keys.push_back({fp, hh::analysis::trial_seed(e.base_seed, s, t),
                        static_cast<std::uint32_t>(t)});
      }
    }
  }
  std::size_t hits = 0;
  const auto start = Clock::now();
  for (const hh::analysis::TrialKey& key : keys) hits += store->find(key) ? 1 : 0;
  const double find_ns = micros(start, Clock::now()) * 1e3 /
                         static_cast<double>(keys.size());
  verify.check(hits == keys.size(), "every cold cell is in the store");
  result.add("analysis.store_open_ms", median_of(open_ms), "ms", open_ms.size());
  result.add("analysis.store_find_ns", find_ns, "ns", keys.size());
  result.add("analysis.store_bytes_per_record",
             static_cast<double>(shard_bytes(store_dir)) /
                 static_cast<double>(store->size()),
             "bytes", store->size());
}

}  // namespace

void run_served_workload(const Options& options, Result& result) {
  Verifier& verify = result.verify;
  const unsigned threads = load_threads();

  const fs::path store_dir = options.work_dir / "store";
  Service service;
  const bool up = start_service(service, store_dir, threads, options.trace);
  verify.check(up, "service start on a fresh store");
  if (!up) return;

  std::vector<double> accept_ms;
  std::vector<double> queue_wait_ms;
  std::vector<double> warm_events;
  const auto submit = [&](const ExperimentSpec& spec) {
    if (options.trace) {
      RawJob raw = raw_submit(service.raw, *service.raw_reader, spec);
      if (raw.job.ok && raw.job.cached == raw.job.cells_total) {
        accept_ms.push_back(raw.accept_ms);
        queue_wait_ms.push_back(raw.first_progress_ms - raw.accept_ms);
        warm_events.push_back(static_cast<double>(raw.events));
      }
      return std::move(raw.job);
    }
    const auto start = Clock::now();
    const hh::service::JobOutcome outcome = service.client->submit(spec);
    return from_client(outcome, micros(start, Clock::now()) * 1e-3);
  };

  // Cold: kColdSpecs one-sweep specs back to back. Warm: a closed loop of
  // one spec holding all those sweeps, so every warm job reads the whole
  // store; it runs to the end of --seconds, and for at least half of it.
  std::vector<ExperimentSpec> specs;
  std::vector<Job> colds;
  std::vector<double> cold_rate;
  ExperimentSpec warm_spec;
  warm_spec.name = "perfbench-served";
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kColdSpecs; ++i) {
    ExperimentSpec& spec = specs.emplace_back();
    spec.name = "perfbench-served-" + std::to_string(i);
    spec.sweeps.push_back(served_sweep(options.seed, i));
    warm_spec.sweeps.push_back(spec.sweeps.front());
    Job cold = submit(spec);
    verify.check(cold.ok && cold.run == cold.cells_total && cold.cached == 0 &&
                     cold.cells_total > 0 && cold.tables.size() == 1,
                 "cold job " + std::to_string(i) + " runs every cell");
    cold_rate.push_back(static_cast<double>(cold.cells_total) / (cold.ms * 1e-3));
    colds.push_back(std::move(cold));
  }

  // Set-up: restart the daemon over the store the cold jobs populated
  // (server start, which indexes every shard and job record, + connect +
  // ping); the last restart serves the warm loop.
  std::vector<double> setup_s;
  std::optional<PinnedToOneCpu> pinned;
  pinned.emplace();
  for (int i = 0; i < kSetups; ++i) {
    stop_service(service);
    const auto restart = Clock::now();
    const bool restarted = start_service(service, store_dir, threads, options.trace);
    setup_s.push_back(seconds_since(restart));
    verify.check(restarted, "service restart over the populated store");
    if (!restarted) return;
  }

  std::vector<const Table*> cold_tables;
  for (const Job& cold : colds) {
    if (!cold.tables.empty()) cold_tables.push_back(&cold.tables.front());
  }
  std::vector<double> warm_ms;
  std::vector<double> hit_ratio;
  const auto warm_start = Clock::now();
  for (std::size_t j = 0; warm_ms.size() < kMinWarm ||
                          seconds_since(start) < options.seconds ||
                          seconds_since(warm_start) < options.seconds * 0.5;
       ++j) {
    const Job job = submit(warm_spec);
    const bool served = job.ok && job.cells_total > 0;
    verify.check(served && job.cached == job.cells_total && job.run == 0 &&
                     same_tables(job.tables, cold_tables),
                 "warm job " + std::to_string(j) +
                     " is fully cached and equals the cold rows");
    if (!served) break;
    warm_ms.push_back(job.ms);
    hit_ratio.push_back(static_cast<double>(job.cached) /
                        static_cast<double>(job.cells_total));
  }
  stop_service(service);
  pinned.reset();

  // Cold rows must byte-equal a direct Runner::run of the same spec.
  const hh::analysis::Runner runner(hh::analysis::RunnerOptions{threads});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const hh::analysis::SweepEntry& entry = specs[i].sweeps.front();
    const hh::analysis::BatchResult direct =
        runner.run(entry.expand(), entry.trials, entry.base_seed);
    const Table table{direct.tidy_csv_header(), direct.tidy_rows()};
    verify.check(same_tables(colds[i].tables, {&table}),
                 "cold job " + std::to_string(i) +
                     " rows equal a direct Runner::run");
  }

  if (!options.trace) {
    result.add("throughput_per_s", median_of(cold_rate), "1/s", cold_rate.size());
    result.add("latency_ms_p50", percentile_of(warm_ms, 50.0), "ms", warm_ms.size());
    result.add("latency_ms_p90", percentile_of(warm_ms, 90.0), "ms", warm_ms.size());
    result.add("setup_s", median_of(setup_s), "s", setup_s.size());
    result.add("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    return;
  }

  result.add("service.accept_ms", median_of(accept_ms), "ms", accept_ms.size());
  result.add("service.queue_wait_ms", median_of(queue_wait_ms), "ms",
             queue_wait_ms.size());
  result.add("service.events_per_submit", mean_of(warm_events), "count",
             warm_events.size());
  result.add("analysis.store_hit_ratio", mean_of(hit_ratio), "ratio",
             hit_ratio.size());
  if (cold_tables.size() != specs.size()) return;  // already failed
  analysis_probes(specs, cold_tables.front()->rows, store_dir, result);

  // The core/env split at the served colony sizes: one traced trial seed
  // per scenario of the first cold spec.
  const hh::analysis::SweepEntry& entry = specs.front().sweeps.front();
  const std::vector<hh::analysis::Scenario> scenarios = entry.expand();
  for (const hh::analysis::Scenario& s : scenarios) {
    std::string why;
    verify.check(replayable(s, &why), s.name + " replay scope: " + why);
  }
  trace_scenarios(scenarios, {hh::analysis::trial_seed(entry.base_seed, 0, 0)},
                  options.seconds * 0.25, result);
}

}  // namespace perfbench
