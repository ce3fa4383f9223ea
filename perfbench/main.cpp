// dearbench — the repository benchmark.
//
//   dearbench --workload <brake_long|short_campaigns|fault_campaign|all>
//             --seed <n> --seconds <s> --trace <0|1> [--plant-wrong-pin]
//
// ("all" runs the three; fault_campaign_stuck, outside the benchmark,
// reproduces a known defect.)
//
// --trace 0 measures the end-to-end metrics with tracing and metrics off:
// campaigns of the workload's scenario list run back to back through
// CampaignRunner::run (closed loop: the next campaign starts when the
// previous report returns). The timed section is split into blocks; with
// several workloads ("all") each block runs them in an order rotated by
// one, so in-process drift shows as a spread between blocks.
// --trace 1 runs the layer-by-layer pass instead (layers.cpp).
//
// setup_s is the cold set-up a user waits for: from process start to the
// first timed campaign (spec generation and one warm-up campaign, worker
// spawn and pool warm-up included). Each sample is a fresh child process
// (--setup-only), so no sample runs on pools or caches warmed by another.
//
// Every invocation also re-checks, outside the timed sections, the
// workload's digests pinned at the default seed and the repository's
// determinism anchors. Any mismatch marks the result incorrect and the
// exit code non-zero. The last line of stdout is the result object;
// the line before it carries run metadata and per-block spreads.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "layers.hpp"
#include "scenario/runner.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace sc = dear::scenario;

/// Timed blocks per run; the reported value of each metric is the median
/// over blocks, and the metadata line carries min/median/max.
constexpr int kBlocks = 9;
/// Cold set-ups per workload, each in a fresh process; setup_s is the
/// median.
constexpr int kSetups = 5;

/// Process start, as near as main() can take it.
Clock::time_point g_start;

struct Args {
  std::string workload;
  std::uint64_t seed{kDefaultSeed};
  double seconds{10.0};
  bool trace{false};
  bool plant_wrong_pin{false};
  bool setup_only{false};
  std::string source_rev{"unknown"};
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--plant-wrong-pin") {
      args.plant_wrong_pin = true;
      continue;
    }
    if (flag == "--setup-only") {
      args.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "--trace takes 0 or 1\n");
        return false;
      }
    } else if (flag == "--source-rev") {
      args.source_rev = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad number for %s: %s\n", flag.c_str(), value.c_str());
      return false;
    }
  }
  if (args.workload.empty() || !(args.seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: dearbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>\n");
    return false;
  }
  return true;
}

/// Accumulates correctness over a whole invocation.
struct Verdict {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> failures;

  void add(const Check& check) {
    attempted += check.attempted;
    failed += check.failed;
    std::fprintf(stderr, "  %-34s %s  %s\n", check.name.c_str(), check.ok ? "ok  " : "FAIL",
                 check.detail.c_str());
    if (!check.ok) {
      failures.push_back(check.name + ": " + check.detail);
    }
  }
  [[nodiscard]] bool correct() const { return failed == 0 && failures.empty(); }
};

struct Block {
  std::vector<double> frame_ns;
  std::vector<double> campaign_ms;
  double wall_s{0.0};
  std::size_t scenarios{0};
};

/// One workload's state across setup and the timed blocks.
struct WorkloadRun {
  const WorkloadDef* def{nullptr};
  std::size_t workers{1};
  std::vector<sc::ScenarioSpec> specs;
  std::vector<double> setup_s;
  /// Every campaign must reproduce the first warm-up campaign row by row.
  Reproduction reproduction;
  std::uint64_t report_digest{0};
  std::vector<Block> blocks;
  Usage usage;
  std::uint64_t campaigns{0};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
};

/// Returns the rows of `report` that sit in a violated digest group or do
/// not reproduce the first campaign of the run.
std::uint64_t verify(WorkloadRun& run, const sc::CampaignReport& report) {
  if (run.campaigns++ == 0) {
    run.report_digest = report.report_digest();
  }
  std::uint64_t failed = violated_members(report);
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    failed += run.reproduction.add(i, report.results[i].outcome) ? 0 : 1;
  }
  run.attempted += report.results.size();
  return std::min<std::uint64_t>(failed, report.results.size());
}

/// One campaign of the workload's scenario list; `wall_s` is the time from
/// the call to the returned report.
sc::CampaignReport run_campaign(const WorkloadRun& run, std::uint64_t seed, double& wall_s) {
  std::vector<sc::ScenarioSpec> specs = run.specs;
  sc::RunnerOptions options;
  options.workers = run.workers;
  const sc::CampaignRunner runner(options);
  const auto start = Clock::now();
  sc::CampaignReport report = runner.run(run.def->name, std::move(specs), seed);
  wall_s = seconds_since(start);
  return report;
}

/// Runs `--setup-only` for `workload` in a fresh child process and returns
/// the set-up seconds it prints, or a negative value if it failed.
double cold_setup_seconds(const std::string& workload, std::uint64_t seed) {
  char exe[4096];
  const ssize_t length = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (length <= 0) {
    return -1.0;
  }
  exe[length] = '\0';
  const std::string seed_text = std::to_string(seed);
  std::vector<std::string> words = {exe,         "--setup-only", "--workload", workload,
                                    "--seed",    seed_text,      "--seconds",  "1",
                                    "--trace",   "0"};
  std::vector<char*> argv;
  for (std::string& word : words) {
    argv.push_back(word.data());
  }
  argv.push_back(nullptr);
  int fds[2];
  if (pipe(fds) != 0) {
    return -1.0;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, exe, &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buffer[256];
  ssize_t n = 0;
  while ((n = read(fds[0], buffer, sizeof(buffer))) > 0) {
    out.append(buffer, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  if (spawned != 0) {
    return -1.0;
  }
  int status = 0;
  pid_t waited = 0;
  do {
    waited = waitpid(pid, &status, 0);
  } while (waited < 0 && errno == EINTR);
  if (waited != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return -1.0;
  }
  char* end = nullptr;
  const double seconds = std::strtod(out.c_str(), &end);
  return end != out.c_str() ? seconds : -1.0;
}

/// The set-up a cold set-up sample measures: spec generation and one
/// warm-up campaign. Prints the seconds since process start.
int run_setup_only(const Args& args) {
  WorkloadRun run;
  run.def = find_workload(args.workload);
  run.workers = campaign_workers();
  run.specs = expand(*run.def, args.seed);
  double wall_s = 0.0;
  (void)run_campaign(run, args.seed, wall_s);
  std::printf("%.9g\n", seconds_since(g_start));
  return 0;
}

/// Cold set-up samples, then the run's own warm-up campaign.
bool setup(WorkloadRun& run, std::uint64_t seed) {
  for (int i = 0; i < kSetups; ++i) {
    const double seconds = cold_setup_seconds(run.def->name, seed);
    if (seconds < 0.0) {
      std::fprintf(stderr, "cold set-up of %s failed\n", run.def->name);
      return false;
    }
    run.setup_s.push_back(seconds);
  }
  run.specs = expand(*run.def, seed);
  double wall_s = 0.0;
  const sc::CampaignReport warmup = run_campaign(run, seed, wall_s);
  run.failed += verify(run, warmup);
  return true;
}

void run_block(WorkloadRun& run, std::uint64_t seed, double seconds) {
  Block block;
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  do {
    double wall = 0.0;
    const sc::CampaignReport report = run_campaign(run, seed, wall);
    block.wall_s += wall;
    block.campaign_ms.push_back(wall * 1e3);
    for (const sc::ScenarioResult& row : report.results) {
      block.frame_ns.push_back(row.wall_seconds * 1e9 / static_cast<double>(row.spec.frames));
    }
    block.scenarios += report.results.size();
    run.failed += verify(run, report);
  } while (Clock::now() < deadline);
  run.blocks.push_back(std::move(block));
}

struct Spread {
  double min{0.0};
  double median{0.0};
  double max{0.0};
};

Spread spread_of(const std::vector<double>& values) {
  Spread s;
  if (!values.empty()) {
    s.min = *std::min_element(values.begin(), values.end());
    s.max = *std::max_element(values.begin(), values.end());
    s.median = median(values);
  }
  return s;
}

std::string host_meta(const Args& args) {
  return JsonObject()
      .str("source_rev", args.source_rev)
      .str("compiler", DEARBENCH_COMPILER)
      .str("cxx_flags", DEARBENCH_CXX_FLAGS)
      .str("build_type", DEARBENCH_BUILD_TYPE)
      .str("cpu_model", cpu_model())
      .num("nproc", static_cast<double>(online_cpus()))
      .num("parallel_workers", static_cast<double>(parallel_workers()))
      .num("campaign_workers", static_cast<double>(campaign_workers()))
      .num("seed", static_cast<double>(args.seed))
      .num("default_seed", static_cast<double>(kDefaultSeed))
      .num("held_out_seed", static_cast<double>(kHeldOutSeed))
      .num("seconds", args.seconds)
      .str();
}

std::string usage_json(const Usage& usage) {
  return JsonObject()
      .num("cpu_s", usage.cpu_s)
      .num("voluntary_ctx_switches", usage.voluntary_switches)
      .num("involuntary_ctx_switches", usage.involuntary_switches)
      .num("minor_faults", usage.minor_faults)
      .str();
}

std::string metric_json(double value, const char* unit) {
  return JsonObject().num("value", value).str("unit", unit).str();
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::string& metrics) {
  std::printf("%s\n", JsonObject()
                          .boolean("correct", correct)
                          .num("attempted", static_cast<double>(std::max<std::uint64_t>(attempted, 1)))
                          .num("failed", static_cast<double>(failed))
                          .raw("metrics", metrics)
                          .str()
                          .c_str());
}

/// Runs the checks outside the timed sections (pins of each workload,
/// repository anchors), then prints the metadata line and the result line.
int finish(const Args& args, const std::vector<const WorkloadDef*>& defs, Verdict& verdict,
           JsonObject metrics, const std::string& detail) {
  for (const WorkloadDef* def : defs) {
    verdict.add(check_pins(*def, args.plant_wrong_pin));
  }
  for (const Check& check : check_anchors(parallel_workers())) {
    verdict.add(check);
  }
  const double failed_share =
      ratio(static_cast<double>(verdict.failed), static_cast<double>(verdict.attempted));
  if (!args.trace) {
    // failed_share reads 0 on a correct run; its complement is reported.
    metrics.raw("ok_share", metric_json(1.0 - failed_share, "ratio"));
  }
  std::printf("%s\n", JsonObject()
                          .raw("meta", JsonObject()
                                           .str("workload", args.workload)
                                           .boolean("trace", args.trace)
                                           .raw("host", host_meta(args))
                                           .raw("detail", detail)
                                           .num("failed_share", failed_share)
                                           .raw("failures", json_array(verdict.failures))
                                           .str())
                          .str()
                          .c_str());
  print_result(verdict.correct(), verdict.attempted, verdict.failed, metrics.str());
  return verdict.correct() ? 0 : 1;
}

int run_timed(const Args& args) {
  std::vector<WorkloadRun> runs;
  for (const WorkloadDef& def : workloads()) {
    if ((args.workload == "all" && def.benchmarked) || args.workload == def.name) {
      WorkloadRun run;
      run.def = &def;
      run.workers = campaign_workers();
      runs.push_back(std::move(run));
    }
  }
  for (WorkloadRun& run : runs) {
    if (!setup(run, args.seed)) {
      return 1;
    }
  }

  const HostTicks host_before = HostTicks::now();
  const double block_seconds = args.seconds / (kBlocks * static_cast<double>(runs.size()));
  for (int b = 0; b < kBlocks; ++b) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      WorkloadRun& run = runs[(i + static_cast<std::size_t>(b)) % runs.size()];
      const Usage before = Usage::now();
      run_block(run, args.seed, block_seconds);
      run.usage += Usage::now() - before;
    }
  }
  const double peak_rss = peak_rss_mib();
  // Host contention during the timed blocks, for reading noisy results.
  const double steal_share = HostTicks::now().steal_share_since(host_before);

  Verdict verdict;
  for (WorkloadRun& run : runs) {
    Check timed;
    timed.name = std::string("timed/") + run.def->name;
    timed.attempted = run.attempted;
    timed.failed = run.failed;
    timed.ok = run.failed == 0;
    timed.detail = std::to_string(run.campaigns) + " campaigns incl. warm-up, report_digest " +
                   hex64(run.report_digest) + " at seed " + std::to_string(args.seed) + ", " +
                   std::to_string(run.failed) + " of " + std::to_string(run.attempted) +
                   " scenario runs failed";
    verdict.add(timed);
  }

  JsonObject metrics;
  JsonObject spreads;
  JsonObject usages;
  for (WorkloadRun& run : runs) {
    std::map<std::string, std::vector<double>> per_block;
    for (const Block& block : run.blocks) {
      per_block["frame_ns_p50"].push_back(quantile(block.frame_ns, 0.5));
      per_block["frame_ns_p90"].push_back(quantile(block.frame_ns, 0.9));
      per_block["scenarios_per_s"].push_back(ratio(static_cast<double>(block.scenarios), block.wall_s));
      per_block["campaign_ms_p50"].push_back(quantile(block.campaign_ms, 0.5));
    }
    per_block["setup_s"] = run.setup_s;
    const std::string prefix = runs.size() > 1 ? std::string(run.def->name) + "." : "";
    const struct {
      const char* name;
      const char* unit;
    } e2e[] = {{"frame_ns_p50", "ns"},    {"frame_ns_p90", "ns"}, {"scenarios_per_s", "1/s"},
               {"campaign_ms_p50", "ms"}, {"setup_s", "s"}};
    for (const auto& metric : e2e) {
      const std::vector<double>& values = per_block[metric.name];
      const Spread s = spread_of(values);
      metrics.raw(prefix + metric.name, metric_json(s.median, metric.unit));
      JsonObject spread;
      spread.num("min", s.min).num("median", s.median).num("max", s.max);
      if (values.size() == kBlocks) {
        spread.raw("blocks", json_array(values));
      } else {
        spread.num("repeats", static_cast<double>(values.size()));
      }
      spreads.raw(prefix + metric.name, spread.str());
    }
    metrics.raw(prefix + "peak_rss_mib", metric_json(peak_rss, "MiB"));
    std::size_t samples = 0;
    for (const Block& block : run.blocks) {
      samples += block.frame_ns.size();
    }
    usages.raw(run.def->name, JsonObject()
                                  .num("workers", static_cast<double>(run.workers))
                                  .num("scenarios_per_campaign", static_cast<double>(run.specs.size()))
                                  .num("campaigns", static_cast<double>(run.campaigns))
                                  .num("scenario_samples", static_cast<double>(samples))
                                  .num("timed_failed", static_cast<double>(run.failed))
                                  .raw("rusage", usage_json(run.usage))
                                  .str());
  }

  std::vector<const WorkloadDef*> defs;
  for (const WorkloadRun& run : runs) {
    defs.push_back(run.def);
  }
  return finish(args, defs, verdict, metrics,
                JsonObject()
                    .num("host_steal_share", steal_share)
                    .raw("runs", usages.str())
                    .raw("spread", spreads.str())
                    .str());
}

int run_layers(const Args& args) {
  const WorkloadDef& def = *find_workload(args.workload);
  const TracedRun run = run_traced(def, args.seed, args.seconds);
  Verdict verdict;
  verdict.add(run.consistency);
  verdict.add(run.closure);
  JsonObject metrics;
  for (const Metric& metric : run.metrics) {
    metrics.raw(metric.name, metric_json(metric.value, metric.unit.c_str()));
  }
  return finish(args, {&def}, verdict, metrics, JsonObject().raw("traced", run.detail).str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::g_start = perfbench::Clock::now();
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    return 2;
  }
  if (args.workload != "all" && perfbench::find_workload(args.workload) == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (args.setup_only) {
    if (args.workload == "all") {
      std::fprintf(stderr, "--setup-only takes a single workload\n");
      return 2;
    }
    return perfbench::run_setup_only(args);
  }
  if (args.trace) {
    if (args.workload == "all") {
      std::fprintf(stderr, "--trace 1 takes a single workload\n");
      return 2;
    }
    return perfbench::run_layers(args);
  }
  return perfbench::run_timed(args);
}
