// The benchmark's workloads, correctness pins and determinism anchors.
//
// Each workload is a fixed list of campaign grids expanded from the
// workload seed; the program under test only ever receives the expanded
// ScenarioSpec list. Why each workload exists, and which layers it
// stresses or bypasses, is recorded in README.md next to this file.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/campaign.hpp"
#include "scenario/report.hpp"

namespace perfbench {

/// Seed whose digests are pinned below; every invocation re-checks it.
inline constexpr std::uint64_t kDefaultSeed = 1;
/// Seed kept out of all tuning, for confirming later performance claims.
inline constexpr std::uint64_t kHeldOutSeed = 104729;

/// Digests of one workload campaign expanded at kDefaultSeed.
struct Pins {
  /// CampaignReport::report_digest().
  std::uint64_t report_digest{0};
  /// outcome_digest() over the same report: every RunOutcome field.
  std::uint64_t outcome_digest{0};
};

struct WorkloadDef {
  const char* name;
  /// Campaign grids whose expansions, concatenated, form one campaign.
  std::vector<dear::scenario::CampaignSpec> (*grids)(std::uint64_t seed);
  Pins pins;
  /// False for a workload kept out of the benchmark because it fails on
  /// some seeds (README.md, "Known defect"); it still runs when named.
  bool benchmarked;
};

[[nodiscard]] const std::vector<WorkloadDef>& workloads();
[[nodiscard]] const WorkloadDef* find_workload(const std::string& name);

/// Expands the workload's grids into one scenario list.
[[nodiscard]] std::vector<dear::scenario::ScenarioSpec> expand(const WorkloadDef& workload,
                                                               std::uint64_t seed);

/// Order-sensitive digest over every field of one RunOutcome, including
/// the ones report_digest() leaves out (latency, deadline violations, ft_*).
[[nodiscard]] std::uint64_t outcome_digest(const dear::scenario::RunOutcome& outcome);
/// outcome_digest() folded over a report's rows in matrix order.
[[nodiscard]] std::uint64_t outcome_digest(const dear::scenario::CampaignReport& report);

/// Scenarios of `report` that belong to a digest group with at least one
/// member whose output or tag digest differs from the group's reference.
[[nodiscard]] std::uint64_t violated_members(const dear::scenario::CampaignReport& report);

/// Remembers the first outcome of every scenario of a list and counts the
/// later runs that do not reproduce it.
class Reproduction {
 public:
  /// Returns false when `outcome` differs from the first one recorded for
  /// scenario `index`.
  bool add(std::size_t index, const dear::scenario::RunOutcome& outcome);

  [[nodiscard]] std::uint64_t runs() const noexcept { return runs_; }
  [[nodiscard]] std::uint64_t mismatches() const noexcept { return mismatches_; }

 private:
  std::vector<std::uint64_t> first_;
  std::vector<bool> seen_;
  std::uint64_t runs_{0};
  std::uint64_t mismatches_{0};
};

/// Result of one correctness check run outside the timed sections.
struct Check {
  std::string name;
  bool ok{false};
  /// Scenarios (or pipeline runs) the check executed, and how many of
  /// them count as failed when it does not hold.
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::string detail;
};

/// Runs the workload's campaign at kDefaultSeed and compares it with the
/// pins (flipping one pin bit when `plant_wrong_pin` is set, which must
/// make the check fail).
[[nodiscard]] Check check_pins(const WorkloadDef& workload, bool plant_wrong_pin);

/// Re-runs the repository's determinism anchors: DEAR 300 frames / seed 7
/// over both transports, the fault sweep and the fault-tolerance sweep.
[[nodiscard]] std::vector<Check> check_anchors(std::size_t workers);

}  // namespace perfbench
