// Shared pieces of the repository benchmark driver: options, the result
// record and its one-line JSON, order statistics, and the traced
// decomposition of one scenario run into its layers.
//
// Every layer is timed from OUTSIDE, by wrapping calls into the library's
// public functions with steady_clock reads; nothing in src/ is instrumented.

#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "election/election.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;  ///< self-test sizes: every workload in seconds
};

/// What one invocation reports.  `attempted` / `failed` count the workload's
/// operations (jobs, scenario runs, campaign runs) and every off-the-clock
/// correctness check that can fail one of them.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few diagnostics (stderr)
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
  double fail_ratio() const {
    return attempted == 0 ? 1.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
  /// One JSON object: correct / attempted / failed / metrics (run.py
  /// completes it against BENCHMARK.json and prints the result line).
  std::string json() const;
};

/// Call `rep` (which returns the wall, in ms, it wants counted) until the
/// counted walls add up to `seconds`; at least once.
template <typename Rep>
void repeat_for(double seconds, Rep&& rep) {
  double counted_ms = 0;
  do counted_ms += rep();
  while (counted_ms < seconds * 1000.0);
}

/// Linear-interpolated percentile, p in [0, 1] (0 for an empty sample).
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// The end-to-end metrics of a batch workload, where a job is one rep of the
/// workload's fixed unit of work: wall_s is the median rep, jobs_per_s reps
/// per timed second, job_p50_ms / job_p99_ms the rep-wall percentiles, plus
/// peak_rss_mb.
void add_rep_metrics(const std::vector<double>& rep_ms, Result& r);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// The registries every workload runs against (built on first call).
const ule::ProtocolRegistry& protocols();
const ule::FamilyRegistry& families();

/// The RunOptions run_scenario builds for its threads=1 reference run of
/// `s` on `g` (knowledge, round cap, adversary, wakeup, reliable knobs),
/// before the protocol's prepare() adjusts them.
ule::RunOptions runner_options(const ule::ProtocolInfo& proto,
                               const ule::Scenario& s,
                               const ule::ScenarioShape& shape,
                               const ule::Graph& g,
                               const ule::ScenarioRunConfig& cfg);

/// One traced scenario: run_scenario timed whole, then the same run taken
/// apart into the public calls it makes, each timed on its own.
struct TracedScenario {
  double parse_us = 0;     ///< Scenario::parse of the token
  double run_ms = 0;       ///< run_scenario, whole
  double build_ms = 0;     ///< build_scenario_graph
  double diameter_ms = 0;  ///< diameter_exact
  double engine_ms = 0;    ///< run_election, threads = 1
  double rerun_ms = 0;     ///< run_election at s.threads (when > 1)
  ule::ScenarioOutcome outcome;  ///< run_scenario's own result
  ule::ElectionReport decomposed;  ///< the decomposed threads=1 run
  bool counters_match = false;   ///< decomposed == run_scenario, all counters

  /// run minus build, diameter and engine (and the rerun, when there is one):
  /// the runner's own checks and bookkeeping, shape_of and proto.prepare.
  double check_ms() const {
    return run_ms - build_ms - diameter_ms - engine_ms - rerun_ms;
  }
};

TracedScenario trace_scenario(const std::string& token,
                              const ule::ScenarioRunConfig& cfg = {});

/// First difference between two result_counters lists ("" when equal).
std::string diff_counters(const std::vector<std::pair<std::string, std::uint64_t>>& a,
                          const std::vector<std::pair<std::string, std::uint64_t>>& b);

/// Value of a named counter in a metrics snapshot (0 when absent).
std::uint64_t snapshot_counter(const ule::MetricsSnapshot& snap,
                               const std::string& name);

// --- the workloads (one per invocation, each in its own process) ----------

Result run_sparse_large(const Options& o);
Result run_dense_reliable(const Options& o);
Result run_lab_campaign(const Options& o);
Result run_serve_mix(const Options& o);

/// The set-up phase alone (registries, plus daemon start and session
/// connects for serve_mix): calls `ready` once it is done, then tears it
/// down again.  The set-up probes time spawn-to-ready of this.
void setup_only(const Options& o, const std::function<void()>& ready);

}  // namespace perfbench
