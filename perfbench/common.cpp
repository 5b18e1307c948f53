#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "graphgen/graph_algos.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

using namespace ule;

std::string Result::json() const {
  std::string out = "{\"correct\": ";
  out += (failed == 0 && attempted > 0) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", metrics[i].value);
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

void add_rep_metrics(const std::vector<double>& rep_ms, Result& r) {
  double total_ms = 0;
  for (double ms : rep_ms) total_ms += ms;
  r.add("wall_s", median(rep_ms) / 1000.0, "s");
  r.add("jobs_per_s", static_cast<double>(rep_ms.size()) / (total_ms / 1000.0),
        "1/s");
  r.add("job_p50_ms", percentile(rep_ms, 0.50), "ms");
  r.add("job_p99_ms", percentile(rep_ms, 0.99), "ms");
  r.add("peak_rss_mb", peak_rss_mb(), "MiB");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

const ProtocolRegistry& protocols() { return default_protocols(); }
const FamilyRegistry& families() { return default_families(); }

RunOptions runner_options(const ProtocolInfo& proto, const Scenario& s,
                          const ScenarioShape& shape, const Graph& g,
                          const ScenarioRunConfig& cfg) {
  // Mirrors run_scenario's reference-run options (src/scenario/runner.cpp):
  // the envelopes stretch under an adversary, under loss behind a reliable
  // transport, and under churn; the round cap is envelope * slack.  The
  // traced run proves the mirror exact by diffing every result counter.
  const std::uint8_t adv = faults::classes(s.adversary);
  std::uint64_t lossy_den = 1, lossy_round_num = 1;
  if (proto.reliable_transport && s.adversary.drop_pm != 0 &&
      s.adversary.drop_pm < 1000) {
    lossy_den = 1000 - s.adversary.drop_pm;
    lossy_round_num = 4000;
  }
  Round churn_round_slack = 0;
  for (const ScenarioCrash& c : s.adversary.crashes) {
    if (c.recover == kRoundForever || c.recover == c.at) continue;
    churn_round_slack = std::max(churn_round_slack, c.recover + 512);
  }
  const Round round_env =
      proto.round_envelope(shape) *
          (adv == faults::kNone ? 1 : s.adversary.max_delay + 2) *
          lossy_round_num / lossy_den +
      churn_round_slack;

  RunOptions opt;
  opt.seed = s.seed;
  opt.knowledge = knowledge_for(shape, s.knowledge);
  opt.congest = CongestMode::Count;
  opt.max_rounds = round_env * cfg.envelope_slack;
  opt.adversary = s.adversary.engine_config(g.n());
  opt.reliable.rto = static_cast<std::uint32_t>(s.reliable.rto);
  opt.reliable.backoff_cap = static_cast<std::uint32_t>(s.reliable.cap);
  std::vector<Round> wake = scenario_wakeup(s, g.n());
  if (!wake.empty()) opt.wakeup = std::move(wake);
  opt.threads = 1;
  opt.metrics = cfg.metrics;
  return opt;
}

TracedScenario trace_scenario(const std::string& token,
                              const ScenarioRunConfig& cfg) {
  TracedScenario t;
  auto t0 = Clock::now();
  const Scenario s = Scenario::parse(token);
  t.parse_us = ms_since(t0) * 1000.0;

  t0 = Clock::now();
  t.outcome = run_scenario(protocols(), families(), s, cfg);
  t.run_ms = ms_since(t0);

  const ProtocolInfo& proto = protocols().at(s.protocol);
  t0 = Clock::now();
  const Graph g = build_scenario_graph(families(), s);
  t.build_ms = ms_since(t0);

  t0 = Clock::now();
  const std::uint32_t diameter = diameter_exact(g);
  t.diameter_ms = ms_since(t0);

  const ScenarioShape shape = shape_of(
      g, diameter, s.wakeup == WakeupKind::Random ? s.wakeup_spread : Round{0},
      s.wakeup != WakeupKind::Simultaneous);
  RunOptions opt = runner_options(proto, s, shape, g, cfg);
  const ProcessFactory factory = proto.prepare(shape, opt);

  t0 = Clock::now();
  t.decomposed = run_election(g, factory, opt);
  t.engine_ms = ms_since(t0);

  if (cfg.check_determinism && s.threads > 1) {
    RunOptions popt = opt;
    popt.threads = s.threads;
    popt.parallel_cutoff = 1;
    t0 = Clock::now();
    const ElectionReport par = run_election(g, factory, popt);
    t.rerun_ms = ms_since(t0);
  }
  t.counters_match = diff_counters(serve::result_counters(t.decomposed),
                                   serve::result_counters(t.outcome.report))
                         .empty();
  return t;
}

std::string diff_counters(
    const std::vector<std::pair<std::string, std::uint64_t>>& a,
    const std::vector<std::pair<std::string, std::uint64_t>>& b) {
  if (a.size() != b.size())
    return "counter count " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first)
      return "counter #" + std::to_string(i) + " \"" + a[i].first +
             "\" vs \"" + b[i].first + "\"";
    if (a[i].second != b[i].second)
      return a[i].first + "=" + std::to_string(a[i].second) + " vs " +
             std::to_string(b[i].second);
  }
  return "";
}

std::uint64_t snapshot_counter(const MetricsSnapshot& snap,
                               const std::string& name) {
  for (const auto& [k, v] : snap.counters)
    if (k == name) return v;
  return 0;
}

}  // namespace perfbench
