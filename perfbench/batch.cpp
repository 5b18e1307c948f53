// sparse_large and dense_reliable: fixed token lists run through
// run_scenario, repeated until the run's time is used up.
//
// Untraced, one repetition ("rep") is one run_scenario per token, and a job
// is one rep (see add_rep_metrics).  Traced, each token goes through
// trace_scenario, which times run_scenario whole and then the same run taken
// apart into build_scenario_graph, diameter_exact, proto.prepare and
// run_election.

#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

using namespace ule;

namespace {

std::string token(const std::string& family, const std::string& protocol,
                  std::uint64_t seed, unsigned threads,
                  const std::string& tail = "") {
  return "ule1:" + family + ":" + protocol + ":k=none:w=sim:s=" +
         std::to_string(seed) + ":t=" + std::to_string(threads) + tail;
}

std::vector<std::string> sparse_tokens(const Options& o) {
  const std::uint64_t s = o.seed;
  if (o.tiny)
    return {token("star{n=256}", "flood_max", s, 1),
            token("gnm{n=256,m=2048}", "least_el_all", s, 1),
            token("hypercube{dim=8}", "kingdom", s, 1),
            token("ring{n=256}", "dfs", s, 1)};
  return {token("star{n=4096}", "flood_max", s, 1),
          token("gnm{n=4096,m=65536}", "least_el_all", s, 1),
          token("hypercube{dim=12}", "kingdom", s, 1),
          token("ring{n=4096}", "dfs", s, 1)};
}

/// Order matters: [0] plain and [1] reliable are the cost-ratio pair, and
/// [3] is [0] at t=2 (its rerun is the parallel-engine sample).
std::vector<std::string> dense_tokens(const Options& o) {
  const std::uint64_t s = o.seed;
  const std::string k = o.tiny ? "complete{n=64}" : "complete{n=512}";
  return {token(k, "flood_max", s, 1), token(k, "flood_max_reliable", s, 1),
          token(k, "flood_max_reliable", s, 1,
                ":a=0.200.0.0." + std::to_string(s)),
          token(k, "flood_max", s, 2)};
}

/// Rep walls (ms) of the untraced token list.
std::vector<double> run_untraced(const std::vector<std::string>& tokens,
                                 double seconds, Result& r) {
  std::vector<double> rep_ms;
  repeat_for(seconds, [&] {
    const auto rep0 = Clock::now();
    for (const std::string& tk : tokens) {
      ScenarioOutcome out;
      bool threw = false;
      try {
        out = run_scenario(protocols(), families(), Scenario::parse(tk));
      } catch (const std::exception& e) {
        threw = true;
        r.fail(tk + ": " + e.what());
      }
      ++r.attempted;
      if (!threw && !out.ok())
        r.fail(tk + ": " + out.violations.front());
    }
    rep_ms.push_back(ms_since(rep0));
    std::fprintf(stderr, "rep %zu: %.1f ms\n", rep_ms.size(), rep_ms.back());
    return rep_ms.back();
  });
  return rep_ms;
}

/// One traced rep: every token through trace_scenario.
struct TracedRep {
  std::vector<TracedScenario> runs;
  double sum(double TracedScenario::*f) const {
    double v = 0;
    for (const TracedScenario& t : runs) v += t.*f;
    return v;
  }
};

double ns_per_message(const TracedScenario& t) {
  const auto msgs = t.decomposed.run.messages;
  return msgs == 0 ? 0 : t.engine_ms * 1e6 / static_cast<double>(msgs);
}

void run_traced(const std::vector<std::string>& tokens, bool dense,
                const Options& o, Result& r) {
  // Untraced reference first, for the tracing overhead.
  const std::vector<double> ref = run_untraced(tokens, o.seconds / 2, r);

  std::vector<TracedRep> reps;
  repeat_for(o.seconds / 2, [&] {
    const auto t0 = Clock::now();
    TracedRep rep;
    for (const std::string& tk : tokens) {
      ++r.attempted;
      try {
        rep.runs.push_back(trace_scenario(tk));
      } catch (const std::exception& e) {
        r.fail(tk + ": " + e.what());
        return ms_since(t0);
      }
      const TracedScenario& t = rep.runs.back();
      if (!t.outcome.ok()) r.fail(tk + ": " + t.outcome.violations.front());
      if (!t.counters_match)
        r.fail(tk + ": run_election counters differ from run_scenario's");
    }
    reps.push_back(std::move(rep));
    return ms_since(t0);
  });
  if (reps.empty() || reps.front().runs.size() != tokens.size()) return;

  const auto med = [&](auto f) {
    std::vector<double> v;
    for (const TracedRep& rep : reps) v.push_back(f(rep));
    return median(v);
  };
  const auto med_sum = [&](double TracedScenario::*f) {
    return med([f](const TracedRep& p) { return p.sum(f); });
  };
  r.add("graphgen.build_ms", med_sum(&TracedScenario::build_ms), "ms");
  r.add("graphgen.diameter_ms", med_sum(&TracedScenario::diameter_ms), "ms");
  r.add("graphgen.diameter_share", med([](const TracedRep& p) {
          return p.sum(&TracedScenario::diameter_ms) /
                 p.sum(&TracedScenario::run_ms);
        }), "ratio");
  r.add("net.engine_ms", med_sum(&TracedScenario::engine_ms), "ms");
  r.add("scenario.run_ms", med_sum(&TracedScenario::run_ms), "ms");
  r.add("scenario.check_ms", med([](const TracedRep& p) {
          double v = 0;
          for (const TracedScenario& t : p.runs) v += t.check_ms();
          return v;
        }), "ms");
  r.add("scenario.rerun_ms", med_sum(&TracedScenario::rerun_ms), "ms");
  std::vector<double> parse;
  for (const TracedRep& rep : reps)
    for (const TracedScenario& t : rep.runs) parse.push_back(t.parse_us);
  r.add("scenario.parse_us", median(parse), "us");
  r.add("net.ns_per_message", med([](const TracedRep& p) {
          double ms = 0, msgs = 0;
          for (const TracedScenario& t : p.runs) {
            ms += t.engine_ms;
            msgs += static_cast<double>(t.decomposed.run.messages);
          }
          return ms * 1e6 / msgs;
        }), "ns");

  // Exact counts: one rep's worth (every rep is the same runs).
  double messages = 0, executed = 0, steps = 0, drops = 0, retx = 0;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const RunResult& run = reps.front().runs[i].decomposed.run;
    messages += static_cast<double>(run.messages);
    executed += static_cast<double>(run.executed_rounds);
    steps += static_cast<double>(run.node_steps);
    drops += static_cast<double>(run.adv_drops);
    const Scenario s = Scenario::parse(tokens[i]);
    if (protocols().at(s.protocol).reliable_transport) {
      // Retransmissions are only visible in the telemetry snapshot: one
      // extra metrics-on run, outside every span.
      ScenarioRunConfig mc;
      mc.metrics.enabled = true;
      const ScenarioOutcome m = run_scenario(protocols(), families(), s, mc);
      if (m.report.run.metrics)
        retx += static_cast<double>(
            snapshot_counter(*m.report.run.metrics, "arq.retransmissions"));
      else
        r.fail(tokens[i] + ": metrics-on run carried no snapshot");
    }
  }
  r.add("net.messages", messages, "count");
  r.add("net.executed_rounds", executed, "count");
  r.add("net.node_steps", steps, "count");
  r.add("net.adv_drops", drops, "count");
  r.add("net.arq_retransmissions", retx, "count");

  if (dense) {
    r.add("net.reliable_cost_ratio", med([](const TracedRep& p) {
            return ns_per_message(p.runs[1]) / ns_per_message(p.runs[0]);
          }), "ratio");
    const TracedRep& first = reps.front();
    r.add("net.reliable_message_ratio",
          static_cast<double>(first.runs[1].decomposed.run.messages) /
              static_cast<double>(first.runs[0].decomposed.run.messages),
          "ratio");
    r.add("net.t2_speedup", med([](const TracedRep& p) {
            return p.runs[3].engine_ms / p.runs[3].rerun_ms;
          }), "ratio");
  }

  const double untraced_ms = median(ref);
  const double traced_ms = med_sum(&TracedScenario::run_ms);
  r.add("trace.overhead_pct", (traced_ms - untraced_ms) / untraced_ms * 100.0,
        "%");
  r.add("fail_ratio", r.fail_ratio(), "ratio");
}

Result run_batch(const std::vector<std::string>& tokens, bool dense,
                 const Options& o) {
  Result r;
  if (o.trace) {
    run_traced(tokens, dense, o, r);
  } else {
    add_rep_metrics(run_untraced(tokens, o.seconds, r), r);
  }
  return r;
}

}  // namespace

Result run_sparse_large(const Options& o) {
  return run_batch(sparse_tokens(o), false, o);
}

Result run_dense_reliable(const Options& o) {
  return run_batch(dense_tokens(o), true, o);
}

}  // namespace perfbench
