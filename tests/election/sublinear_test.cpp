// The [14] context algorithm: sublinear-message election on complete graphs.
// This is what makes the paper's universal Ω(m) bound non-obvious — on the
// clique the bound simply does not apply, and this algorithm demonstrates it.

#include "election/sublinear_complete.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>

#include "graphgen/generators.hpp"
#include "net/engine.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

namespace ule {
namespace {

RunOptions opts(std::size_t n, std::uint64_t seed) {
  RunOptions o;
  o.seed = seed;
  o.knowledge = Knowledge::of_n(n);
  return o;
}

TEST(SublinearComplete, ElectsWhpAcrossSeeds) {
  const std::size_t n = 128;
  const Graph g = make_complete(n);
  std::size_t ok = 0;
  const std::size_t trials = 60;
  for (std::uint64_t seed = 1; seed <= trials; ++seed) {
    ok += run_election(g, make_sublinear_complete(), opts(n, seed))
              .verdict.unique_leader;
  }
  EXPECT_GE(ok, trials - 1);  // whp: allow at most one unlucky seed
}

TEST(SublinearComplete, ConstantRounds) {
  const std::size_t n = 96;
  const Graph g = make_complete(n);
  const auto rep = run_election(g, make_sublinear_complete(), opts(n, 4));
  ASSERT_TRUE(rep.verdict.unique_leader);
  EXPECT_LE(rep.run.rounds, 4u);  // the paper's O(1) time
}

TEST(SublinearComplete, MessagesCollapseRelativeToM) {
  // On K_n the algorithm beats Θ(m) = Θ(n^2) — the point of the intro's
  // citation of [14].  Θ(sqrt(n) polylog) / Θ(n^2) collapses: the msgs/m
  // ratio must drop by >~ 4x per 4x in n, and be well below m already at
  // moderate sizes.
  double prev_ratio = 0;
  for (const std::size_t n : {64u, 256u, 1024u}) {
    const Graph g = make_complete(n);
    const auto rep = run_election(g, make_sublinear_complete(), opts(n, 7));
    ASSERT_TRUE(rep.verdict.unique_leader) << n;
    const double ratio = static_cast<double>(rep.run.messages) /
                         static_cast<double>(g.m());
    if (prev_ratio > 0) {
      EXPECT_LE(ratio, prev_ratio / 2.5) << n;
    }
    prev_ratio = ratio;
  }
  EXPECT_LT(prev_ratio, 0.02);  // n=1024: less than 2% of the edges used
}

TEST(SublinearComplete, MessagesTrackSqrtNPolylog) {
  // messages / (sqrt(n) log^{3/2} n) stays bounded as n quadruples.
  std::vector<double> ratios;
  for (const std::size_t n : {64u, 256u, 1024u}) {
    const Graph g = make_complete(n);
    double msgs = 0;
    const int trials = 5;
    for (int t = 0; t < trials; ++t) {
      const auto rep =
          run_election(g, make_sublinear_complete(), opts(n, 11 + t));
      EXPECT_TRUE(rep.verdict.unique_leader) << n;
      msgs += static_cast<double>(rep.run.messages);
    }
    const double dn = static_cast<double>(n);
    ratios.push_back((msgs / trials) /
                     (std::sqrt(dn) * std::pow(std::log2(dn), 1.5)));
  }
  // Bounded and not exploding: largest/smallest within a small factor.
  const auto [lo, hi] = std::minmax_element(ratios.begin(), ratios.end());
  EXPECT_LE(*hi / *lo, 3.0);
}

TEST(SublinearComplete, WorksAnonymously) {
  const std::size_t n = 64;
  const Graph g = make_complete(n);
  RunOptions o = opts(n, 3);
  o.anonymous = true;
  const auto rep = run_election(g, make_sublinear_complete(), o);
  EXPECT_TRUE(rep.verdict.unique_leader);
}

TEST(SublinearComplete, RefusesNonCompleteGraphs) {
  const Graph g = make_cycle(16);
  EXPECT_THROW(
      run_election(g, make_sublinear_complete(), opts(16, 1)),
      std::logic_error);
}

TEST(SublinearComplete, RequiresN) {
  const Graph g = make_complete(8);
  RunOptions o;
  o.seed = 1;
  EXPECT_THROW(run_election(g, make_sublinear_complete(), o),
               std::logic_error);
}

TEST(SublinearComplete, CongestClean) {
  const std::size_t n = 48;
  const Graph g = make_complete(n);
  RunOptions o = opts(n, 9);
  o.congest = CongestMode::Count;
  const auto rep = run_election(g, make_sublinear_complete(), o);
  ASSERT_TRUE(rep.verdict.unique_leader);
  EXPECT_EQ(rep.run.congest_violations, 0u);
}

TEST(SublinearComplete, SingleNode) {
  const Graph g = make_path(1);
  const auto rep = run_election(g, make_sublinear_complete(), opts(1, 1));
  EXPECT_TRUE(rep.verdict.unique_leader);
}

TEST(SublinearComplete, RefereeFactorAblation) {
  // Tiny referee sets break the shared-referee argument: success drops
  // measurably, which is exactly the knob the whp analysis turns on.
  const std::size_t n = 256;
  const Graph g = make_complete(n);
  const std::size_t trials = 40;
  auto rate = [&](double rf) {
    std::size_t ok = 0;
    for (std::uint64_t seed = 1; seed <= trials; ++seed) {
      SublinearConfig cfg;
      cfg.referee_factor = rf;
      ok += run_election(g, make_sublinear_complete(cfg),
                         opts(n, seed * 31 + 5))
                .verdict.unique_leader;
    }
    return static_cast<double>(ok) / static_cast<double>(trials);
  };
  const double starved = rate(0.05);  // ~4 referees: frequent splits
  const double healthy = rate(2.0);
  EXPECT_GE(healthy, 0.95);
  EXPECT_LT(starved, healthy);
}

// A duplicated verdict must not count as a second referee's answer: while
// it did, delay plus duplication let a candidate decide before a delayed,
// stronger verdict arrived.  Each token below is a fuzzer draw that then
// reported "safety: 2 leaders".
TEST(SublinearComplete, DelayPlusDuplicationElectsAtMostOneLeader) {
  const char* const tokens[] = {
      "ule1:complete{n=6}:sublinear_complete:k=nd:w=sim:s=76983867041657:t=1:"
      "a=3.0.299.0.3964491935",
      "ule1:complete{n=3}:sublinear_complete:k=n:w=sim:s=6559766565053:t=1:"
      "a=2.212.266.438.2248721684",
      "ule1:complete{n=6}:sublinear_complete:k=nd:w=sim:s=148973165826869:t=1:"
      "a=3.50.243.0.1123705621",
      "ule1:complete{n=3}:sublinear_complete:k=nmd:w=sim:s=258479475376846:"
      "t=1:a=3.0.180.0.1884819294",
      "ule1:complete{n=4}:sublinear_complete:k=nmd:w=sim:s=16789210229020:t=1:"
      "a=2.0.179.432.2975707840",
      "ule1:complete{n=7}:sublinear_complete:k=nd:w=sim:s=135042736807147:t=1:"
      "a=2.170.219.91.3998929913",
      "ule1:complete{n=3}:sublinear_complete:k=n:w=sim:s=182665983306036:t=1:"
      "a=3.0.76.256.1369079806",
      "ule1:complete{n=4}:sublinear_complete:k=nd:w=sim:s=154761445915205:t=1:"
      "a=3.0.106.275.3275661134:f=2@6",
      "ule1:complete{n=3}:sublinear_complete:k=n:w=sim:s=201307557083179:t=1:"
      "a=1.87.203.329.262761746:f=7@4",
      "ule1:complete{n=5}:sublinear_complete:k=nmd:w=sim:s=168825192407244:"
      "t=1:a=2.274.200.204.978868234:f=5@3",
      "ule1:complete{n=3}:sublinear_complete:k=n:w=sim:s=203153581835661:t=1:"
      "a=3.4.267.307.242412925",
      "ule1:complete{n=5}:sublinear_complete:k=nd:w=sim:s=131190316437230:t=1:"
      "a=3.0.128.0.2252904881",
      "ule1:complete{n=3}:sublinear_complete:k=n:w=sim:s=247973287294521:t=1:"
      "a=2.215.297.415.3214349444",
  };
  for (const char* token : tokens) {
    const ScenarioOutcome out = run_scenario(
        default_protocols(), default_families(), Scenario::parse(token));
    EXPECT_LE(out.report.verdict.elected, 1u) << token;
    EXPECT_TRUE(out.ok()) << token << ": " << out.violations.front();
  }
}

// The same fault, swept: at n <= 8 every candidate queries every other node,
// so with one verdict counted per referee and one pair named per referee,
// delay and duplication can cost the leader but never add a second.
TEST(SublinearComplete, SmallNSweepUnderDelayAndDupElectsAtMostOneLeader) {
  for (std::size_t n = 2; n <= 8; ++n) {
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
      const std::string token =
          "ule1:complete{n=" + std::to_string(n) +
          "}:sublinear_complete:k=n:w=sim:s=" + std::to_string(seed) +
          ":t=1:a=" + std::to_string(1 + seed % 3) + ".0.300.0." +
          std::to_string(seed * 7919);
      const ScenarioOutcome out = run_scenario(
          default_protocols(), default_families(), Scenario::parse(token));
      EXPECT_LE(out.report.verdict.elected, 1u) << token;
    }
  }
}

// Beyond n = 14 referee sets are partial, and safety rests on a shared
// referee naming ONE pair to every querier.  Under delay a stronger query can
// reach a referee after it has answered; it must get the pair already
// endorsed.  Small referee sets and many candidates make such late queries
// common; the trace shows every verdict each referee sent.
TEST(SublinearComplete, ARefereeNamesOnePairHoweverLateTheQuery) {
  const std::size_t n = 24;
  const Graph g = make_complete(n);
  SublinearConfig sc;
  sc.candidate_factor = 4.0;  // ~12 candidates
  sc.referee_factor = 0.5;    // 5 referees each
  std::size_t late_rounds = 0;  // referees hearing queries in a later round
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    EngineConfig cfg;
    cfg.seed = seed;
    cfg.trace_limit = 100'000;
    cfg.adversary.seed = seed;
    cfg.adversary.max_delay = 3;
    cfg.adversary.duplicate = 0.3;
    SyncEngine eng(g, cfg);
    eng.set_knowledge(Knowledge::of_n(n));
    eng.init_processes(make_sublinear_complete(sc));
    eng.run();
    ASSERT_FALSE(eng.trace_truncated());
    std::map<NodeId, std::set<std::string>> named;
    std::map<NodeId, std::set<Round>> answered_in;
    for (const TraceEvent& ev : eng.trace()) {
      if (ev.kind != TraceEvent::Kind::Send ||
          ev.detail.rfind("flat(ch9,t1,f1,", 0) != 0)
        continue;
      named[ev.node].insert(ev.detail);
      answered_in[ev.node].insert(ev.round);
    }
    for (const auto& [node, pairs] : named) {
      EXPECT_EQ(pairs.size(), 1u) << "seed " << seed << " referee " << node;
      late_rounds += answered_in[node].size() - 1;
    }
  }
  EXPECT_GT(late_rounds, 0u);  // the schedule did produce late queries
}

}  // namespace
}  // namespace ule
