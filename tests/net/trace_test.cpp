// Engine execution tracing: wakes, sends (with payload debug strings) and
// status changes, recorded in execution order and rendered round-by-round.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "election/flood_max.hpp"
#include "graphgen/generators.hpp"
#include "net/engine.hpp"
#include "net/reliable.hpp"

namespace ule {
namespace {

SyncEngine traced_run(const Graph& g, std::size_t limit) {
  EngineConfig cfg;
  cfg.seed = 2;
  cfg.trace_limit = limit;
  SyncEngine eng(g, cfg);
  Rng id_rng(8);
  eng.set_uids(assign_ids(g.n(), IdScheme::Sequential, id_rng));
  eng.init_processes(make_flood_max());
  eng.run();
  return eng;
}

TEST(Trace, OffByDefault) {
  const Graph g = make_path(4);
  EngineConfig cfg;
  SyncEngine eng(g, cfg);
  Rng id_rng(8);
  eng.set_uids(assign_ids(g.n(), IdScheme::Sequential, id_rng));
  eng.init_processes(make_flood_max());
  eng.run();
  EXPECT_TRUE(eng.trace().empty());
  EXPECT_FALSE(eng.trace_truncated());
}

TEST(Trace, RecordsWakesSendsAndStatusChanges) {
  const Graph g = make_path(3);
  const SyncEngine eng = traced_run(g, 10'000);
  const auto& tr = eng.trace();

  const auto count = [&](TraceEvent::Kind k) {
    return std::count_if(tr.begin(), tr.end(),
                         [k](const TraceEvent& e) { return e.kind == k; });
  };
  EXPECT_EQ(count(TraceEvent::Kind::Wake), 3);  // every node wakes once
  // Every counted message has a Send event.
  EXPECT_EQ(static_cast<std::uint64_t>(count(TraceEvent::Kind::Send)),
            eng.result().messages);
  // Every node decides exactly once here: 1 elected + 2 non-elected.
  EXPECT_EQ(count(TraceEvent::Kind::StatusChange), 3);
}

TEST(Trace, EventsAreInNondecreasingRoundOrder) {
  const Graph g = make_cycle(8);
  const SyncEngine eng = traced_run(g, 10'000);
  const auto& tr = eng.trace();
  ASSERT_FALSE(tr.empty());
  for (std::size_t i = 1; i < tr.size(); ++i)
    EXPECT_LE(tr[i - 1].round, tr[i].round);
}

TEST(Trace, SendEventsCarryEndpointsAndPayload) {
  const Graph g = make_path(2);
  const SyncEngine eng = traced_run(g, 100);
  bool saw_send = false;
  for (const auto& ev : eng.trace()) {
    if (ev.kind != TraceEvent::Kind::Send) continue;
    saw_send = true;
    EXPECT_LT(ev.node, 2u);
    EXPECT_LT(ev.peer, 2u);
    EXPECT_NE(ev.node, ev.peer);
    EXPECT_FALSE(ev.detail.empty());
  }
  EXPECT_TRUE(saw_send);
}

TEST(Trace, LimitTruncatesAndFlags) {
  const Graph g = make_complete(6);
  const SyncEngine eng = traced_run(g, 5);
  EXPECT_EQ(eng.trace().size(), 5u);
  EXPECT_TRUE(eng.trace_truncated());
}

TEST(Trace, FormatMentionsRoundsAndElection) {
  const Graph g = make_path(3);
  const SyncEngine eng = traced_run(g, 10'000);
  const std::string text = format_trace(eng);
  EXPECT_NE(text.find("--- round 0 ---"), std::string::npos);
  EXPECT_NE(text.find("wakes"), std::string::npos);
  EXPECT_NE(text.find("status := elected"), std::string::npos);
  EXPECT_NE(text.find("non-elected"), std::string::npos);
}

TEST(Trace, FormatRespectsLineBudget) {
  const Graph g = make_complete(8);
  const SyncEngine eng = traced_run(g, 100'000);
  const std::string text = format_trace(eng, 10);
  EXPECT_NE(text.find("truncated at 10 lines"), std::string::npos);
  EXPECT_LE(std::count(text.begin(), text.end(), '\n'), 10 + 4);
}

TEST(Trace, ReliableFramesRenderTheirLinkHeader) {
  // Behind the ARQ wrapper every send carries a link header: data frames
  // render as `rel#SEQeEPOCH ack=ACK[eEPOCH] [payload]`, standalone acks as
  // `rel-ack ...` with no payload.  On a 3-path every node wakes at round
  // 0, so every stream opens at epoch 1.
  const Graph g = make_path(3);
  EngineConfig cfg;
  cfg.seed = 2;
  cfg.trace_limit = 10'000;
  SyncEngine eng(g, cfg);
  Rng id_rng(8);
  eng.set_uids(assign_ids(g.n(), IdScheme::Sequential, id_rng));
  eng.init_processes(make_reliable(make_flood_max()));
  eng.run();

  std::vector<std::string> details;
  for (const TraceEvent& ev : eng.trace()) {
    if (ev.kind == TraceEvent::Kind::Send) details.push_back(ev.detail);
  }
  ASSERT_FALSE(details.empty());
  // The very first send is a fresh stream's first data frame: nothing
  // received yet, so it acks nothing.
  EXPECT_EQ(details.front().rfind("rel#1e1 ack=0 [flat(ch2,", 0), 0u)
      << details.front();
  EXPECT_EQ(details.front().back(), ']') << details.front();
  std::size_t data = 0;
  std::size_t acks = 0;
  for (const std::string& d : details) {
    if (d.rfind("rel#", 0) == 0) {
      ++data;
      EXPECT_NE(d.find(" [flat(ch2,"), std::string::npos) << d;
    } else {
      ASSERT_EQ(d.rfind("rel-ack", 0), 0u) << d;
      ++acks;
      EXPECT_EQ(d.find('['), std::string::npos) << d;  // no payload
      EXPECT_NE(d.find(" ack="), std::string::npos) << d;
      EXPECT_NE(d.find("e1 ack="), std::string::npos) << d;  // epoch 1
    }
  }
  EXPECT_GT(data, 0u);
  EXPECT_GT(acks, 0u);
  EXPECT_EQ(data + acks, eng.result().messages);
  // The renderer itself: no header = the plain rendering.
  const FlatMsg payload{.type = 1, .channel = 2, .bits = 8, .a = 7};
  EXPECT_EQ(flat_debug_string(payload), "flat(ch2,t1,7)");
  EXPECT_EQ(flat_debug_string(payload, LinkHeader{3, 2, 1, 5}),
            "rel#3e2 ack=1e5 [flat(ch2,t1,7)]");
  const FlatMsg ack{.type = 1, .channel = kArqChannel, .bits = 72};
  EXPECT_EQ(flat_debug_string(ack, LinkHeader{0, 2, 4, 5}),
            "rel-acke2 ack=4e5");
}

}  // namespace
}  // namespace ule
