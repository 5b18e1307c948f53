// Explicit leader election: every node must also KNOW the leader's identity.
//
// The paper studies the implicit variant ("these nodes need not be aware of
// the identity of the leader") but notes the explicit one throughout: "our
// algorithms apply to the explicit version as well" (Section 1), and the
// broadcast lower bound (Corollary 3.12) shows the extra announcement costs
// Θ(m) messages on general graphs — asymptotically free next to any of the
// election algorithms here.
//
// ExplicitProcess wraps ANY implicit election process: it runs the inner
// algorithm unchanged (through a pass-through Context) and, the moment the
// inner algorithm sets status Elected at some node, that node floods a
// LEADER(id) announcement.  Every node forwards it once, so the overlay
// cost is exactly one message per edge direction, 2m in total, plus O(D)
// extra rounds.  In anonymous networks the winner announces a fresh random
// 64-bit token instead of an ID (the identity every node learns is that
// token — the strongest "explicit" guarantee possible without identifiers).
//
// Composition note: the wrapper relies only on the public Process/Context
// interface, so it composes with every algorithm in this library and any
// user-defined one, and it is itself an example of layering protocols over
// the engine.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "election/channels.hpp"
#include "election/election.hpp"
#include "net/outbox.hpp"
#include "net/process.hpp"

namespace ule {

/// LEADER(token): the winner's identity, flooded once over every edge.
/// Flat fast path on the wrapper's own channel, so it never collides with
/// whatever channel(s) the wrapped inner algorithm speaks.
namespace explicitwire {
inline constexpr std::uint16_t kLeader = 1;

inline FlatMsg leader(std::uint64_t token) {
  FlatMsg m;
  m.type = kLeader;
  m.channel = channel::kExplicit;
  m.bits = wire::kTypeTag + wire::kIdField;
  m.a = token;
  return m;
}

inline bool is_leader(const Envelope& env) {
  return env.flat.type == kLeader && env.flat.channel == channel::kExplicit;
}
}  // namespace explicitwire

class ExplicitProcess final : public Process {
 public:
  explicit ExplicitProcess(std::unique_ptr<Process> inner)
      : inner_(std::move(inner)) {}

  void on_wake(Context& ctx, std::span<const Envelope> inbox) override;
  void on_round(Context& ctx, std::span<const Envelope> inbox) override;

  /// The overlay owns no counters of its own; keep the inner observable.
  void export_metrics(MetricsSink& sink) const override {
    inner_->export_metrics(sink);
  }

  /// The leader identity this node learned (nullopt until the announcement
  /// reaches it).  Under unique IDs this is the leader's uid; in anonymous
  /// networks it is the winner's announcement token.
  std::optional<std::uint64_t> known_leader() const { return known_leader_; }

  const Process* inner() const { return inner_.get(); }

 private:
  class PassThroughCtx;
  /// The inner algorithm's last scheduling verb (it persists across rounds:
  /// an idle process stays idle until a message arrives).
  enum class Wish : std::uint8_t { Running, Idle, Sleep, Halt };

  void run_inner(Context& ctx, std::span<const Envelope> inbox, bool wake);
  void announce(Context& ctx, std::uint64_t token, PortId skip);

  std::unique_ptr<Process> inner_;
  PortOutbox outbox_;
  /// Reused every step: the inner algorithm's non-announcement inbox, and
  /// the ports it sent on this round (per port; cleared after the flush).
  std::vector<Envelope> inner_inbox_;
  std::vector<bool> inner_sent_;
  std::optional<std::uint64_t> known_leader_;
  bool announced_ = false;        ///< we already forwarded/originated
  bool inner_elected_ = false;
  Wish inner_wish_ = Wish::Running;
  Round inner_deadline_ = 0;
};

/// Wrap an implicit-election factory into an explicit-election factory.
ProcessFactory make_explicit(ProcessFactory inner);

}  // namespace ule
