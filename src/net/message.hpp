// Messages and their CONGEST accounting.
//
// There is ONE wire representation, `FlatMsg`: a 32-byte POD — type tag,
// protocol channel, flag byte, accounted bit size, and three 64-bit payload
// words — stored INLINE in the engine's in-flight and inbox buffers.  Sending
// one costs a struct copy: no heap allocation, no refcount, no virtual
// dispatch, and receivers discriminate by (channel, type) integer compare.
// Three words is a deliberate cap: CONGEST grants O(log n) bits per edge per
// round, so any message needing more than a tag plus a few id-sized fields is
// over budget anyway.
//
// Beside the payload every envelope carries a 16-byte `LinkHeader`, the ARQ
// header of the reliable link layer (net/reliable.hpp).  The engine copies it
// opaquely — through drop, duplication, delay and reorder — and never reads
// it; plain protocols leave it zero.  Its wire cost is billed by the layer
// that uses it, inside `FlatMsg::bits`.
//
// Each message reports its encoded size in bits so the engine can (a) total
// up bit complexity and (b) enforce the CONGEST bound of O(log n) bits per
// edge per round when asked to.

#pragma once

#include <cstdint>
#include <string>

#include "net/types.hpp"

namespace ule {

/// The one message representation.  Protocols pick their own nonzero type
/// tags, scoped by `channel` (see election/channels.hpp), so two protocols
/// never need to coordinate tag ranges.
struct FlatMsg {
  std::uint16_t type = 0;    ///< protocol-local discriminator; 0 is invalid
  std::uint8_t channel = 0;  ///< protocol channel, keeps concurrent runs apart
  std::uint8_t flags = 0;    ///< protocol-defined flag bits
  std::uint32_t bits = 0;    ///< accounted wire size
  std::uint64_t a = 0;       ///< payload word (ids, ranks, depths, ...)
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

/// The reliable link layer's per-frame header (net/reliable.hpp): a data
/// frame's per-(edge, direction) sequence number and stream epoch, and the
/// cumulative ack and the epoch it refers to.  All zero = no header.
struct LinkHeader {
  std::uint32_t seq = 0;  ///< 0 on a pure ack (and on non-ARQ traffic)
  std::uint32_t epoch = 0;
  std::uint32_t ack = 0;
  std::uint32_t ack_epoch = 0;

  bool empty() const { return (seq | epoch | ack | ack_epoch) == 0; }
};

/// Channel reserved by net/ for the reliable layer's pure (standalone) acks;
/// protocol channels (election/channels.hpp) stay below it.
inline constexpr std::uint8_t kArqChannel = 255;

/// A received message, tagged with the local port it arrived on.
struct Envelope {
  PortId port = kNoPort;
  FlatMsg flat;
  LinkHeader link;
};
// The delivery buffers hold one Envelope per message in flight; a 72-byte
// layout (a payload pointer beside the link header) measured +11% peak RSS
// on a full Complexity Lab campaign.
static_assert(sizeof(Envelope) == 56);

/// Conventional field sizes, in bits.  IDs/ranks come from a set of size
/// n^4, i.e. 4*log2(n) bits; we account a uniform 64-bit field for them so
/// measured "bits" scale like Theta(messages * log n) for the n we simulate.
namespace wire {
inline constexpr std::uint32_t kTypeTag = 8;    ///< message discriminator
inline constexpr std::uint32_t kIdField = 64;   ///< node id / rank / edge id
inline constexpr std::uint32_t kCounter = 32;   ///< hop counters, phase nums
inline constexpr std::uint32_t kFlag = 1;       ///< booleans
}  // namespace wire

/// Generic render of a message for traces.  A non-empty link header renders
/// as `rel#SEQeEPOCH ack=ACKeEPOCH [payload]` for a data frame and
/// `rel-ack ack=...` for a pure ack (epochs omitted when zero).
std::string flat_debug_string(const FlatMsg& m, const LinkHeader& link = {});

}  // namespace ule
