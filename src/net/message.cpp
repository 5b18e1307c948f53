#include "net/message.hpp"

namespace ule {

namespace {

std::string payload_string(const FlatMsg& m) {
  std::string out = "flat(ch" + std::to_string(m.channel) + ",t" +
                    std::to_string(m.type);
  if (m.flags != 0) out += ",f" + std::to_string(m.flags);
  out += "," + std::to_string(m.a);
  if (m.b != 0 || m.c != 0) out += "/" + std::to_string(m.b);
  if (m.c != 0) out += "/" + std::to_string(m.c);
  return out + ")";
}

}  // namespace

std::string flat_debug_string(const FlatMsg& m, const LinkHeader& link) {
  const bool pure_ack = m.channel == kArqChannel;
  if (link.empty() && !pure_ack) return payload_string(m);
  std::string s = pure_ack ? "rel-ack" : "rel#" + std::to_string(link.seq);
  if (link.epoch != 0) s += "e" + std::to_string(link.epoch);
  s += " ack=" + std::to_string(link.ack);
  if (link.ack_epoch != 0) s += "e" + std::to_string(link.ack_epoch);
  if (!pure_ack) s += " [" + payload_string(m) + "]";
  return s;
}

}  // namespace ule
