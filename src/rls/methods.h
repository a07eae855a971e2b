// The RLS method table: one row per opcode holds all the server knows
// about an RPC method — its `method` label, the privilege it demands
// (paper §3.1: the common server enforces a privilege per operation) and
// its handler. Role, admission lane and token cost are derived from the
// privilege, so adding an RPC is one row plus its handler.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/error.h"
#include "gsi/gsi.h"

namespace rls {

class RlsServer;

struct Method {
  using Handler = rlscommon::Status (RlsServer::*)(const std::string& request,
                                                   std::string* response);

  uint16_t opcode;
  std::string_view name;  // `method` metric label and span name
  std::optional<gsi::Privilege> privilege;  // nullopt = open to every client
  Handler handler;
};

/// Every method, in opcode order (rls_server.cpp).
std::span<const Method> Methods();

/// The row for `opcode`; nullptr for an unknown opcode.
const Method* FindMethod(uint16_t opcode);

/// The server role a method needs: LRC privileges (lrc_read, lrc_write,
/// admin) need the LRC role, RLI privileges (rli_read, rli_write) the
/// RLI role; ping and stats work on any server.
enum class Role : uint8_t { kAny, kLrc, kRli };

inline Role RequiredRole(const Method& method) {
  if (!method.privilege) return Role::kAny;
  switch (*method.privilege) {
    case gsi::Privilege::kLrcRead:
    case gsi::Privilege::kLrcWrite:
    case gsi::Privilege::kAdmin:
      return Role::kLrc;
    case gsi::Privilege::kRliRead:
    case gsi::Privilege::kRliWrite:
      return Role::kRli;
    case gsi::Privilege::kStats:
      break;
  }
  return Role::kAny;
}

/// Protected traffic rides the admission priority lane and is never
/// charged against a tenant's token bucket: ping and stats (monitoring
/// probes), admin (the operator's lever during an incident) and
/// rli_write (soft-state updates, whose loss expires a whole RLI index).
inline bool OnPriorityLane(const Method& method) {
  return !method.privilege || *method.privilege == gsi::Privilege::kStats ||
         *method.privilege == gsi::Privilege::kAdmin ||
         *method.privilege == gsi::Privilege::kRliWrite;
}

}  // namespace rls
