// Compact, replayable delivery-schedule scripts.
//
// A ScheduleTrace is a list of channel-level perturbation ops, each bound
// to one delivery round and one directed channel: drop the group, delay it
// by d rounds, or demote it to rank r within the recipient's inbox. The
// trace is the *value* form of a schedule — the explorer searches over
// traces, counterexamples are minimized traces, and the text serialization
// round-trips bit-for-bit so a violating schedule can be reported in JSON,
// pasted back into `bsm_cli explore --replay`, and reproduce the exact
// run (tests/sched_test.cpp asserts the replay equality).
//
// Text form: ops joined by ';', each `kind@round:from>to[*arg]`, e.g.
//   drop@3:0>2;delay@4:1>3*2;rank@5:2>0*1
// parse() is strict (nullopt on any junk) because traces cross process
// boundaries through CLI flags and JSON.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace bsm::sched {

/// One perturbation: applies to every envelope of the directed channel
/// from -> to that would deliver at `round`.
struct ScheduleOp {
  enum class Kind : std::uint8_t {
    Drop,   ///< omit the group entirely
    Delay,  ///< deliver `arg` rounds late (arg >= 1)
    Rank,   ///< keep the round, demote the group to rank `arg` (arg >= 1)
    /// Stall the engine for `arg` extra engine rounds before protocol
    /// round `round` begins: nothing is delivered and no process steps
    /// while a stall is pending, only the engine-round clock advances.
    /// from/to are unused and serialize as 0>0.
    Stall,
  };

  Kind kind = Kind::Drop;
  Round round = 0;  ///< the delivery round being perturbed
  PartyId from = 0;
  PartyId to = 0;
  std::uint32_t arg = 1;  ///< delay distance, rank, or stall length; ignored for Drop

  bool operator==(const ScheduleOp&) const = default;

  /// Canonical exploration order: (round, from, to, kind, arg).
  [[nodiscard]] bool operator<(const ScheduleOp& o) const {
    if (round != o.round) return round < o.round;
    if (from != o.from) return from < o.from;
    if (to != o.to) return to < o.to;
    if (kind != o.kind) return kind < o.kind;
    return arg < o.arg;
  }
};

/// A whole schedule script: the ops, in canonical order.
struct ScheduleTrace {
  std::vector<ScheduleOp> ops;

  bool operator==(const ScheduleTrace&) const = default;

  [[nodiscard]] bool empty() const noexcept { return ops.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return ops.size(); }

  /// 64-bit content digest (explorer dedup, test goldens).
  [[nodiscard]] std::uint64_t digest() const;

  /// `kind@round:from>to[*arg];...` — empty string for the empty trace.
  [[nodiscard]] std::string serialize() const;

  /// Strict inverse of serialize(): nullopt on any malformed byte. The
  /// empty string parses to the empty (synchronous) trace.
  [[nodiscard]] static std::optional<ScheduleTrace> parse(std::string_view text);
};

}  // namespace bsm::sched
