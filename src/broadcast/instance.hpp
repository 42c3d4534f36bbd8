// Multiplexing of many concurrent protocol instances over one party's
// physical channels.
//
// A bSM run executes up to 2k broadcast/agreement instances at once (one
// per sender, plus control traffic). Each instance is a round-driven state
// machine advancing in *protocol steps*; the hub maps protocol steps onto
// engine rounds with a configurable `stride`:
//   stride 1 — every channel is physical (delay Delta);
//   stride 2 — some channels are simulated through relays (delay 2 * Delta),
//              so one protocol step spans two engine rounds, exactly the
//              paper's "Pi_BA/Pi_BB with delay 2 * Delta".
// Outgoing instance messages carry a u32 channel header; the hub buffers
// arrivals between steps and hands each instance, at step s, precisely the
// messages its peers sent at step s-1.
//
// Messages are views (net::AppMsg), not copies. One that arrives in the
// round its instance steps is handed over as the router decoded it, a view
// into the engine's payload arena. One the hub keeps past its round is
// copied into an arena the hub owns: in a stride-2 hub a direct frame
// arrives one round before the step and goes into one of two step-buffer
// arenas, each recycled once no buffered message views it; a raw mailbox
// holds its messages in its own arena until they are taken. Frames are
// encoded into a scratch buffer the hub reuses, and step buffers keep
// their capacity, so a steady-state round allocates nothing.
//
// What instances share lives in the hub, once per party: each distinct
// participant list (with its bitset) is stored once and every entry
// refers to it, and the step scratch (an encode buffer and an id buffer)
// is lent to each instance through InstanceIo for one step() call. A run
// of n instances per party therefore grows these buffers once per party,
// not once per instance.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/codec.hpp"
#include "common/party_set.hpp"
#include "common/types.hpp"
#include "net/engine.hpp"
#include "net/process.hpp"
#include "net/relay.hpp"

namespace bsm::broadcast {

class InstanceHub;

/// Per-step services offered to an instance, valid for one step() call.
class InstanceIo {
 public:
  InstanceIo(InstanceHub& hub, net::Context& ctx, std::uint32_t channel,
             const std::vector<PartyId>& participants, const core::PartySet& participant_mask);

  /// Send to one participant (virtual channels transparently relayed).
  void send(PartyId to, ByteView inner);
  /// Send to every participant, self included.
  void broadcast(ByteView inner);

  [[nodiscard]] PartyId self() const;
  [[nodiscard]] const std::vector<PartyId>& participants() const { return *participants_; }
  /// participants() as a bitset (the hub's shared copy).
  [[nodiscard]] const core::PartySet& participant_mask() const { return *participant_mask_; }
  [[nodiscard]] std::uint32_t channel() const noexcept { return channel_; }
  [[nodiscard]] const crypto::Signer& signer() const;
  [[nodiscard]] const crypto::Pki& pki() const;

  /// Scratch the hub lends for this step() call only, shared by every
  /// instance it steps: an encode buffer and an id buffer. Contents are
  /// unspecified on entry and dead once step() returns, so an instance
  /// keeps nothing in them across steps (and copies what it keeps).
  [[nodiscard]] Writer& scratch() const;
  [[nodiscard]] std::vector<PartyId>& id_scratch() const;

 private:
  InstanceHub* hub_;
  net::Context* ctx_;
  std::uint32_t channel_;
  const std::vector<PartyId>* participants_;
  const core::PartySet* participant_mask_;
};

/// A protocol-step state machine with a fixed, publicly known duration.
class Instance {
 public:
  virtual ~Instance() = default;

  /// Called once per protocol step s = 0, 1, ..., duration(); `inbox` holds
  /// the instance's messages that arrived since the previous step. Their
  /// bodies are valid for this call only: an instance that keeps bytes
  /// copies them.
  virtual void step(InstanceIo& io, std::uint32_t s, const std::vector<net::AppMsg>& inbox) = 0;

  /// The step index at which this instance decides (inclusive).
  [[nodiscard]] virtual std::uint32_t duration() const = 0;

  [[nodiscard]] bool done() const noexcept { return done_; }
  /// Decided value; std::nullopt encodes bottom. Valid once done().
  [[nodiscard]] const std::optional<Bytes>& output() const noexcept { return output_; }

 protected:
  void decide(std::optional<Bytes> v) {
    output_ = std::move(v);
    done_ = true;
  }

 private:
  bool done_ = false;
  std::optional<Bytes> output_;
};

class InstanceHub {
 public:
  InstanceHub(net::RelayMode mode, std::uint32_t stride);

  /// Register an instance whose step 0 runs at engine round `base`. Only
  /// messages from `participants` are delivered to it. Instances with
  /// equal participant lists share the hub's one copy.
  void add_instance(std::uint32_t channel, Round base, const std::vector<PartyId>& participants,
                    std::unique_ptr<Instance> instance);

  /// Register a raw mailbox (control traffic outside any instance).
  void add_mailbox(std::uint32_t channel);
  /// The messages a mailbox collected since the last take. Their bodies
  /// are valid until the next ingest().
  [[nodiscard]] std::vector<net::AppMsg> take_mailbox(std::uint32_t channel);

  /// Round phase 1: route the physical inbox, buffer per channel.
  void ingest(net::Context& ctx, net::Inbox inbox);
  /// Round phase 2: step every instance due at the current round. Call it
  /// in the same round as ingest(): messages for an instance due this round
  /// are buffered as views that live only for the round.
  void step_due(net::Context& ctx);

  [[nodiscard]] bool all_done() const;
  [[nodiscard]] Instance& instance(std::uint32_t channel);
  [[nodiscard]] const Instance& instance(std::uint32_t channel) const;
  [[nodiscard]] net::RelayRouter& router() noexcept { return router_; }
  [[nodiscard]] std::uint32_t stride() const noexcept { return stride_; }

  /// Send control traffic on a raw channel.
  void send_raw(net::Context& ctx, std::uint32_t channel, PartyId to, ByteView body);

  /// Engine round at which an instance with the given base reaches step s.
  [[nodiscard]] Round round_of_step(Round base, std::uint32_t s) const {
    return base + s * stride_;
  }

 private:
  friend class InstanceIo;
  void send_on_channel(net::Context& ctx, std::uint32_t channel, PartyId to, ByteView inner);
  /// Encode the channel frame once and send it to every participant.
  void broadcast_on_channel(net::Context& ctx, std::uint32_t channel,
                            const std::vector<PartyId>& participants, ByteView inner);
  /// Encode the channel frame into frame_.
  [[nodiscard]] ByteView frame(std::uint32_t channel, ByteView inner);

  /// One distinct participant list, shared by every entry that names it.
  struct Participants {
    std::vector<PartyId> ids;
    core::PartySet mask;  ///< same set, O(1) ingest filtering
  };
  /// A channel's instance; a null `instance` marks an unused channel.
  struct Entry {
    Round base = 0;
    std::uint32_t participants = 0;  ///< index into participants_
    std::unique_ptr<Instance> instance;
    std::vector<net::AppMsg> buffer;  ///< messages for the next step
    std::uint8_t kept = 0;            ///< bit i set: buffer holds bytes in kept_[i]
  };
  /// A raw mailbox owns the bytes of its messages until they are taken.
  struct Mailbox {
    std::vector<net::AppMsg> messages;
    net::PayloadArena bytes;
  };

  /// True when an entry with this base steps at engine round `now`.
  [[nodiscard]] bool steps_at(Round base, Round now) const noexcept {
    return now >= base && (now - base) % stride_ == 0;
  }

  [[nodiscard]] Entry* entry_at(std::uint32_t channel) noexcept {
    return channel < entries_.size() && entries_[channel].instance != nullptr ? &entries_[channel]
                                                                              : nullptr;
  }
  [[nodiscard]] const Entry* entry_at(std::uint32_t channel) const noexcept {
    return channel < entries_.size() && entries_[channel].instance != nullptr ? &entries_[channel]
                                                                              : nullptr;
  }

  net::RelayRouter router_;
  std::uint32_t stride_;
  // Channel ids are small and dense (one per sender plus a couple of
  // control channels), so both tables are flat vectors indexed by channel —
  // the per-message map lookups of the node-based hub were a measurable
  // slice of the ingest hot path. Iteration by ascending index preserves
  // the old std::map stepping order exactly.
  std::vector<Entry> entries_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<Participants> participants_;
  // Step-buffer messages kept past their round. New copies go into
  // kept_[fill_]; the other arena is reset and takes over filling at the
  // first ingest() where no buffer holds bytes in it. In a stride-2 hub
  // each arena holds one round's copies and is recycled two rounds later.
  net::PayloadArena kept_[2];
  std::uint32_t kept_holds_[2] = {0, 0};  ///< entries with bytes in each arena
  std::uint8_t fill_ = 0;
  Writer frame_;  ///< outgoing channel frames
  // Step scratch lent through InstanceIo (see InstanceIo::scratch).
  Writer step_scratch_;
  std::vector<PartyId> step_ids_;
};

}  // namespace bsm::broadcast
