#include "broadcast/instance.hpp"

#include <algorithm>
#include <utility>

namespace bsm::broadcast {

InstanceIo::InstanceIo(InstanceHub& hub, net::Context& ctx, std::uint32_t channel,
                       const std::vector<PartyId>& participants,
                       const core::PartySet& participant_mask)
    : hub_(&hub),
      ctx_(&ctx),
      channel_(channel),
      participants_(&participants),
      participant_mask_(&participant_mask) {}

void InstanceIo::send(PartyId to, ByteView inner) {
  hub_->send_on_channel(*ctx_, channel_, to, inner);
}

void InstanceIo::broadcast(ByteView inner) {
  hub_->broadcast_on_channel(*ctx_, channel_, *participants_, inner);
}

PartyId InstanceIo::self() const { return ctx_->self(); }
const crypto::Signer& InstanceIo::signer() const { return ctx_->signer(); }
const crypto::Pki& InstanceIo::pki() const { return ctx_->pki(); }
Writer& InstanceIo::scratch() const { return hub_->step_scratch_; }
std::vector<PartyId>& InstanceIo::id_scratch() const { return hub_->step_ids_; }

InstanceHub::InstanceHub(net::RelayMode mode, std::uint32_t stride)
    : router_(mode), stride_(stride) {
  require(stride >= 1, "InstanceHub: stride must be positive");
}

void InstanceHub::add_instance(std::uint32_t channel, Round base,
                               const std::vector<PartyId>& participants,
                               std::unique_ptr<Instance> instance) {
  require(instance != nullptr, "InstanceHub::add_instance: null instance");
  require(entry_at(channel) == nullptr &&
              (channel >= mailboxes_.size() || mailboxes_[channel] == nullptr),
          "InstanceHub::add_instance: duplicate channel");
  // A hub sees one or two distinct lists (a BB per sender over everyone,
  // plus a side's agreement), so a linear search finds the shared copy.
  const auto list = std::find_if(participants_.begin(), participants_.end(),
                                 [&](const Participants& p) { return p.ids == participants; });
  const auto index = static_cast<std::uint32_t>(list - participants_.begin());
  if (list == participants_.end()) {
    Participants& added = participants_.emplace_back();
    added.ids = participants;
    for (PartyId p : participants) added.mask.insert(p);
  }
  if (channel >= entries_.size()) entries_.resize(channel + 1);
  Entry& entry = entries_[channel];
  entry.base = base;
  entry.participants = index;
  entry.instance = std::move(instance);
  entry.buffer.reserve(participants.size());  // one message per peer per step
}

void InstanceHub::add_mailbox(std::uint32_t channel) {
  require(entry_at(channel) == nullptr &&
              (channel >= mailboxes_.size() || mailboxes_[channel] == nullptr),
          "InstanceHub::add_mailbox: duplicate channel");
  if (channel >= mailboxes_.size()) mailboxes_.resize(channel + 1);
  mailboxes_[channel] = std::make_unique<Mailbox>();
}

std::vector<net::AppMsg> InstanceHub::take_mailbox(std::uint32_t channel) {
  require(channel < mailboxes_.size() && mailboxes_[channel] != nullptr,
          "InstanceHub::take_mailbox: unknown mailbox");
  // The bytes stay in the mailbox's arena, which the next ingest() that
  // finds the mailbox empty recycles.
  return std::exchange(mailboxes_[channel]->messages, {});
}

ByteView InstanceHub::frame(std::uint32_t channel, ByteView inner) {
  frame_.truncate(0);
  frame_.u32(channel);
  frame_.bytes(inner);
  return frame_.data();
}

void InstanceHub::send_on_channel(net::Context& ctx, std::uint32_t channel, PartyId to,
                                  ByteView inner) {
  router_.send(ctx, to, frame(channel, inner));
}

void InstanceHub::broadcast_on_channel(net::Context& ctx, std::uint32_t channel,
                                       const std::vector<PartyId>& participants,
                                       ByteView inner) {
  // One frame encode for the whole broadcast; recipients receive the same
  // bytes in the same order as the per-recipient encode they replace.
  router_.broadcast(ctx, participants, frame(channel, inner));
}

void InstanceHub::send_raw(net::Context& ctx, std::uint32_t channel, PartyId to,
                           ByteView body) {
  send_on_channel(ctx, channel, to, body);
}

void InstanceHub::ingest(net::Context& ctx, net::Inbox inbox) {
  // Recycle the draining arena once nothing buffered views it.
  if (kept_holds_[fill_ ^ 1] == 0) {
    fill_ ^= 1;
    kept_[fill_].reset();
  }
  const Round now = ctx.round();
  for (const net::AppMsg& msg : router_.route(ctx, inbox)) {
    Reader r(msg.body);
    const std::uint32_t channel = r.u32();
    // The instance payload: the frame minus its 8-byte header (u32 channel
    // + u32 length), still a view into the delivered bytes.
    const ByteView inner = r.bytes_view();
    if (!r.done()) continue;  // malformed frame: drop

    if (Entry* entry = entry_at(channel); entry != nullptr) {
      // Only participants may speak on an instance's channel.
      if (!participants_[entry->participants].mask.contains(msg.from)) continue;
      if (steps_at(entry->base, now)) {
        entry->buffer.emplace_back(msg.from, inner);  // stepped this round
        continue;
      }
      // Kept past its round: copy into the arena being filled, which the
      // entry now holds until its step.
      if (((entry->kept >> fill_) & 1U) == 0) {
        entry->kept |= static_cast<std::uint8_t>(1U << fill_);
        ++kept_holds_[fill_];
      }
      entry->buffer.emplace_back(msg.from, kept_[fill_].store(inner));
    } else if (channel < mailboxes_.size() && mailboxes_[channel] != nullptr) {
      Mailbox& box = *mailboxes_[channel];
      if (box.messages.empty()) box.bytes.reset();  // earlier takes are dead
      box.messages.emplace_back(msg.from, box.bytes.store(inner));
    }
    // Unknown channel: drop.
  }
}

void InstanceHub::step_due(net::Context& ctx) {
  const Round now = ctx.round();
  for (std::uint32_t channel = 0; channel < entries_.size(); ++channel) {
    Entry& entry = entries_[channel];
    if (entry.instance == nullptr) continue;
    if (!steps_at(entry.base, now)) continue;
    const std::uint32_t s = (now - entry.base) / stride_;
    if (!entry.instance->done() && s <= entry.instance->duration()) {
      const Participants& parts = participants_[entry.participants];
      InstanceIo io(*this, ctx, channel, parts.ids, parts.mask);
      entry.instance->step(io, s, entry.buffer);
    }
    for (std::uint8_t i = 0; i < 2; ++i) kept_holds_[i] -= (entry.kept >> i) & 1U;
    entry.kept = 0;
    entry.buffer.clear();  // keeps its capacity
  }
}

bool InstanceHub::all_done() const {
  return std::all_of(entries_.begin(), entries_.end(), [](const Entry& entry) {
    return entry.instance == nullptr || entry.instance->done();
  });
}

Instance& InstanceHub::instance(std::uint32_t channel) {
  Entry* entry = entry_at(channel);
  require(entry != nullptr, "InstanceHub::instance: unknown channel");
  return *entry->instance;
}

const Instance& InstanceHub::instance(std::uint32_t channel) const {
  const Entry* entry = entry_at(channel);
  require(entry != nullptr, "InstanceHub::instance: unknown channel");
  return *entry->instance;
}

}  // namespace bsm::broadcast
