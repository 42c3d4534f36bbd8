#include "net/engine.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

#include "common/hash.hpp"
#include "obs/recorder.hpp"

namespace bsm::net {

namespace {

/// First PayloadArena block. A k = 3 run sends about 20 KB in all, so a
/// small first block keeps short runs cheap; busy rounds grow the arena
/// geometrically and keep the blocks.
constexpr std::size_t kFirstBlockBytes = 4096;

/// First intern-table size. The sweep and fuzz workloads build a fresh
/// engine per small cell, so the table starts small and doubles whenever
/// it is half full.
constexpr std::size_t kFirstInternSlots = 64;

/// The engine-backed context: validates channel use and collects sends.
class EngineContext final : public Context {
 public:
  EngineContext(PartyId self, Round round, const Topology& topo, const crypto::Pki& pki,
                crypto::Signer signer, std::vector<Envelope>& out, PayloadArena& bytes,
                bool corrupt)
      : self_(self),
        round_(round),
        topo_(&topo),
        pki_(&pki),
        signer_(signer),
        out_(&out),
        bytes_(&bytes),
        corrupt_(corrupt) {}

  void send(PartyId to, ByteView payload) override { multicast({&to, 1}, payload); }

  void multicast(std::span<const PartyId> to, ByteView payload) override {
    // The payload goes through the arena's intern table once, at the first
    // recipient with a channel: a payload any party already sent this
    // round (a broadcast's earlier sends, a relayed message's k forwards,
    // honest parties' identical votes) reuses that copy and its digest.
    // Every envelope of a payload shares one view and one digest, which
    // the delivery fold consumes.
    PayloadArena::Interned stored;
    bool interned = false;
    for (PartyId p : to) {
      if (p != self_ && !topo_->connected(self_, p)) {
        // Honest code sending along a nonexistent channel is a bug;
        // byzantine code gets the message silently dropped (it has no
        // such channel).
        require(corrupt_, "Context::send: honest process used a nonexistent channel");
        continue;
      }
      if (!interned) {
        stored = bytes_->intern(payload);
        interned = true;
      }
      out_->push_back(Envelope{self_, p, round_, stored.bytes, stored.digest});
    }
  }

  [[nodiscard]] Round round() const override { return round_; }
  [[nodiscard]] PartyId self() const override { return self_; }
  [[nodiscard]] const Topology& topology() const override { return *topo_; }
  [[nodiscard]] const crypto::Signer& signer() const override { return signer_; }
  [[nodiscard]] const crypto::Pki& pki() const override { return *pki_; }

 private:
  PartyId self_;
  Round round_;
  const Topology* topo_;
  const crypto::Pki* pki_;
  crypto::Signer signer_;
  std::vector<Envelope>* out_;
  PayloadArena* bytes_;
  bool corrupt_;
};

}  // namespace

ByteView PayloadArena::store(ByteView bytes) {
  const std::size_t n = bytes.size();
  if (n == 0) return {};
  while (block_ < blocks_.size() && blocks_[block_].size - used_ < n) {
    ++block_;
    used_ = 0;
  }
  if (block_ == blocks_.size()) {
    const std::size_t size =
        std::max(n, blocks_.empty() ? kFirstBlockBytes : 2 * blocks_.back().size);
    blocks_.push_back(Block{std::make_unique_for_overwrite<std::uint8_t[]>(size), size});
    ASAN_POISON_MEMORY_REGION(blocks_.back().data.get(), size);
  }
  std::uint8_t* const out = blocks_[block_].data.get() + used_;
  ASAN_UNPOISON_MEMORY_REGION(out, n);
  std::memcpy(out, bytes.data(), n);
  used_ += n;
  return {out, n};
}

PayloadArena::Interned PayloadArena::intern(ByteView bytes) {
  if (bytes.empty()) return {{}, fnv1a64(bytes)};
  if (slots_.empty()) slots_.resize(kFirstInternSlots);
  const std::uint64_t key = content_key(bytes);
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(key) & mask;
  for (; slots_[i].gen == gen_; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.key == key && s.size == bytes.size() &&
        std::memcmp(s.data, bytes.data(), bytes.size()) == 0) {
      return {{s.data, s.size}, s.digest};
    }
  }
  const ByteView stored = store(bytes);
  const std::uint64_t digest = fnv1a64(stored);
  slots_[i] = Slot{stored.data(), static_cast<std::uint32_t>(stored.size()), gen_, key, digest};
  if (2 * ++interned_ > slots_.size()) grow_table();
  return {stored, digest};
}

void PayloadArena::grow_table() {
  std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(2 * slots_.size()));
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.gen != gen_) continue;
    std::size_t i = static_cast<std::size_t>(s.key) & mask;
    while (slots_[i].gen == gen_) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

void PayloadArena::reset() noexcept {
  for (const Block& b : blocks_) ASAN_POISON_MEMORY_REGION(b.data.get(), b.size);
  block_ = 0;
  used_ = 0;
  interned_ = 0;
  if (++gen_ == 0) {  // wrapped: forget every slot so no stale one matches
    for (Slot& s : slots_) s.gen = 0;
    gen_ = 1;
  }
}

void Mailbox::assemble(std::vector<Envelope>&& sends, std::size_t n) {
  // Group by recipient, ordered by sender id, ties in deterministic
  // generation order — the engine's historical (and contractual) delivery
  // order. The engine steps parties in ascending id and every send is
  // appended by the stepped party, so `sends` arrives already ordered by
  // sender; a stable counting scatter by recipient therefore produces
  // exactly what stable_sort by (to, from) produced, in one O(n) pass.
  offsets_.assign(n + 1, 0);
  for (const auto& env : sends) {
    require(env.to < n, "Mailbox::assemble: recipient out of range");
    ++offsets_[env.to + 1];
  }
  for (std::size_t i = 1; i <= n; ++i) offsets_[i] += offsets_[i - 1];

  cursor_.assign(offsets_.begin(), offsets_.end() - 1);
  // The scatter target only ever grows: every slot below offsets_[n] is
  // written before it is read, so constructing the slots a round already
  // holds again would be wasted work. The arena's own size may therefore
  // exceed this round's envelope count, which offsets_ bounds.
  if (scatter_.size() < sends.size()) scatter_.resize(sends.size());
  for (auto& env : sends) scatter_[cursor_[env.to]++] = env;
  arena_ = std::move(scatter_);
  scatter_ = std::move(sends);  // keeps its slots and capacity in rotation
}

std::vector<Envelope> Mailbox::recycle() {
  std::vector<Envelope> buffer = std::move(arena_);
  buffer.clear();
  return buffer;
}

Engine::Engine(Topology topo, std::uint64_t pki_seed)
    : topo_(topo), pki_(topo.n(), pki_seed), slots_(topo.n()) {}

void Engine::set_delivery_policy(std::unique_ptr<DeliveryPolicy> policy) {
  require(carried_.empty(), "Engine::set_delivery_policy: messages still carried");
  policy_ = std::move(policy);
}

void Engine::set_process(PartyId id, std::unique_ptr<Process> process) {
  require(id < slots_.size(), "Engine::set_process: bad id");
  slots_[id].process = std::move(process);
}

void Engine::set_corrupt(PartyId id, std::unique_ptr<Process> strategy) {
  require(id < slots_.size(), "Engine::set_corrupt: bad id");
  slots_[id].process = std::move(strategy);
  slots_[id].corrupt = true;
}

void Engine::schedule_corruption(PartyId id, Round when, std::unique_ptr<Process> strategy) {
  require(id < slots_.size(), "Engine::schedule_corruption: bad id");
  pending_corruptions_[id] = PendingCorruption{when, std::move(strategy)};
}

bool Engine::is_corrupt(PartyId id) const {
  require(id < slots_.size(), "Engine::is_corrupt: bad id");
  return slots_[id].corrupt;
}

std::vector<bool> Engine::corrupt_mask() const {
  std::vector<bool> mask(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) mask[i] = slots_[i].corrupt;
  return mask;
}

Process& Engine::process(PartyId id) {
  require(id < slots_.size() && slots_[id].process != nullptr, "Engine::process: none installed");
  return *slots_[id].process;
}

const Process& Engine::process(PartyId id) const {
  require(id < slots_.size() && slots_[id].process != nullptr, "Engine::process: none installed");
  return *slots_[id].process;
}

std::uint64_t Engine::view_hash(PartyId id) const {
  require(id < slots_.size(), "Engine::view_hash: bad id");
  return slots_[id].view;
}

void Engine::deliver_and_step() {
  // Observability side channel: timestamps feed per-phase histograms and
  // the optional trace only — nothing here reads the recorder back.
  obs::Recorder* const rec = obs::current();
  std::uint64_t t0 = rec ? rec->now_ns() : 0;

  // Fire scheduled corruptions that are due this round.
  for (auto it = pending_corruptions_.begin(); it != pending_corruptions_.end();) {
    if (it->second.when <= round_) {
      slots_[it->first].process = std::move(it->second.strategy);
      slots_[it->first].corrupt = true;
      it = pending_corruptions_.erase(it);
    } else {
      ++it;
    }
  }

  // Batch last round's sends into the mailbox; their payloads stay in
  // deliver_bytes_. With a delivery policy installed, the batch is the
  // policy's verdict over fresh sends plus the carried envelopes due this
  // round.
  if (policy_ == nullptr) {
    mailbox_.assemble(std::move(in_flight_), slots_.size());
    if (rec != nullptr) {
      const std::uint64_t t1 = rec->now_ns();
      rec->record(obs::Span::EngineAssemble, t0, t1, round_);
      t0 = t1;
    }
  } else {
    assemble_with_policy();
    if (rec != nullptr) {
      const std::uint64_t t1 = rec->now_ns();
      rec->record(obs::Span::EnginePolicy, t0, t1, round_);
      t0 = t1;
    }
  }

  // Fold delivered messages into each recipient's view digest, then count
  // them and show them to the observer in the same recipient-major order.
  fold_views();
  stats_.delivered_messages += mailbox_.total();
  for (PartyId id = 0; id < slots_.size(); ++id) {
    for (const auto& env : mailbox_.inbox(id)) {
      stats_.delivered_bytes += env.payload.size();
      if (observer_) observer_(env);
    }
  }
  if (rec != nullptr) {
    const std::uint64_t t1 = rec->now_ns();
    rec->record(obs::Span::EngineDeliver, t0, t1, round_);
    t0 = t1;
  }

  // Step every installed process against its arena slice. The send arena
  // last held the payloads delivered a round ago, which are dead now.
  send_bytes_.reset();
  std::vector<Envelope> outgoing = std::move(scratch_);
  outgoing.clear();
  for (PartyId id = 0; id < slots_.size(); ++id) {
    auto& slot = slots_[id];
    if (slot.process == nullptr) continue;
    EngineContext ctx(id, round_, topo_, pki_, pki_.signer_for(id), outgoing, send_bytes_,
                      slot.corrupt);
    slot.process->on_round(ctx, mailbox_.inbox(id));
  }

  stats_.messages += outgoing.size();
  for (const auto& env : outgoing) stats_.bytes += env.payload.size();
  scratch_ = mailbox_.recycle();
  in_flight_ = std::move(outgoing);
  std::swap(send_bytes_, deliver_bytes_);
  if (rec != nullptr) {
    rec->record(obs::Span::EngineOnRound, t0, rec->now_ns(), round_);
    rec->count(obs::Counter::EngineRounds);
  }
  ++round_;
  ++engine_round_;
}

void Engine::fold_views() {
  // Each recipient's view digest is one serial hash_combine chain: the
  // round, then (sender, payload digest) per delivered envelope in inbox
  // order. The chains of four recipients are independent, so they advance
  // in lockstep over their common inbox prefix, and the multiplies of one
  // overlap the others'; each chain still folds exactly its own values in
  // its own order.
  const auto digest = [](const Envelope& env) {
    return env.payload_digest != 0 ? env.payload_digest : fnv1a64(env.payload);
  };
  const auto fold_tail = [&](std::uint64_t v, Inbox in, std::size_t from) {
    for (std::size_t i = from; i < in.size(); ++i) {
      v = hash_combine(hash_combine(v, in[i].from), digest(in[i]));
    }
    return v;
  };
  constexpr std::size_t kLanes = 4;
  const std::size_t n = slots_.size();
  std::size_t id = 0;
  for (; id + kLanes <= n; id += kLanes) {
    Inbox in[kLanes];
    std::uint64_t v[kLanes];
    std::size_t common = SIZE_MAX;
    for (std::size_t j = 0; j < kLanes; ++j) {
      in[j] = mailbox_.inbox(static_cast<PartyId>(id + j));
      v[j] = hash_combine(slots_[id + j].view, round_);
      common = std::min(common, in[j].size());
    }
    for (std::size_t i = 0; i < common; ++i) {
      for (std::size_t j = 0; j < kLanes; ++j) v[j] = hash_combine(v[j], in[j][i].from);
      for (std::size_t j = 0; j < kLanes; ++j) v[j] = hash_combine(v[j], digest(in[j][i]));
    }
    for (std::size_t j = 0; j < kLanes; ++j) slots_[id + j].view = fold_tail(v[j], in[j], common);
  }
  for (; id < n; ++id) {
    const std::uint64_t v = hash_combine(slots_[id].view, round_);
    slots_[id].view = fold_tail(v, mailbox_.inbox(static_cast<PartyId>(id)), 0);
  }
}

void Engine::assemble_with_policy() {
  // Merge order before the sort: carried envelopes due now (in the
  // deterministic order they were delayed in), then this round's fresh
  // sends (sender order). At equal (rank, sender) the stable sort keeps
  // exactly this order, so a delayed message lands *before* the sender's
  // newer traffic in the recipient's inbox.
  // A carried envelope's bytes are copied into the arena being delivered,
  // so every envelope in the mailbox views the same round's arena.
  auto& merged = deliver_scratch_;
  merged.clear();
  std::size_t keep = 0;
  for (std::size_t i = 0; i < carried_.size(); ++i) {
    if (carried_[i].due <= round_) {
      merged.push_back(std::move(carried_[i]));
      merged.back().env.payload = deliver_bytes_.store(merged.back().bytes);
    } else {
      if (keep != i) carried_[keep] = std::move(carried_[i]);  // self-move guard
      ++keep;
    }
  }
  carried_.resize(keep);

  for (auto& env : in_flight_) {
    const DeliveryVerdict v = policy_->on_envelope(round_, env);
    switch (v.action) {
      case DeliveryVerdict::Action::Deliver:
        merged.push_back({env, round_, v.rank, {}});
        break;
      case DeliveryVerdict::Action::Delay: {
        // Saturate: a delay past the last round never comes due.
        const Round by = std::max<Round>(v.delay, 1);
        const Round due = by > UINT32_MAX - round_ ? UINT32_MAX : round_ + by;
        carried_.push_back({env, due, v.rank, Bytes(env.payload.begin(), env.payload.end())});
        break;
      }
      case DeliveryVerdict::Action::Drop:
        ++stats_.dropped_messages;
        stats_.dropped_bytes += env.payload.size();
        break;
    }
  }

  // (rank, sender id) orders each recipient's inbox; Mailbox::assemble's
  // counting scatter is stable per recipient, so with every verdict
  // Deliver/rank 0 the native (sender id, send order) contract holds
  // byte for byte.
  std::stable_sort(merged.begin(), merged.end(), [](const Carried& a, const Carried& b) {
    return ((static_cast<std::uint64_t>(a.rank) << 32) | a.env.from) <
           ((static_cast<std::uint64_t>(b.rank) << 32) | b.env.from);
  });

  std::vector<Envelope> deliver = std::move(in_flight_);  // reuse the send buffer
  deliver.clear();
  deliver.reserve(merged.size());
  for (const auto& c : merged) deliver.push_back(c.env);
  mailbox_.assemble(std::move(deliver), slots_.size());
  in_flight_.clear();
}

Engine::RunProgress Engine::run_guarded(Round rounds, Round max_engine_rounds) {
  RunProgress prog;
  const Round start = engine_round_;
  while (prog.protocol_rounds < rounds) {
    if (max_engine_rounds != 0 && engine_round_ >= max_engine_rounds) {
      prog.limit_hit = true;
      break;
    }
    if (policy_ != nullptr && policy_->stall_round(round_)) {
      ++engine_round_;  // stalled tick: only the clock advances
      continue;
    }
    deliver_and_step();
    ++prog.protocol_rounds;
  }
  prog.engine_rounds = engine_round_ - start;
  return prog;
}

}  // namespace bsm::net
