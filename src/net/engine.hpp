// Deterministic lock-step synchronous network engine.
//
// One engine round models the paper's delay bound Delta: every message sent
// in round r is delivered at round r+1. The engine also implements the
// corruption model: parties can be marked byzantine from the start or have
// a corruption scheduled mid-run (the adaptive adversary), at which point
// the adversarial strategy process replaces the honest one.
//
// Delivery is batched: each round's envelopes live in one contiguous arena
// (the Mailbox), grouped by recipient and ordered by sender, and every
// process receives its inbox as a zero-copy slice of that arena. Payload
// bytes live in a second, per-round byte arena (PayloadArena) that interns
// them: each distinct payload of a round is copied in and FNV-hashed once,
// whichever parties send it (a broadcast, the k identical forwards of a
// relayed message, the identical values honest parties broadcast), and
// envelopes carry views of that one copy. The intern table is the only
// dedupe: every Context::send looks its bytes up, and a Context::multicast
// looks them up once for all its recipients. Both arenas are recycled round
// over round, so steady-state sends and deliveries allocate nothing.
//
// For the impossibility experiments the engine records, per party, a hash
// of everything the party has received — two runs are indistinguishable to
// party P exactly when P's view hashes agree round for round. Each view
// hash is one serial hash_combine chain; the delivery fold advances four
// recipients' chains side by side, which changes no chain's values or
// order.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "crypto/pki.hpp"
#include "net/delivery.hpp"
#include "net/process.hpp"
#include "net/topology.hpp"

namespace bsm::net {

/// Traffic totals for benchmark harnesses and sweep reports. The sent side
/// counts at the send call, the delivered side at the round an envelope
/// actually reached its recipient (later than send round + 1 exactly when
/// a DeliveryPolicy delays it), and the dropped side at a policy Drop
/// verdict. Under any schedule
///   messages == delivered + dropped + still-carried + last round's sends
/// (asserted by tests/delivery_test.cpp).
///
/// Determinism: counting happens inside the lock-step round, so two runs
/// of the same (config, seeds, adversary plan) yield identical
/// TrafficStats (operator== is byte-exact). The bench harness folds these
/// totals into its repeat-determinism digest, and the sweep layer's
/// parallel == serial guarantee includes them. Only totals are kept, so
/// the stats are O(1) at any n; a harness that needs a per-channel or
/// per-round breakdown tallies it with Engine::set_observer or by diffing
/// the totals around a round.
struct TrafficStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t delivered_messages = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t dropped_messages = 0;  ///< policy Drop verdicts
  std::uint64_t dropped_bytes = 0;

  bool operator==(const TrafficStats&) const = default;
};

/// One round's deliveries as a single flat arena: envelopes grouped by
/// recipient, ordered by sender id within each group (ties keep send
/// order). Buffers are recycled round over round — steady state makes no
/// envelope allocations. Envelopes are small values; their payload bytes
/// stay in the PayloadArena they were sent into.
///
/// The (sender id, send order) delivery order is THE determinism contract
/// of the engine: it fixes each party's inbox byte-for-byte given the
/// round's sends, which makes per-party view hashes reproducible across
/// runs and thread schedules. Protocol code may rely on it; nothing may
/// weaken it without breaking the impossibility experiments (view-hash
/// indistinguishability) and the sweep/bench determinism checks.
class Mailbox {
 public:
  /// Take ownership of last round's sends and index them by recipient.
  /// `sends` is left empty (its buffer is reclaimed via `recycle`).
  void assemble(std::vector<Envelope>&& sends, std::size_t n);

  /// The slice of the arena addressed to `id`. Valid until the next
  /// assemble().
  [[nodiscard]] Inbox inbox(PartyId id) const {
    return Inbox(arena_.data() + offsets_[id], offsets_[id + 1] - offsets_[id]);
  }

  [[nodiscard]] std::size_t total() const noexcept {
    return offsets_.empty() ? 0 : offsets_.back();
  }

  /// Surrender the arena buffer for reuse as next round's send buffer.
  [[nodiscard]] std::vector<Envelope> recycle();

 private:
  /// This round's envelopes in its first total() slots; the slots past
  /// them hold dead envelopes of earlier rounds.
  std::vector<Envelope> arena_;
  std::vector<std::size_t> offsets_;  ///< n + 1 arena offsets, one per recipient
  std::vector<Envelope> scatter_;     ///< counting-sort target; only grows
  std::vector<std::size_t> cursor_;   ///< per-recipient scatter cursors
};

/// One round's payload bytes. store() copies bytes in and returns a view
/// that stays valid until the next reset(): a block never moves once its
/// bytes are handed out. Blocks are kept and reused round over round, grow
/// geometrically from a small first block, and are not zero-filled.
///
/// intern() is store() deduplicated within the round: bytes equal to a
/// payload interned since the last reset() get that payload's view and
/// fnv1a64 digest back instead of a new copy, so each distinct content is
/// copied and hashed once however many parties send it. The lookup table
/// is open-addressed by content_key (never part of a transcript) with a
/// full-bytes comparison on every key match, starts at 64 slots, grows
/// with load, and is emptied by reset() in O(1) (a generation bump).
///
/// Under AddressSanitizer, reset() poisons every block and store()
/// unpoisons exactly the bytes it hands out, so a payload view read after
/// its round is reported as use-after-poison instead of silently reading
/// a later round's bytes.
class PayloadArena {
 public:
  /// A stored payload and its fnv1a64 digest.
  struct Interned {
    ByteView bytes;
    std::uint64_t digest = 0;
  };

  [[nodiscard]] ByteView store(ByteView bytes);
  [[nodiscard]] Interned intern(ByteView bytes);
  void reset() noexcept;

 private:
  struct Block {
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t size = 0;
  };
  /// An intern-table entry; live only while `gen` equals the arena's.
  struct Slot {
    const std::uint8_t* data = nullptr;
    std::uint32_t size = 0;
    std::uint32_t gen = 0;
    std::uint64_t key = 0;
    std::uint64_t digest = 0;
  };

  void grow_table();

  std::vector<Block> blocks_;
  std::size_t block_ = 0;  ///< block the next store() writes into
  std::size_t used_ = 0;   ///< bytes handed out from blocks_[block_]

  std::vector<Slot> slots_;   ///< intern table, power-of-two sized
  std::size_t interned_ = 0;  ///< live slots this generation
  std::uint32_t gen_ = 1;     ///< 0 marks a never-used slot
};

class Engine {
 public:
  Engine(Topology topo, std::uint64_t pki_seed);

  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }
  [[nodiscard]] const crypto::Pki& pki() const noexcept { return pki_; }

  /// Install the code a party runs from round 0.
  void set_process(PartyId id, std::unique_ptr<Process> process);

  /// Mark `id` byzantine from the start; its process is the adversary's.
  void set_corrupt(PartyId id, std::unique_ptr<Process> strategy);

  /// Adaptive corruption: at the start of `when`, `id` becomes byzantine
  /// and `strategy` takes over (the honest process is discarded).
  void schedule_corruption(PartyId id, Round when, std::unique_ptr<Process> strategy);

  /// What a run_guarded() call did.
  struct RunProgress {
    Round protocol_rounds = 0;  ///< protocol rounds completed this call
    Round engine_rounds = 0;    ///< engine ticks consumed (>= protocol_rounds)
    bool limit_hit = false;     ///< stopped by the engine-round cap instead
  };

  /// The engine's run loop: complete `rounds` protocol rounds
  /// [current, current + rounds), consulting the delivery policy's
  /// stall_round() before each — a stalled tick advances only the
  /// engine-round clock (nothing delivers, nobody steps, current_round()
  /// is frozen) — and hard-stop once the cumulative engine-round clock
  /// reaches `max_engine_rounds` (0 = no cap; with no cap an ever-stalling
  /// policy never returns). With no policy, or one that never stalls,
  /// every engine tick is a protocol round.
  RunProgress run_guarded(Round rounds, Round max_engine_rounds = 0);

  [[nodiscard]] Round current_round() const noexcept { return round_; }

  /// Engine ticks consumed so far: protocol rounds plus stalled rounds.
  /// Tracks current_round() exactly until the first stall.
  [[nodiscard]] Round engine_rounds() const noexcept { return engine_round_; }
  [[nodiscard]] bool is_corrupt(PartyId id) const;
  [[nodiscard]] std::vector<bool> corrupt_mask() const;

  /// The installed process (for reading protocol outputs after a run).
  [[nodiscard]] Process& process(PartyId id);
  [[nodiscard]] const Process& process(PartyId id) const;

  template <typename T>
  [[nodiscard]] T& process_as(PartyId id) {
    return dynamic_cast<T&>(process(id));
  }

  [[nodiscard]] const TrafficStats& stats() const noexcept { return stats_; }

  /// Digest of everything `id` has received so far (its "view"). Runs with
  /// equal view hashes are indistinguishable to that party. Reproducible
  /// bit-for-bit across runs and thread counts (a consequence of the
  /// Mailbox delivery order) — the Lemma 13 experiment compares attack
  /// views against crash-baseline views with ==, and the bench harness
  /// folds view hashes into its repeat-determinism digests.
  [[nodiscard]] std::uint64_t view_hash(PartyId id) const;

  /// Wiretap for tests and tooling: called once per *delivered* envelope
  /// (at the start of the round it arrives in). Observation only — the
  /// observer cannot alter traffic. The envelope's payload view is valid
  /// for the rest of that round; an observer that keeps bytes copies them.
  using Observer = std::function<void(const Envelope&)>;
  void set_observer(Observer observer) { observer_ = std::move(observer); }

  /// Install a delivery schedule (see net/delivery.hpp). nullptr (the
  /// default) keeps the historical synchronous fast path — sends move
  /// straight into the mailbox, byte-identical to every pre-policy
  /// transcript. Install before the first round; swapping mid-run with
  /// messages still carried is a caller bug.
  void set_delivery_policy(std::unique_ptr<DeliveryPolicy> policy);
  [[nodiscard]] const DeliveryPolicy* delivery_policy() const noexcept { return policy_.get(); }

  /// Envelopes a policy delayed past the current round and that are still
  /// waiting to deliver (0 on the synchronous path).
  [[nodiscard]] std::size_t pending_carried() const noexcept { return carried_.size(); }

 private:
  struct Slot {
    std::unique_ptr<Process> process;
    bool corrupt = false;
    std::uint64_t view = 0x9e3779b97f4a7c15ULL;
  };

  struct PendingCorruption {
    Round when = 0;
    std::unique_ptr<Process> strategy;
  };

  /// One policy-delayed envelope waiting for its delivery round. A delayed
  /// envelope outlives the arena it was sent into, so it owns a copy of
  /// its payload in `bytes`, and `env.payload` is re-pointed into the
  /// delivering arena when it comes due. Fresh sends in the merge buffer
  /// leave `bytes` empty.
  struct Carried {
    Envelope env;
    Round due = 0;
    std::uint32_t rank = 0;
    Bytes bytes;
  };

  void deliver_and_step();
  void assemble_with_policy();
  /// Fold this round's mailbox into every recipient's view digest.
  void fold_views();

  Topology topo_;
  crypto::Pki pki_;
  std::vector<Slot> slots_;
  std::map<PartyId, PendingCorruption> pending_corruptions_;
  std::vector<Envelope> in_flight_;
  std::vector<Envelope> scratch_;  ///< recycled send buffer
  Mailbox mailbox_;
  /// Payload bytes: this round's sends, and the round being delivered.
  PayloadArena send_bytes_;
  PayloadArena deliver_bytes_;
  Round round_ = 0;         ///< protocol rounds completed
  Round engine_round_ = 0;  ///< engine ticks, stalled rounds included
  TrafficStats stats_;
  Observer observer_;
  std::unique_ptr<DeliveryPolicy> policy_;  ///< nullptr = synchronous fast path
  std::vector<Carried> carried_;            ///< policy-delayed envelope arena
  std::vector<Carried> deliver_scratch_;    ///< per-round merge buffer, recycled
};

}  // namespace bsm::net
