// Broadcast kernel microbenchmarks — the flat structures behind every
// protocol inner loop:
//
//   broadcast/tally_hot_loop — TallyArena rebuilt over synthetic mixed
//   inboxes with quorum predicates applied per bucket, the exact shape of
//   one phase-king sub-round, iterated across rounds on one reused arena.
//
//   broadcast/quorum_predicates — devirtualized threshold + product
//   predicates over pseudo-random holder bitsets (two masked popcounts per
//   call; the seed implementation virtual-dispatched over std::set).
//
//   broadcast/chain_verify_cold vs chain_verify_cached — a Dolev-Strong
//   run under replayed-chain spam (each spam copy repeats the same root
//   signature grafted onto a forged value) with the VerifiedChainCache
//   disabled vs enabled; the cached variant verifies each signature once.
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "adversary/strategies.hpp"
#include "broadcast/dolev_strong.hpp"
#include "broadcast/instance.hpp"
#include "broadcast/quorums.hpp"
#include "broadcast/tally.hpp"
#include "broadcast/wire.hpp"
#include "cases/cases.hpp"
#include "common/hash.hpp"
#include "common/party_set.hpp"
#include "common/rng.hpp"
#include "core/bench.hpp"
#include "net/engine.hpp"

namespace bsm::benchcases {
namespace {

using namespace bsm;
using namespace bsm::broadcast;
using core::BenchContext;
using core::BenchRun;

// -------------------------------------------------------- tally hot loop

/// One phase-king sub-round, `rounds` times over: rebuild the tally from a
/// mixed inbox (valid votes, duplicate senders, junk) and apply both quorum
/// predicates to every bucket, exactly as the sub==1/sub==2 steps do.
[[nodiscard]] BenchRun run_tally_loop(std::uint32_t n_parties, std::uint32_t rounds) {
  BenchRun run;
  Rng rng(n_parties);
  const ProductQuorums quorums(n_parties / 2, n_parties / 6, n_parties / 6);

  // A persistent per-round inbox pool: distinct values force bucket merges
  // and splits, junk and duplicates exercise the reject paths. AppMsg
  // bodies are views, so `bodies` owns the bytes (a deque never moves them).
  std::deque<Bytes> bodies;
  std::vector<std::vector<net::AppMsg>> inboxes;
  Writer scratch;
  for (std::uint32_t r = 0; r < 8; ++r) {
    std::vector<net::AppMsg> inbox;
    for (std::uint32_t i = 0; i < 2 * n_parties; ++i) {
      const PartyId from = static_cast<PartyId>(rng.below(n_parties));
      if (rng.chance(0.1)) {
        inbox.emplace_back(from, bodies.emplace_back(rng.random_bytes(3)));
        continue;
      }
      const Bytes value{static_cast<std::uint8_t>(rng.below(4))};
      const ByteView kv = encode_kv(scratch, MsgKind::Value, value);
      inbox.emplace_back(from, bodies.emplace_back(kv.begin(), kv.end()));
    }
    inboxes.push_back(std::move(inbox));
  }

  TallyArena arena;
  for (std::uint32_t r = 0; r < rounds; ++r) {
    arena.build(inboxes[r % inboxes.size()], MsgKind::Value);
    for (const std::uint32_t idx : arena.ordered()) {
      const auto& bucket = arena.bucket(idx);
      // The value digest the tally keyed its buckets by until it switched
      // to content_key; folding it keeps this case's digest unchanged.
      run.digest = hash_combine(run.digest, fnv1a64(bucket.value));
      run.digest = hash_combine(run.digest, bucket.senders.count());
      run.digest = hash_combine(run.digest, quorums.complement_corruptible(bucket.senders));
      run.digest = hash_combine(run.digest, quorums.has_honest(bucket.senders));
    }
    ++run.cells;
    ++run.rounds;
  }
  return run;
}

// ----------------------------------------------------- quorum predicates

[[nodiscard]] BenchRun run_quorum_predicates(std::uint32_t k, std::uint32_t iters) {
  BenchRun run;
  Rng rng(k);
  const ProductQuorums product(k, k / 3, k / 2);
  const ThresholdQuorums threshold(2 * k, (2 * k - 1) / 3);

  // A fixed pool of holder sets; the loop measures pure predicate cost.
  std::vector<core::PartySet> holders(16);
  for (auto& h : holders) {
    for (std::uint32_t i = 0, m = static_cast<std::uint32_t>(rng.below(2 * k + 1)); i < m; ++i) {
      h.insert(static_cast<PartyId>(rng.below(2 * k)));
    }
  }

  for (std::uint32_t i = 0; i < iters; ++i) {
    const auto& h = holders[i % holders.size()];
    run.digest = hash_combine(run.digest, product.complement_corruptible(h));
    run.digest = hash_combine(run.digest, product.has_honest(h));
    run.digest = hash_combine(run.digest, threshold.complement_corruptible(h));
    run.digest = hash_combine(run.digest, threshold.has_honest(h));
  }
  run.cells = iters;
  return run;
}

// ------------------------------------------------- chain verify cold/hot

/// Hosts one Dolev-Strong instance per party.
class DsHost final : public net::Process {
 public:
  DsHost(std::vector<PartyId> participants, std::unique_ptr<Instance> instance)
      : hub_(net::RelayMode::Direct, 1) {
    hub_.add_instance(0, 0, std::move(participants), std::move(instance));
  }
  void on_round(net::Context& ctx, net::Inbox inbox) override {
    hub_.ingest(ctx, inbox);
    hub_.step_due(ctx);
  }
  [[nodiscard]] const Instance& instance() const { return hub_.instance(0); }

 private:
  InstanceHub hub_;
};

/// Replays the sender's captured root signature over forged values, many
/// copies per round — each copy forces a cache-less receiver to re-verify
/// the same (invalid for the forged value) root signature.
class ChainReplaySpam final : public net::Process {
 public:
  explicit ChainReplaySpam(std::uint32_t copies) : copies_(copies) {}

  void on_round(net::Context& ctx, net::Inbox inbox) override {
    if (forged_.empty()) {
      for (const auto& env : inbox) {
        Reader r(env.payload);
        if (r.u8() != 0) continue;  // transport kDirect
        const Bytes body = r.bytes();
        if (!r.done()) continue;
        Reader rb(body);
        if (rb.u32() != 0) continue;  // hub channel header
        const Bytes inner = rb.bytes();
        if (!rb.done()) continue;
        Reader rc(inner);
        if (rc.u8() != static_cast<std::uint8_t>(MsgKind::Chain)) continue;
        (void)rc.bytes();
        if (rc.u32() != 1) continue;
        const PartyId root = rc.u32();
        const auto root_sig = crypto::Signature::decode(rc);
        if (!rc.done()) continue;
        Writer chain;
        chain.u8(static_cast<std::uint8_t>(MsgKind::Chain));
        chain.bytes(Bytes(1024, 0x63));  // large forged value: every root
                                         // re-verification hashes all of it
        chain.u32(2);
        chain.u32(root);
        root_sig.encode(chain);
        chain.u32(ctx.self());
        crypto::Signature{ctx.self(), 0x5eedULL}.encode(chain);
        Writer frame;
        frame.u32(0);
        frame.bytes(chain.data());
        Writer wire;
        wire.u8(0);
        wire.bytes(frame.data());
        forged_ = wire.take();
        break;
      }
    }
    if (!forged_.empty()) {
      for (PartyId to = 0; to < ctx.topology().n(); ++to) {
        for (std::uint32_t c = 0; c < copies_; ++c) ctx.send(to, forged_);
      }
    }
  }

 private:
  std::uint32_t copies_;
  Bytes forged_;
};

[[nodiscard]] BenchRun run_chain_verify(std::uint32_t n_parties, std::uint32_t spam_copies,
                                        bool cache_on) {
  BenchRun run;
  const std::uint32_t t = n_parties - 2;
  const std::uint32_t k = (n_parties + 1) / 2;
  const Bytes value{1, 2, 3, 4};
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, k), 1);
  std::vector<PartyId> parts;
  for (PartyId id = 0; id < n_parties; ++id) parts.push_back(id);
  for (PartyId id = 0; id < 2 * k; ++id) {
    if (id >= n_parties) {
      engine.set_process(id, std::make_unique<adversary::Silent>());
    } else if (id == n_parties - 1) {
      engine.set_corrupt(id, std::make_unique<ChainReplaySpam>(spam_copies));
    } else {
      engine.set_process(
          id, std::make_unique<DsHost>(parts, std::make_unique<DolevStrong>(
                                                  0, t, id == 0 ? value : Bytes{}, cache_on)));
    }
  }
  engine.run_guarded(t + 2);

  for (PartyId id = 0; id + 1 < n_parties; ++id) {
    const auto& host = dynamic_cast<const DsHost&>(engine.process(id));
    run.ok &= host.instance().done() && host.instance().output() == value;
    const auto& ds = dynamic_cast<const DolevStrong&>(host.instance());
    run.messages += ds.verifies();
    run.digest = hash_combine(run.digest, engine.view_hash(id));
  }
  run.cells = 1;
  run.rounds = t + 2;
  run.bytes = engine.stats().bytes;
  return run;
}

}  // namespace

void register_broadcast_kernel() {
  core::register_bench({"broadcast/tally_hot_loop", [](const BenchContext&) {
                          return run_tally_loop(/*n_parties=*/48, /*rounds=*/20000);
                        }});
  core::register_bench({"broadcast/quorum_predicates", [](const BenchContext&) {
                          return run_quorum_predicates(/*k=*/40, /*iters=*/400000);
                        }});
  core::register_bench({"broadcast/chain_verify_cold", [](const BenchContext&) {
                          return run_chain_verify(/*n_parties=*/12, /*spam_copies=*/256,
                                                  /*cache_on=*/false);
                        }});
  core::register_bench({"broadcast/chain_verify_cached", [](const BenchContext&) {
                          return run_chain_verify(/*n_parties=*/12, /*spam_copies=*/256,
                                                  /*cache_on=*/true);
                        }});
  core::register_bench({"broadcast/smoke", [](const BenchContext&) {
                          BenchRun run = run_tally_loop(12, 200);
                          const BenchRun q = run_quorum_predicates(8, 2000);
                          const BenchRun c = run_chain_verify(6, 8, true);
                          run.ok &= q.ok && c.ok;
                          run.cells += q.cells + c.cells;
                          run.digest = hash_combine(run.digest, q.digest);
                          run.digest = hash_combine(run.digest, c.digest);
                          return run;
                        }});
}

}  // namespace bsm::benchcases
