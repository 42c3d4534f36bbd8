// The flat broadcast kernel's determinism contract, tested three ways:
//
//  1. Differential: TallyArena and the devirtualized Quorums agree, input
//     by input, with the node-based std::map / std::set reference
//     implementations they replaced.
//  2. Collision discipline: an engineered 64-bit digest collision in the
//     Dolev-Strong VerifiedChainCache is disambiguated by full-key
//     equality, and the verify cache never changes an instance's behavior
//     (cache-on == cache-off across an adversary battery, transcripts
//     included).
//  3. Golden transcripts: a 24-group scenario battery reproduces the exact
//     combined view-hash digests recorded from the pre-kernel (seed)
//     implementation — the container swap is byte-invisible.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "adversary/shims.hpp"
#include "adversary/strategies.hpp"
#include "broadcast/dolev_strong.hpp"
#include "broadcast/instance.hpp"
#include "broadcast/quorums.hpp"
#include "broadcast/tally.hpp"
#include "broadcast/verify_cache.hpp"
#include "broadcast/wire.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/oracle.hpp"
#include "core/runner.hpp"
#include "core/scenario.hpp"
#include "net/engine.hpp"

namespace bsm::broadcast {
namespace {

using adversary::SplitBrain;

// ------------------------------------------------------ tally differential

/// The seed implementation, verbatim: group same-kind messages by value,
/// deduplicating senders.
[[nodiscard]] std::map<Bytes, std::set<PartyId>> reference_tally(
    const std::vector<net::AppMsg>& inbox, MsgKind kind) {
  std::map<Bytes, std::set<PartyId>> by_value;
  std::set<PartyId> seen;
  for (const auto& msg : inbox) {
    const auto kv = decode_kv(msg.body);
    if (!kv || kv->kind != kind || seen.contains(msg.from)) continue;
    seen.insert(msg.from);
    by_value[kv->value].insert(msg.from);
  }
  return by_value;
}

/// An inbox that owns its message bytes: AppMsg bodies are views, so the
/// bytes live in a deque (which never moves its elements) beside them.
struct OwnedInbox {
  void add(PartyId from, Bytes body) {
    msgs.emplace_back(from, bytes.emplace_back(std::move(body)));
  }
  void add_kv(PartyId from, MsgKind kind, const Bytes& value) {
    Writer w;
    encode_kv(w, kind, value);
    add(from, w.take());
  }

  std::deque<Bytes> bytes;
  std::vector<net::AppMsg> msgs;
};

[[nodiscard]] OwnedInbox random_inbox(Rng& rng, std::uint32_t n_parties) {
  OwnedInbox inbox;
  const std::uint32_t n_msgs = 1 + static_cast<std::uint32_t>(rng.below(4 * n_parties));
  for (std::uint32_t i = 0; i < n_msgs; ++i) {
    const PartyId from = static_cast<PartyId>(rng.below(n_parties));
    if (rng.chance(0.15)) {
      // Malformed body: both implementations must drop it.
      inbox.add(from, rng.random_bytes(rng.below(6)));
      continue;
    }
    const auto kind = static_cast<MsgKind>(1 + rng.below(4));  // Value..Final
    // Few distinct values so buckets genuinely merge across senders.
    const Bytes value = rng.chance(0.3) ? Bytes{} : rng.random_bytes(1 + rng.below(3));
    inbox.add_kv(from, kind, value);
  }
  return inbox;
}

TEST(TallyArena, MatchesReferenceTallyOnRandomInboxes) {
  Rng rng(99);
  TallyArena arena;  // one arena reused across every round, like an instance
  for (int round = 0; round < 300; ++round) {
    const std::uint32_t n_parties = 3 + static_cast<std::uint32_t>(rng.below(70));
    const auto inbox = random_inbox(rng, n_parties);
    const auto kind = static_cast<MsgKind>(1 + rng.below(4));
    const auto ref = reference_tally(inbox.msgs, kind);

    arena.build(inbox.msgs, kind);
    ASSERT_EQ(arena.size(), ref.size());
    auto it = ref.begin();
    for (const std::uint32_t idx : arena.ordered()) {
      const auto& bucket = arena.bucket(idx);
      ASSERT_EQ(bucket.value, it->first) << "bucket order must match std::map order";
      std::vector<PartyId> senders;
      bucket.senders.for_each([&](PartyId p) { senders.push_back(p); });
      ASSERT_EQ(senders, std::vector<PartyId>(it->second.begin(), it->second.end()));
      ++it;
    }
  }
}

TEST(TallyArena, FirstMessagePerSenderWinsAndKindsDoNotInterfere) {
  // Sender 2's Value message counts; its second Value message does not;
  // its Propose message is invisible to the Value tally and counts in the
  // Propose tally (matching the reference semantics exactly).
  OwnedInbox inbox;
  inbox.add_kv(2, MsgKind::Value, Bytes{1});
  inbox.add_kv(2, MsgKind::Value, Bytes{2});
  inbox.add_kv(2, MsgKind::Propose, Bytes{3});
  inbox.add_kv(5, MsgKind::Value, Bytes{2});

  TallyArena arena;
  arena.build(inbox.msgs, MsgKind::Value);
  ASSERT_EQ(arena.size(), 2U);
  EXPECT_EQ(arena.bucket(arena.ordered()[0]).value, Bytes{1});
  EXPECT_TRUE(arena.bucket(arena.ordered()[0]).senders.contains(2));
  EXPECT_EQ(arena.bucket(arena.ordered()[1]).value, Bytes{2});
  EXPECT_TRUE(arena.bucket(arena.ordered()[1]).senders.contains(5));
  EXPECT_FALSE(arena.bucket(arena.ordered()[1]).senders.contains(2));

  arena.build(inbox.msgs, MsgKind::Propose);
  ASSERT_EQ(arena.size(), 1U);
  EXPECT_TRUE(arena.bucket(arena.ordered()[0]).senders.contains(2));
}

// -------------------------------------------------- quorum devirtualization

TEST(Quorums, ThresholdCountsHoldersRegardlessOfIdRange) {
  // A threshold instance can run over one side's global ids [k, 2k) — the
  // R-side Pi_King does. The predicate must count holders, not mask them.
  ThresholdQuorums q(4, 1);
  const core::PartySet r_side{100, 101, 102};
  EXPECT_TRUE(q.complement_corruptible(r_side));   // 3 >= 4 - 1
  EXPECT_FALSE(q.complement_corruptible({100, 101}));
  EXPECT_TRUE(q.has_honest({100, 101}));           // 2 > 1
  EXPECT_FALSE(q.has_honest({100}));
}

TEST(Quorums, PredicatesMatchSetBasedReferenceRandomized) {
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t k = 2 + static_cast<std::uint32_t>(rng.below(40));
    const std::uint32_t tl = static_cast<std::uint32_t>(rng.below(k + 1));
    const std::uint32_t tr = static_cast<std::uint32_t>(rng.below(k + 1));
    ProductQuorums prod(k, tl, tr);
    ThresholdQuorums thr(2 * k, tl);

    core::PartySet holders;
    std::set<PartyId> ref;
    for (std::uint32_t i = 0, m = static_cast<std::uint32_t>(rng.below(2 * k + 1)); i < m; ++i) {
      const PartyId p = static_cast<PartyId>(rng.below(2 * k));
      holders.insert(p);
      ref.insert(p);
    }
    std::uint32_t cl = 0;
    std::uint32_t cr = 0;
    for (PartyId p : ref) (p < k ? cl : cr)++;

    EXPECT_EQ(prod.complement_corruptible(holders), k - cl <= tl && k - cr <= tr);
    EXPECT_EQ(prod.has_honest(holders), cl > tl || cr > tr);
    EXPECT_EQ(prod.num_phases(), tl + tr + 1);
    EXPECT_EQ(thr.complement_corruptible(holders), ref.size() + tl >= 2 * k);
    EXPECT_EQ(thr.has_honest(holders), ref.size() > tl);
    EXPECT_EQ(thr.num_phases(), tl + 1);
  }
}

// ------------------------------------------------------ verify cache keys

/// splitmix64 is a bijection; this is its published inverse.
[[nodiscard]] std::uint64_t unsplitmix64(std::uint64_t x) {
  x = (x ^ (x >> 31) ^ (x >> 62)) * 0x319642b2d24d8ec3ULL;
  x = (x ^ (x >> 27) ^ (x >> 54)) * 0x96de1b173f119089ULL;
  x = x ^ (x >> 30) ^ (x >> 60);
  return x - 0x9e3779b97f4a7c15ULL;
}

TEST(VerifiedChainCache, EngineeredDigestCollisionIsDisambiguatedByFullKey) {
  // Build the honest entry's key digest exactly the way DolevStrong does:
  // seed from (channel, value digest), extend per signer, bind the
  // signature. hash_combine(a, b) is a bijection in b for fixed a, so a
  // *different* chain prefix can be given a forged tag that reproduces the
  // honest key digest bit for bit. The cache must still miss on it.
  const std::uint64_t value_digest = fnv1a64(Bytes{42});
  const std::uint32_t channel = 3;

  const std::vector<PartyId> honest_prefix{0};
  const crypto::Signature honest_sig{0, 777};
  std::uint64_t d = VerifiedChainCache::chain_seed(channel, value_digest);
  d = VerifiedChainCache::extend(d, 0);
  const std::uint64_t target = VerifiedChainCache::key_digest(d, honest_sig);

  // A two-signer chain pair for the same value, forged tag solved so that
  // its key digest collides with the honest root signature's.
  const std::vector<PartyId> forged_prefix{0, 1};
  std::uint64_t d2 = VerifiedChainCache::chain_seed(channel, value_digest);
  d2 = VerifiedChainCache::extend(d2, 0);
  d2 = VerifiedChainCache::extend(d2, 1);
  const std::uint64_t a = hash_combine(d2, 1);  // key_digest folds sig.signer first
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  crypto::Signature forged{1, (unsplitmix64(target) ^ a) - kGolden - (a << 6) - (a >> 2)};
  ASSERT_EQ(VerifiedChainCache::key_digest(d2, forged), target) << "constructed collision";

  VerifiedChainCache cache;
  cache.insert(target, /*value_idx=*/0, honest_prefix, honest_sig, /*ok=*/true);
  EXPECT_NE(cache.find(target, 0, honest_prefix, honest_sig), nullptr);
  EXPECT_TRUE(*cache.find(target, 0, honest_prefix, honest_sig));

  // Same digest, same value, different prefix/signature: must miss, and
  // inserting it must keep both entries intact with their own verdicts.
  EXPECT_EQ(cache.find(target, 0, forged_prefix, forged), nullptr)
      << "a colliding digest must not alias a different chain";
  cache.insert(target, 0, forged_prefix, forged, /*ok=*/false);
  EXPECT_EQ(cache.size(), 2U);
  ASSERT_NE(cache.find(target, 0, honest_prefix, honest_sig), nullptr);
  ASSERT_NE(cache.find(target, 0, forged_prefix, forged), nullptr);
  EXPECT_TRUE(*cache.find(target, 0, honest_prefix, honest_sig));
  EXPECT_FALSE(*cache.find(target, 0, forged_prefix, forged));

  // A different canonical value with the same digest stream must also miss.
  EXPECT_EQ(cache.find(target, 1, honest_prefix, honest_sig), nullptr);
}

// --------------------------------------- cache-on == cache-off transcripts

/// Hosts one hub with a single instance per party; exposes the output.
class HostProcess final : public net::Process {
 public:
  HostProcess(std::uint32_t channel, std::vector<PartyId> participants,
              std::unique_ptr<Instance> instance)
      : hub_(net::RelayMode::Direct, 1) {
    hub_.add_instance(channel, 0, std::move(participants), std::move(instance));
  }

  void on_round(net::Context& ctx, net::Inbox inbox) override {
    hub_.ingest(ctx, inbox);
    hub_.step_due(ctx);
  }

  [[nodiscard]] const Instance& instance() const { return hub_.instance(0); }

 private:
  InstanceHub hub_;
};

/// Byzantine chain spammer: captures the sender's signed root chain and
/// re-broadcasts many copies of it grafted onto a forged value — chains
/// whose (replayed, now-invalid) root signature must be re-checked per copy
/// by a cache-less receiver but only once by a caching one.
class ChainSpammer final : public net::Process {
 public:
  /// `distinct` forges a different value per copy (drives the receiver's
  /// value pool past kMaxPooledValues when copies > 64); otherwise every
  /// copy is byte-identical (drives the verify cache).
  explicit ChainSpammer(std::uint32_t copies, bool distinct = false)
      : copies_(copies), distinct_(distinct) {}

  void on_round(net::Context& ctx, net::Inbox inbox) override {
    if (forged_.empty()) {
      for (const auto& env : inbox) {
        // Peel transport + hub framing: [kDirect][bytes [u32 ch][bytes chain]].
        Reader r(env.payload);
        if (r.u8() != 0) continue;
        const Bytes body = r.bytes();
        if (!r.done()) continue;
        Reader rb(body);
        const std::uint32_t channel = rb.u32();
        const Bytes inner = rb.bytes();
        if (!rb.done() || channel != 0) continue;
        Reader rc(inner);
        if (rc.u8() != static_cast<std::uint8_t>(MsgKind::Chain)) continue;
        (void)rc.bytes();  // the honest value; we substitute our own
        if (rc.u32() != 1) continue;
        const PartyId root = rc.u32();
        const auto root_sig = crypto::Signature::decode(rc);
        if (!rc.done()) continue;

        for (std::uint32_t c = 0; c < copies_; ++c) {
          Writer chain;
          chain.u8(static_cast<std::uint8_t>(MsgKind::Chain));
          // Forged value: never extracted, never skipped.
          chain.bytes(distinct_ ? Bytes{99, static_cast<std::uint8_t>(c),
                                        static_cast<std::uint8_t>(c >> 8)}
                                : Bytes{99});
          chain.u32(2);
          chain.u32(root);
          root_sig.encode(chain);
          chain.u32(ctx.self());
          crypto::Signature{ctx.self(), 0xabcdefULL}.encode(chain);
          Writer frame;
          frame.u32(0);
          frame.bytes(chain.data());
          Writer wire;
          wire.u8(0);  // kDirect
          wire.bytes(frame.data());
          forged_.push_back(wire.take());
        }
        break;
      }
    }
    if (!forged_.empty() && !sent_) {
      sent_ = true;
      for (PartyId to = 0; to < ctx.topology().n(); ++to) {
        for (const Bytes& f : forged_) ctx.send(to, f);
      }
    }
  }

 private:
  std::uint32_t copies_;
  bool distinct_;
  std::vector<Bytes> forged_;
  bool sent_ = false;
};

struct BatteryOutcome {
  std::vector<std::optional<Bytes>> outputs;
  std::vector<std::uint64_t> views;
  std::uint64_t verifies = 0;
  std::uint64_t cache_hits = 0;

  bool operator==(const BatteryOutcome&) const = default;
};

/// One Dolev-Strong run (n = 4, t = 2) under `battery`, with the verify
/// cache on or off. Returns outputs + per-party transcript hashes.
[[nodiscard]] BatteryOutcome run_ds_battery(int battery, bool cache_on) {
  const std::uint32_t t = 2;
  const std::vector<PartyId> all{0, 1, 2, 3};
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, 2), /*pki_seed=*/5);
  const auto factory = [&](Bytes input) {
    return std::make_unique<HostProcess>(0, all,
                                         std::make_unique<DolevStrong>(0, t, std::move(input),
                                                                       cache_on));
  };
  for (PartyId id : all) engine.set_process(id, factory(id == 0 ? Bytes{7} : Bytes{}));

  switch (battery) {
    case 0:  // fault-free
      break;
    case 1:  // silent sender
      engine.set_corrupt(0, std::make_unique<adversary::Silent>());
      break;
    case 2:  // equivocating split-brain sender
      engine.set_corrupt(0,
                         std::make_unique<SplitBrain>(factory(Bytes{7}), factory(Bytes{8}),
                                                      [](PartyId p) { return p <= 1 ? 0 : 1; }));
      break;
    case 3:  // noisy relayers
      engine.set_corrupt(2, std::make_unique<adversary::RandomNoise>(11, 3));
      engine.schedule_corruption(3, 2, std::make_unique<adversary::Silent>());
      break;
    case 4:  // replayed-root chain spam (the verify cache's reason to exist)
      engine.set_corrupt(3, std::make_unique<ChainSpammer>(6));
      break;
    case 5:  // distinct-value spam past kMaxPooledValues (pool overflow path)
      engine.set_corrupt(3, std::make_unique<ChainSpammer>(80, /*distinct=*/true));
      break;
    default:
      ADD_FAILURE() << "unknown battery";
  }
  engine.run_guarded(t + 2);

  BatteryOutcome out;
  for (PartyId id : all) {
    out.views.push_back(engine.view_hash(id));
    if (engine.is_corrupt(id)) {
      out.outputs.emplace_back();
      continue;
    }
    const auto& inst = dynamic_cast<const HostProcess&>(engine.process(id)).instance();
    EXPECT_TRUE(inst.done());
    out.outputs.push_back(inst.output());
    const auto& ds = dynamic_cast<const DolevStrong&>(inst);
    out.verifies += ds.verifies();
    out.cache_hits += ds.cache_hits();
  }
  return out;
}

TEST(DolevStrongVerifyCache, CacheOnAndCacheOffAreByteIdentical) {
  for (int battery = 0; battery < 6; ++battery) {
    auto cached = run_ds_battery(battery, /*cache_on=*/true);
    auto cold = run_ds_battery(battery, /*cache_on=*/false);
    EXPECT_EQ(cached.outputs, cold.outputs) << "battery " << battery;
    EXPECT_EQ(cached.views, cold.views)
        << "battery " << battery << ": the cache must not change one transcript byte";
    EXPECT_EQ(cold.cache_hits, 0U);
    EXPECT_LE(cached.verifies, cold.verifies) << "battery " << battery;
  }
}

TEST(DolevStrongVerifyCache, CacheActuallyDeduplicatesVerifications) {
  // Under chain spam every copy repeats the same replayed root signature:
  // a cache-less receiver re-checks it per copy, a caching one checks it
  // once and serves the rest as hits. (In fault-free runs the hoisted
  // already-extracted check alone removes all duplicate verification.)
  const auto cached = run_ds_battery(4, true);
  const auto cold = run_ds_battery(4, false);
  EXPECT_GT(cached.cache_hits, 0U);
  EXPECT_LT(cached.verifies, cold.verifies);
}

TEST(DolevStrongVerifyCache, PoolOverflowSpamDoesNotChangeDecisions) {
  // 80 distinct forged values exceed kMaxPooledValues (64): the overflow
  // values take the transient uncached path and every honest party still
  // decides the sender's value.
  const auto out = run_ds_battery(5, true);
  for (PartyId id : {0U, 1U, 2U}) {
    ASSERT_TRUE(out.outputs[id].has_value()) << "party " << id;
    EXPECT_EQ(*out.outputs[id], Bytes{7}) << "party " << id;
  }
}

// ----------------------------------------------------- golden transcripts

struct Golden {
  int topology;
  bool auth;
  int battery;
  std::uint64_t digest;
  std::uint32_t cells;
};

// Recorded from the seed (pre-flat-kernel) implementation at PR 3's HEAD:
// combined (rounds, view_hashes, decisions) digest per scenario group.
// Any divergence means the kernel changed an observable byte somewhere.
constexpr Golden kGoldens[] = {
    {0, true, 0, 0xf9c760888521bda6ULL, 41U},
    {0, true, 1, 0xf1e94bcb03317fe2ULL, 41U},
    {0, true, 2, 0x8c9af5b6e8374a30ULL, 41U},
    {0, true, 3, 0x70c2d9414d60c16bULL, 41U},
    {0, false, 0, 0xc0f6880ff1a3b317ULL, 23U},
    {0, false, 1, 0x553999d81c837d27ULL, 23U},
    {0, false, 2, 0xc8fe337fda41ab88ULL, 23U},
    {0, false, 3, 0x85772f3b4510346bULL, 23U},
    {1, true, 0, 0xdb71bfce251420a5ULL, 35U},
    {1, true, 1, 0x960652069870b3f7ULL, 35U},
    {1, true, 2, 0xe776e3bc75ef8f8fULL, 35U},
    {1, true, 3, 0xaa6ae8522648b867ULL, 35U},
    {1, false, 0, 0x049f4a6117361a05ULL, 15U},
    {1, false, 1, 0x07899564e54d5948ULL, 15U},
    {1, false, 2, 0xc4cada5148b95ccbULL, 15U},
    {1, false, 3, 0xc1dd5aa24b2fd1a1ULL, 15U},
    {2, true, 0, 0x26660458dc42fc30ULL, 31U},
    {2, true, 1, 0x4dda22691b380c80ULL, 31U},
    {2, true, 2, 0xd12201cc54500dacULL, 31U},
    {2, true, 3, 0x4b1ca574d946ec76ULL, 31U},
    {2, false, 0, 0x4794fd6667a6d65fULL, 7U},
    {2, false, 1, 0x5ff030716eca86c8ULL, 7U},
    {2, false, 2, 0x267b3238c7eb8852ULL, 7U},
    {2, false, 3, 0x935b297bb9c3c315ULL, 7U},
};

TEST(GoldenTranscripts, FullBatteryMatchesSeedViewHashes) {
  for (const Golden& g : kGoldens) {
    core::SweepGrid grid;
    grid.topologies = {static_cast<net::TopologyKind>(g.topology)};
    grid.auths = {g.auth};
    grid.ks = {3, 4};
    grid.seeds = {1};
    grid.batteries = {static_cast<core::Battery>(g.battery)};
    std::uint64_t digest = 0;
    std::uint32_t cells = 0;
    for (const auto& cell : grid.cells()) {
      if (!core::solvable(cell.config)) continue;
      const auto out = core::run_bsm(core::to_run_spec(cell));
      ++cells;
      digest = hash_combine(digest, static_cast<std::uint64_t>(out.rounds));
      for (auto h : out.view_hashes) digest = hash_combine(digest, h);
      for (const auto& d : out.decisions) {
        digest = hash_combine(digest, d ? 1 + static_cast<std::uint64_t>(*d) : 0);
      }
    }
    EXPECT_EQ(cells, g.cells) << "topology " << g.topology << " auth " << g.auth << " battery "
                              << g.battery;
    EXPECT_EQ(digest, g.digest)
        << "transcript drift vs the seed implementation: topology " << g.topology << " auth "
        << g.auth << " battery " << g.battery;
  }
}

}  // namespace
}  // namespace bsm::broadcast
