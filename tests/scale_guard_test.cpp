// Memory-shape guards for the big-n fast path: an engine carrying sparse
// (ring) traffic must stay O(n), never O(n^2), and a steady-state engine
// round, with or without an InstanceHub on top, allocates nothing. At the
// other end, a short run — almost all warm-up — must allocate per party,
// not per broadcast instance, and a PartySet (ids below 128, every party of
// a k <= 64 market) never touches the heap. Enforced with a counting global
// operator new/delete local to this test binary: every plain allocation
// carries a 16-byte size header, and the hook tracks live and peak heap
// bytes and the number of allocations. Aligned-new allocations bypass the
// hook (none of the guarded paths use over-aligned types); the probes
// measure *deltas*, so the harness's own baseline allocations cancel out.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <set>
#include <vector>

#include "broadcast/instance.hpp"
#include "common/party_set.hpp"
#include "core/runner.hpp"
#include "core/scenario.hpp"
#include "net/engine.hpp"

namespace {

constexpr std::size_t kHeader = 16;  // keeps malloc's max_align_t alignment

std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};
std::atomic<std::size_t> g_calls{0};

void note_alloc(std::size_t size) noexcept {
  g_calls.fetch_add(1, std::memory_order_relaxed);
  const std::size_t live = g_live.fetch_add(size, std::memory_order_relaxed) + size;
  std::size_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void* counted_new(std::size_t size) {
  void* raw = std::malloc(size + kHeader);
  if (raw == nullptr) throw std::bad_alloc{};
  *static_cast<std::size_t*>(raw) = size;
  note_alloc(size);
  return static_cast<char*>(raw) + kHeader;
}

void counted_delete(void* p) noexcept {
  if (p == nullptr) return;
  char* raw = static_cast<char*>(p) - kHeader;
  g_live.fetch_sub(*reinterpret_cast<std::size_t*>(raw), std::memory_order_relaxed);
  std::free(raw);
}

/// Peak-heap-delta probe over a scoped workload.
class PeakProbe {
 public:
  PeakProbe() { reset(); }

  void reset() noexcept {
    start_ = g_live.load(std::memory_order_relaxed);
    g_peak.store(start_, std::memory_order_relaxed);
  }

  /// Highest live-bytes excess over the probe's starting level.
  [[nodiscard]] std::size_t peak_delta() const noexcept {
    const std::size_t peak = g_peak.load(std::memory_order_relaxed);
    return peak > start_ ? peak - start_ : 0;
  }

 private:
  std::size_t start_ = 0;
};

}  // namespace

void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void operator delete(void* p) noexcept { counted_delete(p); }
void operator delete[](void* p) noexcept { counted_delete(p); }
void operator delete(void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_delete(p); }

namespace bsm {
namespace {

TEST(ScaleGuard, CountingHookObservesAllocations) {
  PeakProbe probe;
  {
    std::vector<char> block(1 << 20);
    EXPECT_GE(probe.peak_delta(), std::size_t{1} << 20);
  }
  const std::size_t peak_after_free = probe.peak_delta();
  probe.reset();
  EXPECT_LT(probe.peak_delta(), peak_after_free + 1);  // reset rebases the peak
}

TEST(ScaleGuard, SparseEngineChannelMemoryTracksActiveChannels) {
  // n = 2048 with one ring channel per party. Per-channel counters (16
  // bytes of messages + bytes each) over an n x n matrix would come to
  // n^2 * 16 bytes = 67 MB per side before the first round; the engine's
  // own state (slots, keys, one round's envelopes) is O(n).
  constexpr std::uint32_t kHalf = 1024;

  class RingSender final : public net::Process {
   public:
    void on_round(net::Context& ctx, net::Inbox) override {
      ctx.send((ctx.self() + 1) % ctx.topology().n(), Bytes{9});
    }
  };

  PeakProbe probe;
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, kHalf), 1);
  const std::uint32_t n = engine.topology().n();
  for (PartyId id = 0; id < n; ++id) engine.set_process(id, std::make_unique<RingSender>());
  engine.run_guarded(4);

  const std::size_t channel_matrix = static_cast<std::size_t>(n) * n * 16;
  EXPECT_LT(probe.peak_delta(), channel_matrix / 8)
      << "the engine must never allocate channel-matrix-sized blocks";
  EXPECT_EQ(engine.stats().messages, std::uint64_t{n} * 4);
  EXPECT_EQ(engine.stats().delivered_messages, std::uint64_t{n} * 3);
}

TEST(ScaleGuard, SteadyStatePayloadPathAllocatesNothing) {
  // 16 parties, each broadcasting the same 48 bytes to all 16 every round,
  // by a loop of send() or by one multicast. Once the engine's envelope
  // buffers and payload arenas have grown, a round stores the payload once
  // across all senders (the arena interns it) and allocates nothing; a
  // payload copy per envelope would cost 256 allocations a round, and a
  // copy per sender 16 stores.
  class Broadcaster final : public net::Process {
   public:
    explicit Broadcaster(std::vector<PartyId> everyone, bool batched)
        : everyone_(std::move(everyone)), batched_(batched) {}
    void on_round(net::Context& ctx, net::Inbox) override {
      if (batched_) {
        ctx.multicast(everyone_, payload_);
      } else {
        for (PartyId to : everyone_) ctx.send(to, payload_);
      }
    }

   private:
    std::vector<PartyId> everyone_;
    bool batched_;
    Bytes payload_ = Bytes(48, 0x5a);
  };

  for (const bool batched : {false, true}) {
    net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, 8), 1);
    const std::uint32_t n = engine.topology().n();
    ASSERT_EQ(n, 16U);
    std::vector<PartyId> everyone(n);
    for (PartyId id = 0; id < n; ++id) everyone[id] = id;
    for (PartyId id = 0; id < n; ++id) {
      engine.set_process(id, std::make_unique<Broadcaster>(everyone, batched));
    }
    std::vector<const std::uint8_t*> stored;
    stored.reserve(4 * n * n);
    engine.set_observer([&](const net::Envelope& env) { stored.push_back(env.payload.data()); });
    engine.run_guarded(3);  // warm-up: buffers and arenas reach their size

    stored.clear();
    const std::size_t before = g_calls.load(std::memory_order_relaxed);
    engine.run_guarded(1);
    EXPECT_EQ(g_calls.load(std::memory_order_relaxed) - before, 0U) << "batched=" << batched;

    ASSERT_EQ(stored.size(), n * n);
    const std::set<const std::uint8_t*> copies(stored.begin(), stored.end());
    EXPECT_EQ(copies.size(), 1U) << "the round's one distinct payload is stored once";
  }
}

TEST(ScaleGuard, SteadyStateHubRoundAllocatesNothing) {
  // A fully connected, stride-1 hub per party whose instance broadcasts a
  // fixed value at every step. After warm-up a round allocates nothing:
  // routed messages are views into the payload arena, step buffers and
  // frame scratch keep their capacity, and nothing is kept past its round.
  class FixedBroadcast final : public broadcast::Instance {
   public:
    void step(broadcast::InstanceIo& io, std::uint32_t,
              const std::vector<net::AppMsg>& inbox) override {
      heard_ += inbox.size();
      io.broadcast(value_);
    }
    [[nodiscard]] std::uint32_t duration() const override { return 1000; }
    std::size_t heard_ = 0;

   private:
    Bytes value_ = Bytes(40, 0x3c);
  };
  class HubHost final : public net::Process {
   public:
    explicit HubHost(std::vector<PartyId> parts) : hub_(net::RelayMode::Direct, 1) {
      hub_.add_instance(0, 0, std::move(parts), std::make_unique<FixedBroadcast>());
    }
    void on_round(net::Context& ctx, net::Inbox inbox) override {
      hub_.ingest(ctx, inbox);
      hub_.step_due(ctx);
    }
    [[nodiscard]] std::size_t heard() const {
      return dynamic_cast<const FixedBroadcast&>(hub_.instance(0)).heard_;
    }

   private:
    broadcast::InstanceHub hub_;
  };

  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, 8), 1);
  const std::uint32_t n = engine.topology().n();
  std::vector<PartyId> parts(n);
  for (PartyId id = 0; id < n; ++id) parts[id] = id;
  for (PartyId id = 0; id < n; ++id) engine.set_process(id, std::make_unique<HubHost>(parts));
  engine.run_guarded(3);  // warm-up

  const std::size_t before = g_calls.load(std::memory_order_relaxed);
  engine.run_guarded(1);
  EXPECT_EQ(g_calls.load(std::memory_order_relaxed) - before, 0U);
  EXPECT_EQ(dynamic_cast<const HubHost&>(engine.process(0)).heard(), std::size_t{3} * n);
}

TEST(ScaleGuard, ShortAuthenticatedRunAllocationBudget) {
  // The schedule fuzzer's scenario: k = 3, authenticated, fully connected,
  // tL = tR = 1, liars battery, seed 1 — six parties, each hosting six
  // Dolev-Strong instances, over six rounds. When every
  // instance grew its own buffers from empty, one run made about 2,000
  // allocations; with per-party shared lists, hub-lent step scratch,
  // inline PartySet words and flat verify-cache prefixes it makes about
  // 530. The budget is that count plus 10 %.
  core::ScenarioSpec s;
  s.config = core::BsmConfig{net::TopologyKind::FullyConnected, true, 3, 1, 1};
  s.input_seed = 1;
  s.pki_seed = 2;
  core::apply_battery(s, core::Battery::Liars, 1);

  const std::size_t before = g_calls.load(std::memory_order_relaxed);
  const core::RunOutcome out = core::run_bsm(core::to_run_spec(s));
  const std::size_t allocs = g_calls.load(std::memory_order_relaxed) - before;
  ASSERT_TRUE(out.report.all());
  EXPECT_LE(allocs, 586U) << "a short run allocates per party, not per instance";
}

TEST(ScaleGuard, PartySetBelow128StaysInline) {
  // A full set of the largest market's 128 ids, its copy and a copy
  // assignment allocate nothing.
  const std::size_t before = g_calls.load(std::memory_order_relaxed);
  core::PartySet s;
  for (PartyId p = 0; p < core::PartySet::kCapacity; ++p) s.insert(p);
  const core::PartySet copy = s;
  core::PartySet assigned{1, 2};
  assigned = copy;
  EXPECT_EQ(copy.count(), 128U);
  EXPECT_TRUE(assigned == s);
  EXPECT_EQ(g_calls.load(std::memory_order_relaxed) - before, 0U);
}

}  // namespace
}  // namespace bsm
