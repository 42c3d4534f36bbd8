// Context shims: adversarial wrappers around honest process code.
//
// The paper's impossibility proofs all follow one device: a byzantine party
// runs honest instances internally, routing each instance's traffic to a
// chosen subset of the real network so that different honest parties see
// consistent but conflicting worlds. These shims make that device a
// first-class, reusable component.
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "common/party_set.hpp"
#include "net/process.hpp"

namespace bsm::adversary {

/// Context wrapper that filters or rewrites outgoing messages; everything
/// else passes through.
class FilteringContext final : public net::Context {
 public:
  /// `allow(to, payload)` decides whether a send goes out.
  using SendFilter = std::function<bool(PartyId, ByteView)>;

  FilteringContext(net::Context& base, SendFilter allow) : base_(&base), allow_(std::move(allow)) {}

  void send(PartyId to, ByteView payload) override {
    if (allow_(to, payload)) base_->send(to, payload);
  }
  [[nodiscard]] Round round() const override { return base_->round(); }
  [[nodiscard]] PartyId self() const override { return base_->self(); }
  [[nodiscard]] const net::Topology& topology() const override { return base_->topology(); }
  [[nodiscard]] const crypto::Signer& signer() const override { return base_->signer(); }
  [[nodiscard]] const crypto::Pki& pki() const override { return base_->pki(); }

 private:
  net::Context* base_;
  SendFilter allow_;
};

/// Runs an inner process but drops outgoing messages failing the filter
/// (e.g. a relay that swallows forwards to cause omissions, Lemma 10).
class SendFiltered final : public net::Process {
 public:
  SendFiltered(std::unique_ptr<net::Process> inner, FilteringContext::SendFilter allow)
      : inner_(std::move(inner)), allow_(std::move(allow)) {}

  void on_round(net::Context& ctx, net::Inbox inbox) override {
    FilteringContext shim(ctx, allow_);
    inner_->on_round(shim, inbox);
  }

 private:
  std::unique_ptr<net::Process> inner_;
  FilteringContext::SendFilter allow_;
};

/// A budgeted send-omission filter: swallows the first `budget` sends
/// addressed to `targets`, then passes everything through — the
/// process-level half of a fault envelope (the network-level half is
/// sched::TargetedOmissionPolicy; the two compose in one scenario).
///
/// The remaining-budget counter is shared across copies on purpose:
/// SendFiltered re-wraps its filter in a fresh FilteringContext every
/// round, and a per-copy counter would silently reset each round.
[[nodiscard]] FilteringContext::SendFilter budgeted_omission_filter(core::PartySet targets,
                                                                    std::uint32_t budget);

/// The split-brain / dual-simulation strategy: runs two honest instances of
/// this party's code and partitions the real network into two worlds.
/// Instance w talks to and hears from parties of group w only.
///
/// `conspirators` are other byzantine parties running their own SplitBrain:
/// traffic between conspirators is tagged with the world it belongs to, so
/// the joint adversary simulates one consistent duplicated system — exactly
/// the device of the paper's Lemmas 5, 7, and 13.
class SplitBrain final : public net::Process {
 public:
  using GroupOf = std::function<int(PartyId)>;

  SplitBrain(std::unique_ptr<net::Process> instance0, std::unique_ptr<net::Process> instance1,
             GroupOf group, std::set<PartyId> conspirators = {});

  void on_round(net::Context& ctx, net::Inbox inbox) override;

 private:
  /// A self-send, looped back to its own world next round. It outlives
  /// the round's payload arena, so it owns its bytes.
  struct SelfSend {
    Round round = 0;
    Bytes payload;
  };

  std::unique_ptr<net::Process> instances_[2];
  GroupOf group_;
  std::set<PartyId> conspirators_;
  std::vector<SelfSend> self_loop_[2];  ///< per-world self-send loopback
};

}  // namespace bsm::adversary
