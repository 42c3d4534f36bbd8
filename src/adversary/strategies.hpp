// Byzantine strategy library.
//
// Every strategy is just a net::Process: the adversary's power is full
// control over a corrupted party's code, subject only to the physical
// channels that exist and the unforgeability of honest signatures. The
// generic strategies here (silence, crashes, garbage, equivocation,
// honest-code-with-altered-input, selective relay dropping, split-brain
// simulation) form the battery the solvability-grid experiment throws at
// every protocol; the scripted attacks from the impossibility proofs live
// in attacks.hpp.
#pragma once

#include <functional>
#include <memory>

#include "common/rng.hpp"
#include "net/process.hpp"

namespace bsm::adversary {

/// Sends nothing, ever. Models a party that refuses to participate (a
/// crash before round 0).
class Silent final : public net::Process {
 public:
  void on_round(net::Context&, net::Inbox) override {}
};

/// Runs the wrapped (typically honest) process until `crash_round`, then
/// goes permanently silent: a classic crash fault.
class CrashAt final : public net::Process {
 public:
  CrashAt(Round crash_round, std::unique_ptr<net::Process> inner)
      : crash_round_(crash_round), inner_(std::move(inner)) {}

  void on_round(net::Context& ctx, net::Inbox inbox) override {
    if (ctx.round() >= crash_round_) return;
    inner_->on_round(ctx, inbox);
  }

 private:
  Round crash_round_;
  std::unique_ptr<net::Process> inner_;
};

/// Sprays a burst of well-addressed random bytes at random neighbors each
/// round: exercises every decoder's resilience to garbage.
class RandomNoise final : public net::Process {
 public:
  RandomNoise(std::uint64_t seed, std::uint32_t burst, std::size_t max_len = 64)
      : rng_(seed), burst_(burst), max_len_(max_len) {}

  void on_round(net::Context& ctx, net::Inbox) override;

 private:
  Rng rng_;
  std::uint32_t burst_;  ///< messages sent each round
  std::size_t max_len_;
};

/// Replays every message it receives back to a rotating neighbor: tests
/// replay protection in the signed transports.
class Replayer final : public net::Process {
 public:
  void on_round(net::Context& ctx, net::Inbox inbox) override;

 private:
  std::size_t cursor_ = 0;
};

}  // namespace bsm::adversary
