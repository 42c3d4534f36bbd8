#include "sched/fuzz.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/hash.hpp"
#include "core/envelope.hpp"
#include "core/sweep.hpp"

namespace bsm::sched {

namespace {

namespace fs = std::filesystem;

using detail::Eval;
using detail::eval_schedule;
using detail::Slot;

/// Rank ops demote a delivery group to inbox rank 1..kMaxRank.
constexpr std::uint32_t kMaxRank = 4;

/// The omission-budget account an op's drop is charged to (mirrors
/// TargetedOmissionPolicy: `from` wins when both endpoints are targets).
[[nodiscard]] PartyId drop_target(const ScheduleOp& op, const net::FaultEnvelope& envelope) {
  return envelope.targets.contains(op.from) ? op.from : op.to;
}

}  // namespace

Fuzzer::Fuzzer(const core::ScenarioSpec& scenario, FuzzerOptions options)
    : scenario_(scenario),
      opts_(std::move(options)),
      resolved_(detail::search_protocol(scenario_, "sched::Fuzzer")),
      envelope_(detail::search_envelope(scenario_, opts_.corrupt_adjacent_only)) {
  require(opts_.max_execs >= 1, "sched::Fuzzer: max_execs counts the root run, >= 1");
  envelope_.max_delay = opts_.allow_delay ? std::max<Round>(opts_.max_delay, 1) : 0;
  envelope_.omission_budget = opts_.allow_drop ? opts_.omission_budget : 0;

  // The root run mines the menu and seeds the coverage set; run() counts
  // it as the first exec.
  root_ = eval_schedule(scenario_, resolved_, ScheduleTrace{}, opts_.horizon, true, true);
  for (const Slot& slot : root_.menu) {
    if (envelope_.covers(slot.from, slot.to)) menu_.push_back(slot);
  }
}

bool Fuzzer::within_envelope(const ScheduleTrace& trace, const net::FaultEnvelope& envelope) {
  std::unordered_map<PartyId, std::uint32_t> drops;
  for (const ScheduleOp& op : trace.ops) {
    if (!envelope.covers(op.from, op.to)) return false;
    if (op.kind == ScheduleOp::Kind::Delay &&
        (op.arg < 1 || op.arg > envelope.max_delay)) {
      return false;
    }
    if (op.kind == ScheduleOp::Kind::Drop &&
        ++drops[drop_target(op, envelope)] > envelope.omission_budget) {
      return false;
    }
  }
  return true;
}

bool Fuzzer::admissible(const ScheduleTrace& trace) const {
  if (trace.ops.size() > opts_.max_ops) return false;
  const std::uint32_t n = scenario_.config.n();
  for (const ScheduleOp& op : trace.ops) {
    if (op.from >= n || op.to >= n) return false;  // a party the scenario lacks
    if (op.kind == ScheduleOp::Kind::Drop && !opts_.allow_drop) return false;
    if (op.kind == ScheduleOp::Kind::Delay && !opts_.allow_delay) return false;
    if (op.kind == ScheduleOp::Kind::Rank && !opts_.allow_reorder) return false;
  }
  return within_envelope(trace, envelope_);
}

void Fuzzer::repair(ScheduleTrace& trace) const {
  // Disallowed kinds and uncovered channels go first; args are clamped
  // into the envelope rather than rejected (a mutation that overshoots
  // max_delay still yields a usable candidate).
  std::erase_if(trace.ops, [&](const ScheduleOp& op) {
    if (op.kind == ScheduleOp::Kind::Drop && !opts_.allow_drop) return true;
    if (op.kind == ScheduleOp::Kind::Delay && !opts_.allow_delay) return true;
    if (op.kind == ScheduleOp::Kind::Rank && !opts_.allow_reorder) return true;
    return !envelope_.covers(op.from, op.to);
  });
  for (ScheduleOp& op : trace.ops) {
    if (op.kind == ScheduleOp::Kind::Drop) op.arg = 1;
    if (op.kind == ScheduleOp::Kind::Delay) {
      op.arg = std::clamp<std::uint32_t>(op.arg, 1, std::max<Round>(envelope_.max_delay, 1));
    }
    if (op.kind == ScheduleOp::Kind::Rank) {
      op.arg = std::clamp<std::uint32_t>(op.arg, 1, kMaxRank);
    }
  }

  // Canonical order, one op per (round, from, to) slot — ScriptedPolicy
  // keys verdicts by slot, so a second op there would be inert.
  std::sort(trace.ops.begin(), trace.ops.end());
  trace.ops.erase(std::unique(trace.ops.begin(), trace.ops.end(),
                              [](const ScheduleOp& a, const ScheduleOp& b) {
                                return a.round == b.round && a.from == b.from && a.to == b.to;
                              }),
                  trace.ops.end());

  // Omission budgets: keep the first `omission_budget` drops charged to
  // each target (canonical order makes "first" deterministic).
  std::unordered_map<PartyId, std::uint32_t> drops;
  std::erase_if(trace.ops, [&](const ScheduleOp& op) {
    if (op.kind != ScheduleOp::Kind::Drop) return false;
    return ++drops[drop_target(op, envelope_)] > envelope_.omission_budget;
  });

  if (trace.ops.size() > opts_.max_ops) trace.ops.resize(opts_.max_ops);
}

ScheduleTrace Fuzzer::mutate(const ScheduleTrace& base, const ScheduleTrace* splice,
                             Rng& rng) const {
  ScheduleTrace trace = base;
  enum Edit : std::uint64_t { kInsert, kRemove, kRetarget, kTweak, kSplice };
  const std::size_t edits = 1 + rng.below(3);
  for (std::size_t e = 0; e < edits; ++e) {
    Edit applicable[5];
    std::size_t n_applicable = 0;
    if (!menu_.empty() && trace.ops.size() < opts_.max_ops) applicable[n_applicable++] = kInsert;
    if (!trace.ops.empty()) applicable[n_applicable++] = kRemove;
    if (!trace.ops.empty() && !menu_.empty()) applicable[n_applicable++] = kRetarget;
    if (!trace.ops.empty()) applicable[n_applicable++] = kTweak;
    if (splice != nullptr && !splice->ops.empty()) applicable[n_applicable++] = kSplice;
    if (n_applicable == 0) break;

    const auto pick_kind = [&]() -> ScheduleOp::Kind {
      ScheduleOp::Kind kinds[3];
      std::size_t n_kinds = 0;
      if (opts_.allow_drop) kinds[n_kinds++] = ScheduleOp::Kind::Drop;
      if (opts_.allow_delay) kinds[n_kinds++] = ScheduleOp::Kind::Delay;
      if (opts_.allow_reorder) kinds[n_kinds++] = ScheduleOp::Kind::Rank;
      if (n_kinds == 0) kinds[n_kinds++] = ScheduleOp::Kind::Drop;  // repaired away later
      return kinds[rng.below(n_kinds)];
    };
    const auto draw_arg = [&](ScheduleOp::Kind kind) -> std::uint32_t {
      if (kind == ScheduleOp::Kind::Delay) {
        return 1 + static_cast<std::uint32_t>(rng.below(std::max<Round>(opts_.max_delay, 1)));
      }
      if (kind == ScheduleOp::Kind::Rank) {
        return 1 + static_cast<std::uint32_t>(rng.below(kMaxRank));
      }
      return 1;
    };

    switch (applicable[rng.below(n_applicable)]) {
      case kInsert: {
        const Slot& slot = menu_[rng.below(menu_.size())];
        ScheduleOp op;
        op.kind = pick_kind();
        op.round = slot.round;
        op.from = slot.from;
        op.to = slot.to;
        op.arg = draw_arg(op.kind);
        trace.ops.push_back(op);
        break;
      }
      case kRemove:
        trace.ops.erase(trace.ops.begin() +
                        static_cast<std::ptrdiff_t>(rng.below(trace.ops.size())));
        break;
      case kRetarget: {
        ScheduleOp& op = trace.ops[rng.below(trace.ops.size())];
        const Slot& slot = menu_[rng.below(menu_.size())];
        op.round = slot.round;
        op.from = slot.from;
        op.to = slot.to;
        break;
      }
      case kTweak: {
        ScheduleOp& op = trace.ops[rng.below(trace.ops.size())];
        op.kind = pick_kind();
        op.arg = draw_arg(op.kind);
        break;
      }
      case kSplice:
        // Graft a random subset of the partner's ops; slot conflicts and
        // budget overruns are resolved by repair().
        for (const ScheduleOp& op : splice->ops) {
          if (rng.below(2) == 0) trace.ops.push_back(op);
        }
        break;
    }
  }
  repair(trace);
  return trace;
}

std::size_t Fuzzer::pick_parent(Rng& rng) const {
  std::uint64_t total = 0;
  for (const Entry& entry : corpus_) total += entry.energy;
  std::uint64_t x = rng.below(std::max<std::uint64_t>(total, 1));
  for (std::size_t i = 0; i < corpus_.size(); ++i) {
    if (x < corpus_[i].energy) return i;
    x -= corpus_[i].energy;
  }
  return corpus_.size() - 1;
}

std::size_t Fuzzer::fold(const ScheduleTrace& trace, const Eval& eval,
                         std::optional<std::size_t> parent, FuzzReport& report) {
  ++report.execs;
  if (eval.violated != 0) {
    ++report.violations;
    if (!report.counterexample.has_value()) {
      report.counterexample = trace;
      report.counterexample_views = eval.views;
    }
    return 0;  // a violating schedule is a finding, not a corpus entry
  }
  std::size_t gained = 0;
  for (const std::uint64_t prefix : eval.prefixes) {
    if (coverage_.insert(prefix).second) ++gained;
  }
  if (gained == 0) {
    if (parent.has_value()) {
      Entry& p = corpus_[*parent];
      p.energy = std::max<std::uint64_t>(1, p.energy * 3 / 4);
    }
    return 0;
  }
  ++report.interesting;
  corpus_.push_back({trace, 16 + std::min<std::uint64_t>(gained, 48)});
  if (parent.has_value()) corpus_[*parent].energy += 8;
  // New behaviour can expose new delivery groups (e.g. traffic shifted
  // into later rounds) — fold them into the mutation menu.
  for (const Slot& slot : eval.menu) {
    if (!envelope_.covers(slot.from, slot.to)) continue;
    const auto at = std::lower_bound(menu_.begin(), menu_.end(), slot);
    if (at == menu_.end() || !(*at == slot)) menu_.insert(at, slot);
  }
  return gained;
}

FuzzReport Fuzzer::run() {
  FuzzReport report;

  // Root: the unperturbed schedule.
  seen_.insert(ScheduleTrace{}.digest());
  corpus_.push_back({ScheduleTrace{}, 16});
  ++report.execs;
  for (const std::uint64_t prefix : root_.prefixes) coverage_.insert(prefix);
  if (root_.violated != 0) {
    // The scenario violates with no perturbation: the counterexample is
    // the empty schedule, nothing to shrink.
    ++report.violations;
    report.counterexample = ScheduleTrace{};
    report.counterexample_views = root_.views;
  }

  // Seed adoption: the persisted corpus, in deterministic order;
  // evaluated in batches like any other candidates.
  if (report.violations == 0) {
    std::vector<ScheduleTrace> wave;
    for (ScheduleTrace& s : load_corpus(opts_.corpus_dir)) {
      if (report.execs + wave.size() >= opts_.max_execs) break;
      std::sort(s.ops.begin(), s.ops.end());
      if (s.empty() || !admissible(s)) continue;
      if (!seen_.insert(s.digest()).second) continue;
      wave.push_back(std::move(s));
    }
    if (!wave.empty()) {
      const auto evals = core::run_cells(
          wave,
          [&](const ScheduleTrace& t) {
            return eval_schedule(scenario_, resolved_, t, opts_.horizon, true, true);
          },
          {.threads = opts_.threads});
      for (std::size_t i = 0; i < wave.size(); ++i) {
        ++report.corpus_loaded;
        (void)fold(wave[i], evals[i], std::nullopt, report);
      }
    }
  }

  // The greybox loop.
  Rng rng(opts_.seed);
  while (report.violations == 0 && report.execs < opts_.max_execs && !menu_.empty()) {
    struct Candidate {
      ScheduleTrace trace;
      std::size_t parent = 0;
    };
    std::vector<Candidate> wave;
    const std::size_t want = std::min(opts_.batch, opts_.max_execs - report.execs);
    for (std::size_t i = 0; i < want; ++i) {
      for (int attempt = 0; attempt < 8; ++attempt) {
        const std::size_t parent = pick_parent(rng);
        const ScheduleTrace* splice = nullptr;
        if (corpus_.size() > 1 && rng.below(4) == 0) {
          splice = &corpus_[pick_parent(rng)].trace;
        }
        ScheduleTrace cand = mutate(corpus_[parent].trace, splice, rng);
        if (!seen_.insert(cand.digest()).second) continue;  // already run
        wave.push_back({std::move(cand), parent});
        break;
      }
    }
    if (wave.empty()) break;  // mutation space exhausted around the corpus

    const auto evals = core::run_cells(
        wave,
        [&](const Candidate& c) {
          return eval_schedule(scenario_, resolved_, c.trace, opts_.horizon, true, true);
        },
        {.threads = opts_.threads});
    for (std::size_t i = 0; i < wave.size(); ++i) {
      (void)fold(wave[i].trace, evals[i], wave[i].parent, report);
    }
  }

  if (report.counterexample.has_value() && !report.counterexample->empty()) {
    report.counterexample =
        detail::minimize(scenario_, resolved_, opts_.horizon, *report.counterexample,
                         &report.counterexample_views, &report.shrink_runs);
    // The shrunken counterexample is the corpus's most valuable entry: a
    // replayable regression asset that persists with the directory.
    corpus_.push_back({*report.counterexample, 1});
  }

  report.corpus_size = corpus_.size();
  report.coverage = coverage_.size();
  if (!opts_.corpus_dir.empty()) {
    std::vector<ScheduleTrace> traces;
    traces.reserve(corpus_.size());
    for (const Entry& entry : corpus_) traces.push_back(entry.trace);
    report.corpus_saved = save_corpus(opts_.corpus_dir, traces, &report.corpus_error);
  }
  return report;
}

std::vector<ScheduleTrace> Fuzzer::load_corpus(const std::string& dir) {
  std::vector<ScheduleTrace> traces;
  std::error_code ec;
  if (dir.empty() || !fs::is_directory(dir, ec)) return traces;

  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".trace") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());  // directory order is not deterministic

  for (const fs::path& path : files) {
    std::ifstream in(path);
    if (!in) continue;
    std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) text.pop_back();
    auto trace = ScheduleTrace::parse(text);
    if (trace.has_value() && !trace->empty()) traces.push_back(std::move(*trace));
  }
  return traces;
}

std::size_t Fuzzer::save_corpus(const std::string& dir, const std::vector<ScheduleTrace>& traces,
                                std::string* error) {
  if (dir.empty()) return 0;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {  // a file in the way, or no permission: nothing to save into
    if (error != nullptr) *error = "cannot create " + dir;
    return 0;
  }
  std::size_t written = 0;
  for (const ScheduleTrace& trace : traces) {
    if (trace.empty()) continue;
    const fs::path path = fs::path(dir) / (to_hex(trace.digest()) + ".trace");
    if (fs::exists(path, ec)) continue;  // content-addressed: already persisted
    std::ofstream out(path);
    out << trace.serialize() << "\n";
    if (std::string failed = core::close_report(out, path.string()); !failed.empty()) {
      // A partial file would count as persisted and block this trace for good.
      fs::remove(path, ec);
      if (error != nullptr) *error = std::move(failed);
      return written;
    }
    ++written;
  }
  return written;
}

}  // namespace bsm::sched
