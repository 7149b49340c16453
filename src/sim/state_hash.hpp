// Canonical state snapshots for the bounded model checker (src/verify/).
//
// Every simulator component exposes its protocol-relevant state through
// Component::snapshot_state(StateHasher&). The hasher keeps two FNV-1a
// channels:
//
//   mix()        — the FROZEN channel: protocol state a certified-quiescent
//                  skip must leave bit-identical (FSM states, credit
//                  counters, queue contents, pending deadlines). Two states
//                  with equal frozen digests have identical futures under
//                  identical environment actions.
//   accounting() — per-cycle counters that Component::skip_to legitimately
//                  replays across a skip (wait/busy/stall cycles). They
//                  differ between a skipped and a densely ticked range's
//                  *intermediate* observations only in when they settle,
//                  never in their settled value, and they grow with path
//                  length — so they are kept out of the frozen digest that
//                  the explorer deduplicates on.
//
// Pending DEADLINES (busy_until_, visible_at, notify_at_) are mixed through
// mix_cycle(), which canonicalizes them relative to a base cycle: the
// explorer hashes with base = now so that the same protocol situation
// reached at different absolute times deduplicates, and every deadline in
// the past collapses to one sentinel (a component only ever compares them
// against now with >=, so all past values are behaviourally identical).
// The wake-soundness audit hashes with base = 0 — absolute bit-stability is
// exactly the property it checks between two dense cycles.
//
// Lifetime counters (total samples pushed/popped/processed/delivered,
// per-stream completion logs) belong to NEITHER channel: they are
// observable statistics, but including them would make every state on a
// path unique and defeat deduplication. The differential stepper suites
// already pin them cycle-exactly.
//
// The CONTROL mode (StateHasher::control) is the steady-state replay's
// period detector (System::run, docs/performance.md): it hashes only the
// state that decides WHEN things happen. mix_payload() (sample values),
// mix_progress() (cursors that count toward a block's or a source's end)
// and kernel data words drop out, so two cycles of a streaming block one
// period apart hash equal. It uses a one-multiply word mix instead of
// byte-wise FNV; the full mode's digests are unchanged.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>

namespace acc::sim {

class StateHasher {
 public:
  /// `base`: cycle the snapshot is taken at (deadlines are canonicalized
  /// relative to it). Base 0 keeps deadlines absolute.
  explicit StateHasher(std::int64_t base = 0) : base_(base) {}

  /// Control-mode hasher at `base` (see the file header).
  [[nodiscard]] static StateHasher control(std::int64_t base) {
    StateHasher h(base);
    h.control_ = true;
    return h;
  }

  [[nodiscard]] std::int64_t base() const { return base_; }
  [[nodiscard]] bool control_only() const { return control_; }

  /// Frozen channel: protocol state that must be bit-stable across a
  /// certified-quiescent skip.
  void mix(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
  void mix(std::uint64_t v) {
    frozen_ = control_ ? (frozen_ ^ v) * kWordPrime : fnv(frozen_, v);
  }
  void mix(std::int32_t v) { mix(static_cast<std::int64_t>(v)); }
  void mix(std::uint32_t v) { mix(static_cast<std::uint64_t>(v)); }
  void mix(bool b) { mix(static_cast<std::int64_t>(b ? 1 : 0)); }
  void mix(std::string_view s) {
    for (const char c : s) frozen_ = fnv(frozen_, static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    frozen_ = fnv(frozen_, 0x1F);  // length delimiter
  }

  /// Frozen channel, data-valued: a sample payload (skipped in control
  /// mode).
  void mix_payload(std::uint64_t v) {
    if (!control_) mix(v);
  }
  /// Frozen channel, progress-valued: a cursor toward a block's or a
  /// source's end (skipped in control mode).
  void mix_progress(std::int64_t v) {
    if (!control_) mix(v);
  }

  /// Frozen channel, deadline-valued: kNeverCycle keeps its sentinel, any
  /// deadline at or before `base` collapses to -1 (already expired — all
  /// such values are behaviourally identical), future deadlines become
  /// base-relative.
  void mix_cycle(std::int64_t c) {
    if (c == std::numeric_limits<std::int64_t>::max()) {
      mix(std::int64_t{-2});
    } else if (c <= base_) {
      mix(std::int64_t{-1});
    } else {
      mix(c - base_);
    }
  }

  /// Accounting channel: counters skip_to replays (kept out of frozen()).
  void accounting(std::int64_t v) {
    acct_ = fnv(acct_, static_cast<std::uint64_t>(v));
  }

  /// Digest of the frozen channel only (explorer deduplication key, wake
  /// audit stability check).
  [[nodiscard]] std::uint64_t frozen() const { return frozen_; }
  /// Digest over both channels.
  [[nodiscard]] std::uint64_t full() const { return fnv(frozen_, acct_); }

 private:
  static constexpr std::uint64_t kOffset = 1469598103934665603ULL;
  static constexpr std::uint64_t kPrime = 1099511628211ULL;
  static constexpr std::uint64_t kWordPrime = 0x9E3779B97F4A7C15ULL;

  [[nodiscard]] static std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= kPrime;
    }
    return h;
  }

  std::int64_t base_;
  bool control_ = false;
  std::uint64_t frozen_ = kOffset;
  std::uint64_t acct_ = kOffset;
};

}  // namespace acc::sim
