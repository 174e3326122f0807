// Strict two-phase-locking TM — the database-style baseline the paper
// contrasts TM against throughout (§2, §3.6, §6):
//
//   "systems that support full isolation of transactional code from the
//    outside environment, e.g., databases ... can render aborted
//    transactions completely harmless"
//
// Readers take per-variable shared locks, writers exclusive locks, both
// held until after commit (strictness + rigorousness): no transaction ever
// performs a conflicting operation on a variable while another holds it.
// The histories this produces are RIGOROUS in the §3.6 sense — which the
// paper shows is strictly stronger than opacity (tests/stm/twopl_test
// checks recorded runs against core::check_rigorous, and the §3.6
// blind-write example shows what rigor forbids that opacity allows).
//
// Recording invariant (what makes the §3.6 claim hold of a RECORDING, not
// only of the execution): every event a transaction records on x is
// recorded while it holds x's lock — the invocation after acquisition, the
// completion (C or A) before release. Conflicting lock-hold intervals are
// disjoint, so the single stamp order of the recorder puts conflicting
// operations in the order the locks grant them, on every schedule. A
// refused request (wait-die "die") records inv·A without holding the lock;
// the checkers ignore it, since an invocation answered by A never executed
// (core::executed_invocations).
//
// Design-space coordinates (§6): reads are VISIBLE (the reader bitmap RMW
// is a shared-memory write on the read path), storage is single-version,
// and deadlock avoidance is wait-die — a requester older than the lock
// holder waits, a younger one aborts itself ("dies"). Aborts therefore
// happen only against live lock holders, i.e. the implementation is
// progressive, and no operation ever validates anything: per-operation
// cost is O(1), exactly the visible-read escape route from Theorem 3.
//
// Wait-die notes: priorities are begin-time stamps from a shared counter
// (smaller = older). Priority reads race with holder turnover; a stale
// comparison can only cause a spurious die or a wait that resolves when
// the stale holder completes — never a deadlock. WaitPolicy::kNoWait turns
// every would-wait into a die, which lets the deterministic tests drive
// interleaved logical processes from one OS thread without spinning.
#pragma once

#include <vector>

#include "sim/base_object.hpp"
#include "stm/runtime.hpp"
#include "util/cache.hpp"

namespace optm::stm {

/// What a lock requester does when wait-die says "wait".
enum class WaitPolicy : std::uint8_t {
  kSpin,    // backoff-spin until the holder releases (real concurrency)
  kNoWait,  // die immediately (deterministic single-thread driving)
};

class TwoPlStm final : public RuntimeBase {
 public:
  explicit TwoPlStm(std::size_t num_vars, WaitPolicy wait = WaitPolicy::kSpin);

  [[nodiscard]] StmProperties properties() const noexcept override {
    return {.name = "twopl",
            .invisible_reads = false,  // reader bitmap RMW on every read
            .single_version = true,
            .progressive = true,  // dies only against live holders
            .opaque = true};
  }

  void begin(sim::ThreadCtx& ctx) override;
  [[nodiscard]] bool read(sim::ThreadCtx& ctx, VarId var,
                          std::uint64_t& out) override;
  [[nodiscard]] bool write(sim::ThreadCtx& ctx, VarId var,
                           std::uint64_t value) override;
  [[nodiscard]] bool commit(sim::ThreadCtx& ctx) override;
  void abort(sim::ThreadCtx& ctx) override;

 private:
  struct VarMeta {
    sim::BaseWord readers;  // bitmap: bit s = process s holds a shared lock
    sim::BaseWord writer;   // slot + 1 of the exclusive holder, 0 = free
    sim::BaseWord value;    // latest committed value (single-version)
  };

  struct Slot {
    bool active = false;
    std::uint64_t ts = 0;          // wait-die priority (smaller = older)
    std::vector<VarId> read_locked;
    std::vector<VarId> write_locked;
    WriteSet ws;  // buffered values, installed at commit under the locks
  };

  [[nodiscard]] static constexpr std::uint64_t bit_of(std::uint32_t slot) noexcept {
    return std::uint64_t{1} << slot;
  }

  [[nodiscard]] bool holds_read(const Slot& slot, VarId var) const noexcept;
  [[nodiscard]] bool holds_write(const Slot& slot, VarId var) const noexcept;

  /// Shared-lock `var`. Returns false if wait-die ruled "die".
  [[nodiscard]] bool lock_read(sim::ThreadCtx& ctx, Slot& slot, VarId var);
  /// Exclusive-lock `var` (upgrades an own shared lock). False on "die".
  [[nodiscard]] bool lock_write(sim::ThreadCtx& ctx, Slot& slot, VarId var);

  /// Wait-die arbitration: true = keep trying (wait), false = die.
  [[nodiscard]] bool may_wait_for(sim::ThreadCtx& ctx, const Slot& slot,
                                  std::uint32_t holder);

  void release_all(sim::ThreadCtx& ctx, Slot& slot);

  bool fail_op(sim::ThreadCtx& ctx);

  std::vector<util::Padded<VarMeta>> vars_;
  std::array<util::Padded<sim::BaseWord>, sim::kMaxThreads> prio_;
  std::array<util::Padded<Slot>, sim::kMaxThreads> slots_;
  sim::GlobalClock ts_source_;
  WaitPolicy wait_;
};

}  // namespace optm::stm
