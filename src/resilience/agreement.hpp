// Fault-tolerant agreement ledger (the ULFM-shrink-style primitive behind
// Rank::agree).
//
// One Agreement instance is shared by every participant of a single agree()
// call: each live member deposits its contribution, then blocks until the
// freeze condition holds — every member of the group has either deposited or
// is recorded dead in the machine's failure record. The first rank to
// observe the condition freezes the result exactly once: the agreed value
// (OR over all deposited contributions, including those of ranks that died
// after depositing) together with a snapshot of the dead set and of the
// surviving group at freeze time. Every reader — including ranks that were
// still blocked — then returns the same frozen triple, which is what makes
// the primitive usable to settle a consistent failure view and shrunken
// membership among survivors.
//
// Progress: every deposit and every crash strictly shrinks the set of
// members the condition is waiting on, so the agreement terminates under
// any crash pattern short of losing the whole group (in which case there is
// nobody left blocked on it). The wire cost is carried by the failure-aware
// dissemination barrier Rank::agree runs alongside the ledger (log-P
// rounds); the ledger itself models the agreed state, not traffic.
#pragma once

#include <cstdint>
#include <vector>

#include "mpi/group.hpp"

namespace ds::resilience {

struct Agreement {
  explicit Agreement(int size)
      : deposited(static_cast<std::size_t>(size), 0),
        contribution(static_cast<std::size_t>(size), 0) {}

  std::vector<std::uint8_t> deposited;     ///< by group rank
  std::vector<std::uint64_t> contribution; ///< valid where deposited
  bool frozen = false;
  std::uint64_t value = 0;  ///< OR over deposited contributions at freeze
  /// Members alive at freeze time, in group order: the communicator's own
  /// group when nobody died, otherwise built once by the freezing rank.
  mpi::Group survivors;
  std::vector<int> failed;  ///< world ranks excused (dead) at freeze time
  std::vector<int> waiters; ///< fiber pids blocked on the freeze
  /// Live participants that have not yet read the frozen result; the
  /// machine erases the ledger entry when this reaches zero. (A participant
  /// that crashes *after* the freeze leaves the entry behind — bounded by
  /// the number of such crashes, and negligible next to the run itself.)
  int readers_left = 0;
};

}  // namespace ds::resilience
