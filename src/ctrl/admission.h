// Admission control for the cloud control plane (DESIGN.md §16): packs
// virtual-drone orders against per-board memory budgets — the paper's
// Figure 12 limit, where an 880 MB usable budget minus the device+flight
// container overhead admits three ~185 MB virtual drones and the fourth
// fails harmlessly — with a queue-or-reject policy and release-on-
// completion. Boards accept orders while boarding, stop at launch, and
// release every admitted footprint when the flight lands, at which point
// the FIFO queue drains back into the freed capacity.
//
// Accounting discipline: every mutation re-checks used <= budget and
// counts a violation if it ever fails (the CI gate is violations == 0),
// and the whole controller state serializes through the snapshot
// archives — save → restore → save is a byte fixed point, so budget
// accounting survives a control-plane checkpoint bit-exactly.
#ifndef SRC_CTRL_ADMISSION_H_
#define SRC_CTRL_ADMISSION_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/container/container.h"
#include "src/util/status.h"

namespace androne {

// Fixed per-board overhead: the host base plus the device and flight
// containers (their default process sets), which every board pays before
// the first tenant boards — mirrors ContainerRuntime's Figure 12 model.
double BoardOverheadMb();

// Memory footprint of one virtual-drone order: the container base plus
// |processes| zygote-forked processes (the default Android Things set is
// five; heavier app stacks request more).
double VdroneFootprintMb(int processes = 5);

struct AdmissionConfig {
  int boards = 4;
  // Usable RAM per board; 0 = the paper's board default (880 MB).
  double board_budget_mb = 0;
  // Waiting orders the shard will hold before rejecting outright.
  size_t queue_capacity = 64;
};

enum class AdmitOutcome : uint8_t { kAdmitted = 0, kQueued = 1, kRejected = 2 };

struct AdmitResult {
  AdmitOutcome outcome = AdmitOutcome::kRejected;
  int board = -1;  // Valid only when admitted.
};

// One order newly admitted by a release/removal drain.
struct DrainedAdmit {
  uint64_t order = 0;
  int board = -1;
};

class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionConfig& config);

  // Queue-or-reject admission. Strict FIFO: while the queue is non-empty a
  // new order goes behind it (no overtaking); an order whose footprint can
  // never fit an empty board is rejected immediately rather than blocking
  // the queue head forever.
  AdmitResult Request(uint64_t order, double footprint_mb);

  // The board took off: it stops accepting until ReleaseBoard.
  void Launch(int board);

  // The board landed: every admitted footprint is released, the board
  // accepts again, and the queue drains (FIFO, stopping at the first head
  // that fits nowhere). Returns the newly admitted orders in drain order.
  std::vector<DrainedAdmit> ReleaseBoard(int board);

  // Cancellation: removes |order| from the queue or from its boarding
  // board (freeing its footprint and draining the queue into it). Returns
  // any newly admitted orders. No-op when the order is unknown (e.g.
  // already launched — flight memory stays held until the board lands).
  std::vector<DrainedAdmit> Remove(uint64_t order);

  // True when no further footprint of |footprint_mb| fits the board — the
  // fleet manager's launch-when-full trigger.
  bool BoardFull(int board, double footprint_mb) const;

  double BoardUsedMb(int board) const;
  double BoardFreeMb(int board) const;
  bool BoardAccepting(int board) const;
  double board_budget_mb() const { return board_budget_mb_; }
  double usable_mb() const { return usable_mb_; }
  int boards() const { return static_cast<int>(boards_.size()); }
  size_t queue_size() const { return queue_.size(); }

  // Lifetime counters (monotonic).
  uint64_t admitted_total() const { return admitted_total_; }
  uint64_t queued_total() const { return queued_total_; }
  uint64_t rejected_total() const { return rejected_total_; }
  // Budget overruns detected by the post-mutation audit. Must stay 0; a
  // nonzero count means the packing math is broken, and the CI gate on
  // BENCH_control_plane.json trips.
  uint64_t violations() const { return violations_; }

  // Checkpoint/restore (DESIGN.md §13): the complete accounting state
  // (doubles as raw bit patterns); save → restore → save is a byte fixed
  // point. Instantiated for SaveArchive and LoadArchive in admission.cc.
  template <class Ar>
  Status Visit(Ar& ar);

 private:
  struct Board {
    bool accepting = true;
    double used_mb = 0;  // Sum of admitted footprints (excl. overhead).
    std::vector<uint64_t> orders;
    std::vector<double> footprints;  // Parallel to |orders|.
  };
  struct Waiting {
    uint64_t order = 0;
    double footprint_mb = 0;
  };

  // First accepting board (index order) with room; -1 when none.
  int FindBoard(double footprint_mb) const;
  bool AdmitToBoard(int board, uint64_t order, double footprint_mb);
  std::vector<DrainedAdmit> DrainQueue();
  void AuditBudgets();

  double board_budget_mb_ = 0;
  double usable_mb_ = 0;  // budget - overhead: what tenants can pack into.
  size_t queue_capacity_ = 0;
  std::vector<Board> boards_;
  std::deque<Waiting> queue_;
  uint64_t admitted_total_ = 0;
  uint64_t queued_total_ = 0;
  uint64_t rejected_total_ = 0;
  uint64_t violations_ = 0;
};

}  // namespace androne

#endif  // SRC_CTRL_ADMISSION_H_
