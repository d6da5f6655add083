#include "src/ctrl/admission.h"

#include <algorithm>

#include "src/snapshot/archive.h"

namespace androne {
namespace {

// Section tag for snapshot blobs.
constexpr char kAdmissionSection[5] = "ADMC";

}  // namespace

double BoardOverheadMb() {
  // Host base + device container (init, servicemanager, system_server) +
  // flight container (init, ardupilot, mavproxy): 95 + 90 + 60 = 245 MB.
  const double device =
      kDeviceContainerBaseMemoryMb +
      DefaultProcessNames(ContainerKind::kDevice).size() * kPerProcessMemoryMb;
  const double flight =
      kFlightContainerBaseMemoryMb +
      DefaultProcessNames(ContainerKind::kFlight).size() * kPerProcessMemoryMb;
  return kHostBaseMemoryMb + device + flight;
}

double VdroneFootprintMb(int processes) {
  return kVirtualDroneBaseMemoryMb + processes * kPerProcessMemoryMb;
}

AdmissionController::AdmissionController(const AdmissionConfig& config) {
  board_budget_mb_ =
      config.board_budget_mb > 0 ? config.board_budget_mb : kUsableMemoryMb;
  usable_mb_ = board_budget_mb_ - BoardOverheadMb();
  if (usable_mb_ < 0) {
    usable_mb_ = 0;
  }
  queue_capacity_ = config.queue_capacity;
  boards_.resize(config.boards > 0 ? config.boards : 1);
}

int AdmissionController::FindBoard(double footprint_mb) const {
  for (size_t i = 0; i < boards_.size(); ++i) {
    const Board& b = boards_[i];
    if (b.accepting && b.used_mb + footprint_mb <= usable_mb_) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

bool AdmissionController::AdmitToBoard(int board, uint64_t order,
                                       double footprint_mb) {
  Board& b = boards_[board];
  if (!b.accepting || b.used_mb + footprint_mb > usable_mb_) {
    return false;
  }
  b.used_mb += footprint_mb;
  b.orders.push_back(order);
  b.footprints.push_back(footprint_mb);
  ++admitted_total_;
  AuditBudgets();
  return true;
}

AdmitResult AdmissionController::Request(uint64_t order, double footprint_mb) {
  AdmitResult result;
  // An order that cannot fit even an empty board would block the queue head
  // forever: refuse it outright.
  if (footprint_mb > usable_mb_) {
    ++rejected_total_;
    result.outcome = AdmitOutcome::kRejected;
    return result;
  }
  // Strict FIFO: no overtaking the queue, even if this order would fit a
  // board the queue head does not.
  if (queue_.empty()) {
    const int board = FindBoard(footprint_mb);
    if (board >= 0 && AdmitToBoard(board, order, footprint_mb)) {
      result.outcome = AdmitOutcome::kAdmitted;
      result.board = board;
      return result;
    }
  }
  if (queue_.size() < queue_capacity_) {
    queue_.push_back(Waiting{order, footprint_mb});
    ++queued_total_;
    result.outcome = AdmitOutcome::kQueued;
    return result;
  }
  ++rejected_total_;
  result.outcome = AdmitOutcome::kRejected;
  return result;
}

void AdmissionController::Launch(int board) {
  boards_[board].accepting = false;
}

std::vector<DrainedAdmit> AdmissionController::ReleaseBoard(int board) {
  Board& b = boards_[board];
  b.used_mb = 0;
  b.orders.clear();
  b.footprints.clear();
  b.accepting = true;
  AuditBudgets();
  return DrainQueue();
}

std::vector<DrainedAdmit> AdmissionController::Remove(uint64_t order) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->order == order) {
      queue_.erase(it);
      // A queued order held no capacity, but if it was the unfittable head
      // the new head may now drain.
      return DrainQueue();
    }
  }
  for (size_t bi = 0; bi < boards_.size(); ++bi) {
    Board& b = boards_[bi];
    for (size_t i = 0; i < b.orders.size(); ++i) {
      if (b.orders[i] == order) {
        b.used_mb -= b.footprints[i];
        if (b.used_mb < 0) {
          b.used_mb = 0;
        }
        b.orders.erase(b.orders.begin() + i);
        b.footprints.erase(b.footprints.begin() + i);
        AuditBudgets();
        return DrainQueue();
      }
    }
  }
  return {};
}

std::vector<DrainedAdmit> AdmissionController::DrainQueue() {
  std::vector<DrainedAdmit> drained;
  while (!queue_.empty()) {
    const Waiting& head = queue_.front();
    const int board = FindBoard(head.footprint_mb);
    if (board < 0) {
      break;  // FIFO: the head blocks everything behind it.
    }
    const uint64_t order = head.order;
    const double footprint = head.footprint_mb;
    queue_.pop_front();
    if (!AdmitToBoard(board, order, footprint)) {
      // FindBoard said yes and nothing ran in between; treat a refusal here
      // as the accounting bug it would be.
      ++violations_;
      break;
    }
    drained.push_back(DrainedAdmit{order, board});
  }
  return drained;
}

bool AdmissionController::BoardFull(int board, double footprint_mb) const {
  return boards_[board].used_mb + footprint_mb > usable_mb_;
}

double AdmissionController::BoardUsedMb(int board) const {
  return boards_[board].used_mb;
}

double AdmissionController::BoardFreeMb(int board) const {
  return usable_mb_ - boards_[board].used_mb;
}

bool AdmissionController::BoardAccepting(int board) const {
  return boards_[board].accepting;
}

void AdmissionController::AuditBudgets() {
  for (const Board& b : boards_) {
    double sum = 0;
    for (double f : b.footprints) {
      sum += f;
    }
    if (b.used_mb > usable_mb_ || sum > usable_mb_) {
      ++violations_;
    }
  }
}

template <class Ar>
Status AdmissionController::Visit(Ar& ar) {
  ar.Section(kAdmissionSection);
  ar.F64(board_budget_mb_);
  ar.F64(usable_mb_);
  ar.U64(queue_capacity_);
  ar.U64(admitted_total_);
  ar.U64(queued_total_);
  ar.U64(rejected_total_);
  ar.U64(violations_);
  ar.Seq(boards_, [&](Board& b) {
    ar.Bool(b.accepting);
    ar.F64(b.used_mb);
    // |footprints| is parallel to |orders|: each order travels with its
    // footprint.
    const uint64_t n = ar.Size(b.orders.size());
    b.orders.resize(n);
    b.footprints.resize(n);
    for (size_t i = 0; i < n; ++i) {
      ar.U64(b.orders[i]);
      ar.F64(b.footprints[i]);
    }
  });
  ar.Seq(queue_, [&](Waiting& q) {
    ar.U64(q.order);
    ar.F64(q.footprint_mb);
  });
  return ar.status();
}

template Status AdmissionController::Visit(SaveArchive&);
template Status AdmissionController::Visit(LoadArchive&);

}  // namespace androne
