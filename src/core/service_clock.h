// ServiceClock - the virtual service clock behind deadline budgets.
//
// The clock has one lane per queue key: a conflict class, or an object under
// object keys (the lock-table engine). Every non-dropped transaction occupies
// exec_duration of virtual serial service on each of its lanes, starting no
// earlier than its submission and those lanes' backlogs. A transaction whose
// virtual finish overruns its deadline is dropped and occupies no service
// time, but it still advances each of its lanes to its virtual start: in the
// real queues it waits in every covered queue until it heads them all, so a
// multi-lane drop holds its idle lanes until its busiest lane reaches it. A
// single-lane drop moves its lane only when the lane was idle before the
// submission (its virtual start is then submitted_at). Under overload the
// clock runs ahead of real submit times - that growing gap is exactly the
// queueing delay the deadline is budgeting against. The clock is fed only
// agreed data (definitive order, submitted_at, exec_duration, deadline, queue
// keys), so every site drops the same transactions.
//
// A warm recovery re-enters the definitive order just above the committed
// floor, so the clock must be wound back to its value as of that floor. It
// keeps an undo entry per lane update above the floor; entries are settled
// (forgotten) as the committed floor passes them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/txn.h"
#include "util/types.h"

namespace otpdb {

class ServiceClock {
 public:
  explicit ServiceClock(std::size_t n_lanes) : clock_(n_lanes, 0) {}

  /// Charges `request`, TO-delivered with `index`, to its `lanes`, and
  /// returns false when it must be dropped. An index at or below the last one
  /// charged is a replay the clock already holds: it is admitted without a
  /// charge. `committed_floor` settles the undo entries at or below it.
  bool admit(const TxnRequest& request, QueueKeys lanes, TOIndex index,
             TOIndex committed_floor) {
    if (index <= last_index_) return true;
    last_index_ = index;
    settle(committed_floor);
    SimTime vstart = request.submitted_at;
    for (QueueKey lane : lanes) vstart = std::max(vstart, clock_[lane]);
    const SimTime vfinish = vstart + request.exec_duration;
    const bool admitted = request.deadline == 0 || vfinish <= request.deadline;
    const SimTime until = admitted ? vfinish : vstart;  // a drop takes no service
    for (QueueKey lane : lanes) {
      undo_.push_back(Undo{index, lane, clock_[lane]});
      clock_[lane] = until;
    }
    return admitted;
  }

  /// Winds the clock back to its value right after `floor` was charged.
  void rewind(TOIndex floor) {
    while (undo_.size() > head_ && undo_.back().index > floor) {
      clock_[undo_.back().lane] = undo_.back().previous;
      undo_.pop_back();
    }
    last_index_ = std::min(last_index_, floor);
  }

  /// Cold restart: the clock died with RAM. Restarts it from zero above
  /// `floor` (indices at or below it arrive as tombstones, uncharged).
  void reset(TOIndex floor) {
    clock_.assign(clock_.size(), 0);
    undo_.clear();
    head_ = 0;
    last_index_ = floor;
  }

 private:
  struct Undo {
    TOIndex index;
    QueueKey lane;
    SimTime previous;
  };

  void settle(TOIndex floor) {
    while (head_ < undo_.size() && undo_[head_].index <= floor) ++head_;
    // Compact once the settled prefix is half the log: the vector keeps its
    // capacity, so steady state allocates nothing.
    if (head_ > 0 && 2 * head_ >= undo_.size()) {
      undo_.erase(undo_.begin(), undo_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  std::vector<SimTime> clock_;  // per lane
  std::vector<Undo> undo_;      // updates above the settled floor, from head_
  std::size_t head_ = 0;
  TOIndex last_index_ = 0;
};

}  // namespace otpdb
