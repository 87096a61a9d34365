#include "core/class_queue.h"

namespace otpdb {

void ClassQueue::append(TxnRecord* txn) {
  const std::uint64_t ticket = base_ + queue_.size();
  if (TxnRecord::QueuePos* stale = txn->find_queue_pos(id_)) {
    // A queue destroyed wholesale (bench teardown, crash reset with reused
    // records) leaves its entries on the records; a record lives in at most
    // one queue per id, so re-appending reclaims the slot.
    stale->ticket = ticket;
  } else {
    txn->queue_pos.push_back(TxnRecord::QueuePos{id_, ticket});
  }
  queue_.push_back(txn);
  if (txn->deliv == DeliveryState::committable && committable_ + 1 == queue_.size()) {
    ++committable_;
  }
}

void ClassQueue::remove_head(TxnRecord* txn) {
  OTPDB_CHECK(!queue_.empty() && queue_.front() == txn);
  queue_.pop_front();
  ++base_;  // cached tickets of the remaining entries stay valid
  if (committable_ > 0) --committable_;
  for (auto it = txn->queue_pos.begin(); it != txn->queue_pos.end(); ++it) {
    if (it->queue == id_) {
      txn->queue_pos.erase(it);
      break;
    }
  }
}

bool ClassQueue::reorder_before_first_pending(TxnRecord* txn) {
  TxnRecord::QueuePos* pos = txn->find_queue_pos(id_);
  OTPDB_CHECK_MSG(pos != nullptr, "CC10 on a transaction missing from its queue");
  const std::size_t old_pos = index_of(*pos);
  OTPDB_CHECK_MSG(old_pos < queue_.size() && queue_[old_pos] == txn,
                  "cached queue position out of sync");
  OTPDB_CHECK_MSG(old_pos >= committable_, "CC10 must start from the pending suffix");
  const std::size_t new_pos = committable_;  // directly after the committable prefix
  ++committable_;  // txn joins the prefix (its delivery state is committable now)
  if (old_pos == new_pos) return false;

  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(old_pos));
  queue_.insert(queue_.begin() + static_cast<std::ptrdiff_t>(new_pos), txn);
  pos->ticket = base_ + new_pos;
  // The displaced entries (previously [new_pos, old_pos)) shifted up by one.
  for (std::size_t i = new_pos + 1; i <= old_pos; ++i) {
    TxnRecord::QueuePos* moved = queue_[i]->find_queue_pos(id_);
    OTPDB_ASSERT(moved != nullptr);
    moved->ticket = base_ + i;
  }
  return true;
}

void ClassQueue::check_invariants() const {
  std::size_t prefix = 0;
  bool seen_pending = false;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const TxnRecord* t = queue_[i];
    if (t->deliv == DeliveryState::pending) {
      seen_pending = true;
    } else {
      OTPDB_CHECK_MSG(!seen_pending, "committable transactions must form a prefix");
      ++prefix;
    }
    if (i > 0) {
      OTPDB_CHECK_MSG(!t->running && t->exec == ExecState::active,
                      "only the head may be running or executed");
    }
    const TxnRecord::QueuePos* pos = t->find_queue_pos(id_);
    OTPDB_CHECK_MSG(pos != nullptr && index_of(*pos) == i,
                    "cached queue position out of sync with the queue");
  }
  OTPDB_CHECK_MSG(committable_ == prefix, "committable prefix counter out of sync");
}

}  // namespace otpdb
