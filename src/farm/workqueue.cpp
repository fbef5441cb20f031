#include "farm/workqueue.h"

#include <algorithm>
#include <utility>

#include "support/check.h"

namespace omx::farm {

WorkQueue::WorkQueue(WorkQueueOptions options, Clock now)
    : options_(std::move(options)), now_(std::move(now)) {
  OMX_REQUIRE(options_.max_attempts >= 1, "work queue needs max_attempts >= 1");
  OMX_REQUIRE(now_ != nullptr, "work queue needs a clock");
}

bool WorkQueue::add(std::string key, harness::ExperimentConfig config) {
  if (std::find(keys_.begin(), keys_.end(), key) != keys_.end()) return false;
  keys_.push_back(key);
  WorkItem item;
  item.key = std::move(key);
  item.config = std::move(config);
  items_.push_back(std::move(item));
  return true;
}

bool WorkQueue::mark_done(const std::string& key) {
  for (auto& item : items_) {
    if (item.key == key) {
      item.state = ItemState::Done;
      return true;
    }
  }
  return false;
}

std::optional<std::size_t> WorkQueue::acquire(int worker_slot,
                                              std::int64_t pid) {
  const std::uint64_t now = now_();
  for (std::size_t i = 0; i < items_.size(); ++i) {
    WorkItem& item = items_[i];
    if (item.state != ItemState::Pending || item.eligible_at_ms > now)
      continue;
    item.state = ItemState::Leased;
    ++item.attempts;
    if (item.attempts > 1) ++retries_;
    item.worker_slot = worker_slot;
    item.worker_pid = pid;
    item.lease_deadline_ms =
        options_.watchdog_ms == 0 ? 0 : now + options_.watchdog_ms;
    item.watchdog_fired = false;
    return i;
  }
  return std::nullopt;
}

void WorkQueue::complete(std::size_t index) {
  WorkItem& item = items_.at(index);
  OMX_CHECK(item.state == ItemState::Leased,
            "completing an item that is not leased: " + item.key);
  item.state = ItemState::Done;
  item.worker_slot = -1;
  item.worker_pid = -1;
}

bool WorkQueue::fail(std::size_t index) {
  WorkItem& item = items_.at(index);
  OMX_CHECK(item.state == ItemState::Leased,
            "failing an item that is not leased: " + item.key);
  item.worker_slot = -1;
  item.worker_pid = -1;
  if (item.attempts >= options_.max_attempts) {
    item.state = ItemState::Failed;
    return false;
  }
  // Exponential backoff, capped: attempt k (1-based) failed, so the k+1'th
  // lease becomes eligible after base << (k-1).
  std::uint64_t backoff = options_.backoff_base_ms;
  for (std::uint32_t i = 1; i < item.attempts && backoff < options_.backoff_cap_ms;
       ++i) {
    backoff *= 2;
  }
  backoff = std::min(backoff, options_.backoff_cap_ms);
  item.eligible_at_ms = now_() + backoff;
  item.state = ItemState::Pending;
  return true;
}

std::optional<std::size_t> WorkQueue::find(const std::string& key) const {
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (items_[i].key == key) return i;
  }
  return std::nullopt;
}

bool WorkQueue::lease_current(std::size_t index, std::uint32_t epoch) const {
  const WorkItem& item = items_.at(index);
  return item.state == ItemState::Leased && item.attempts == epoch &&
         !item.watchdog_fired;
}

std::vector<std::size_t> WorkQueue::expired() {
  std::vector<std::size_t> out;
  if (options_.watchdog_ms == 0) return out;
  const std::uint64_t now = now_();
  for (std::size_t i = 0; i < items_.size(); ++i) {
    WorkItem& item = items_[i];
    if (item.state == ItemState::Leased && !item.watchdog_fired &&
        item.lease_deadline_ms != 0 && now >= item.lease_deadline_ms) {
      item.watchdog_fired = true;
      out.push_back(i);
    }
  }
  return out;
}

std::optional<std::uint64_t> WorkQueue::next_deadline_in() const {
  const std::uint64_t now = now_();
  std::optional<std::uint64_t> best;
  const auto consider = [&](std::uint64_t at) {
    const std::uint64_t in = at > now ? at - now : 0;
    if (!best || in < *best) best = in;
  };
  for (const auto& item : items_) {
    if (item.state == ItemState::Pending && item.eligible_at_ms > now) {
      consider(item.eligible_at_ms);
    } else if (item.state == ItemState::Leased && !item.watchdog_fired &&
               item.lease_deadline_ms != 0) {
      consider(item.lease_deadline_ms);
    }
  }
  return best;
}

bool WorkQueue::has_eligible() const {
  const std::uint64_t now = now_();
  return std::any_of(items_.begin(), items_.end(), [now](const WorkItem& i) {
    return i.state == ItemState::Pending && i.eligible_at_ms <= now;
  });
}

bool WorkQueue::all_settled() const {
  return std::all_of(items_.begin(), items_.end(), [](const WorkItem& i) {
    return i.state == ItemState::Done || i.state == ItemState::Failed;
  });
}

std::size_t WorkQueue::count(ItemState s) const {
  return static_cast<std::size_t>(
      std::count_if(items_.begin(), items_.end(),
                    [s](const WorkItem& i) { return i.state == s; }));
}

}  // namespace omx::farm
