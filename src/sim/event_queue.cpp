#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace fraudsim::sim {

EventId EventQueue::schedule(SimTime at, EventFn fn) {
  const EventId id = next_id_++;
  heap_.push_back(Entry{at, id, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  pending_.insert(id);
  return id;
}

bool EventQueue::restore_entry(SimTime at, EventId id, EventFn fn) {
  if (id == 0 || !pending_.insert(id).second) return false;
  heap_.push_back(Entry{at, id, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  if (id >= next_id_) next_id_ = id + 1;
  return true;
}

bool EventQueue::cancel(EventId id) {
  // Only ids that are scheduled AND have neither fired nor been cancelled are
  // in `pending_`. Everything else — never-issued ids, fired ids, doubly
  // cancelled ids — is rejected without touching any queue state.
  const auto it = pending_.find(id);
  if (it == pending_.end()) return false;
  pending_.erase(it);
  cancelled_.insert(id);
  // Bound the dead mass: without this, a long-horizon entry cancelled early
  // (hold-TTL sweep, retry timer behind an open breaker) pins its heap slot
  // and its `cancelled_` slot until it surfaces at the top — unbounded memory
  // over a 100M-event run. Rebuilding once dead entries exceed half the heap
  // keeps total slots <= 2x live entries, amortised O(1) per cancel.
  if (cancelled_.size() * 2 > heap_.size()) compact();
  return true;
}

void EventQueue::compact() {
  std::erase_if(heap_, [this](const Entry& e) { return cancelled_.contains(e.id); });
  cancelled_.clear();
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::drain_cancelled_top() {
  while (!heap_.empty() && cancelled_.contains(heap_.front().id)) {
    cancelled_.erase(heap_.front().id);
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

bool EventQueue::empty() const { return pending_.empty(); }

std::size_t EventQueue::pending() const { return pending_.size(); }

SimTime EventQueue::next_time() const {
  assert(!empty());
  // Drain cancelled tops via const_cast — logically const (observable state
  // for live events is unchanged), and pop() would resolve them anyway.
  auto& self = const_cast<EventQueue&>(*this);
  self.drain_cancelled_top();
  assert(!heap_.empty());
  return heap_.front().time;
}

EventQueue::Fired EventQueue::pop() {
  assert(!empty());
  drain_cancelled_top();
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry& top = heap_.back();
  Fired fired{top.time, top.id, std::move(top.fn)};
  heap_.pop_back();
  pending_.erase(fired.id);
  return fired;
}

}  // namespace fraudsim::sim
