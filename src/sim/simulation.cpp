#include "sim/simulation.hpp"

#include <algorithm>

namespace fraudsim::sim {

EventId Simulation::schedule_at(SimTime at, EventFn fn) {
  return queue_.schedule(std::max(at, now_), std::move(fn));
}

EventId Simulation::schedule_in(SimDuration delay, EventFn fn) {
  return schedule_at(now_ + std::max<SimDuration>(delay, 0), std::move(fn));
}

void Simulation::run_until(SimTime end) {
  while (!stopped_ && !queue_.empty() && queue_.next_time() <= end) {
    auto fired = queue_.pop();
    now_ = fired.time;
    ++fired_;
    fired.fn();
  }
  if (!stopped_) now_ = std::max(now_, end);
}

void Simulation::run_before(SimTime end) {
  while (!stopped_ && !queue_.empty() && queue_.next_time() < end) {
    auto fired = queue_.pop();
    now_ = fired.time;
    ++fired_;
    fired.fn();
  }
  if (!stopped_) now_ = std::max(now_, end);
}

void Simulation::run_all(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (!stopped_ && !queue_.empty() && n < max_events) {
    auto fired = queue_.pop();
    now_ = fired.time;
    ++fired_;
    ++n;
    fired.fn();
  }
}

bool Simulation::step() {
  if (stopped_ || queue_.empty()) return false;
  auto fired = queue_.pop();
  now_ = fired.time;
  ++fired_;
  fired.fn();
  return true;
}

}  // namespace fraudsim::sim
