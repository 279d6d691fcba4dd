// Discrete-event priority queue with cancellable handles.
//
// Events at equal timestamps fire in scheduling order (FIFO), which keeps
// simulations deterministic regardless of heap internals.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "sim/time.hpp"

namespace fraudsim::sim {

using EventId = std::uint64_t;
using EventFn = std::function<void()>;

class EventQueue {
 public:
  // Schedules `fn` at absolute time `at`. Returns a handle usable with cancel().
  EventId schedule(SimTime at, EventFn fn);

  // Cancels a pending event. Returns false if already fired or cancelled.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const;
  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] SimTime next_time() const;  // undefined if empty()

  // Pops and returns the next event. Pre: !empty().
  struct Fired {
    SimTime time;
    EventId id;
    EventFn fn;
  };
  Fired pop();

  // --- Checkpoint support ----------------------------------------------------
  // Pending entries are workload data (closures are not serialisable), so
  // checkpoint owners persist their own descriptors and re-register them on
  // restore under their ORIGINAL ids — preserving the FIFO tiebreak order a
  // continuous run would have used — then restore the id counter so future
  // handles continue the exact sequence. Refuses (false, nothing queued) an
  // id that was never issued (0) or is already pending.
  [[nodiscard]] bool restore_entry(SimTime at, EventId id, EventFn fn);
  [[nodiscard]] EventId next_id() const { return next_id_; }
  void set_next_id(EventId id) { next_id_ = id; }

  // --- Introspection (compaction regression tests) --------------------------
  // Heap slots currently held, live + dead. Bounded by live + cancelled: the
  // queue compacts away dead entries before they can exceed half the heap.
  [[nodiscard]] std::size_t heap_size() const { return heap_.size(); }
  [[nodiscard]] std::size_t cancelled_count() const { return cancelled_.size(); }

 private:
  struct Entry {
    SimTime time;
    EventId id;  // also the FIFO tiebreaker (monotonically increasing)
    EventFn fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };

  // Drops every cancelled entry and rebuilds the heap. (time, id) is a total
  // order, so pop order — and therefore observable behaviour — is unchanged.
  void compact();
  // Cancelled entries are reclaimed lazily when they surface at the heap top;
  // compact() bounds the dead mass so a long-horizon timer cancelled early
  // cannot pin its slot for the rest of the run.
  void drain_cancelled_top();

  // Per-id liveness: an id is in `pending_` from schedule() until it either
  // fires or is cancelled. cancel() consults it, so cancelling an
  // already-fired (or already-cancelled) id is a clean no-op — the id can
  // never leak into `cancelled_` or skew the live count. Cancelled entries
  // stay in the heap until they surface at the top or a compaction sweep
  // rebuilds the heap without them (triggered when dead entries outnumber
  // half the heap).
  std::vector<Entry> heap_;  // binary heap ordered by Later (std::*_heap)
  std::unordered_set<EventId> pending_;
  std::unordered_set<EventId> cancelled_;
  EventId next_id_ = 1;
};

}  // namespace fraudsim::sim
