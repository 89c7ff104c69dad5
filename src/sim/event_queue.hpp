// Deterministic discrete-event queue for the Monte Carlo schedule
// simulator.
//
// A std::vector min-heap (std::push_heap / std::pop_heap, as the list
// scheduler's ready heap) of (time, kind, task) events, ordered by time with
// insertion sequence as the tie-break: two events at the same timestamp pop
// in the order they were pushed, on every platform and at every thread
// count. (time, sequence) is a strict total order, so the pop sequence does
// not depend on the heap's internals. sim::simulate queues only data
// arrivals that land after the timestamp that produced them (it tracks
// completions per PE), and applies every event of a timestamp before it
// dispatches, so its results depend only on the time order.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace clrearly::sim {

enum class EventKind : std::uint8_t {
  kDataReady,  ///< all of a task's input data has arrived; it may dispatch
  kComplete,   ///< a task finished executing; its PE is free again
};

struct Event {
  double time_us = 0.0;
  EventKind kind = EventKind::kDataReady;
  std::size_t task = 0;
};

class EventQueue {
 public:
  /// Schedule `event`; events at equal times pop in push order.
  void push(const Event& event) {
    heap_.push_back(Entry{event, next_seq_++});
    std::push_heap(heap_.begin(), heap_.end(), later);
  }

  /// Remove and return the earliest event. Undefined when empty().
  Event pop() {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const Event top = heap_.back().event;
    heap_.pop_back();
    return top;
  }

  /// Earliest pending timestamp. Undefined when empty().
  double next_time_us() const noexcept { return heap_.front().event.time_us; }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  /// Drop all pending events and reset the sequence counter — lets one
  /// queue be reused across Monte Carlo trials without reallocating.
  void clear() noexcept {
    heap_.clear();
    next_seq_ = 0;
  }

 private:
  struct Entry {
    Event event;
    std::uint64_t seq = 0;  ///< push order, the deterministic tie-break
  };

  /// Max-heap comparator of the std heap algorithms: "a pops after b".
  static bool later(const Entry& a, const Entry& b) noexcept {
    if (a.event.time_us != b.event.time_us) {
      return a.event.time_us > b.event.time_us;
    }
    return a.seq > b.seq;
  }

  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace clrearly::sim
