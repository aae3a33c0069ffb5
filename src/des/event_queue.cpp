#include "des/event_queue.hpp"

#include <algorithm>
#include <limits>

namespace atlas::des {

bool EventQueue::step_one(TimeMs until) {
  // Earliest armed stepper by (time, seq). Episodes register at most a few
  // (TTI + mobility), so a linear scan beats any indexed structure. It walks
  // by reference: each deque index costs a division, on every fire.
  Stepper* first = nullptr;
  for (Stepper& s : steppers_) {
    if (first == nullptr || s.next_time < first->next_time ||
        (s.next_time == first->next_time && s.seq < first->seq)) {
      first = &s;
    }
  }

  const bool have_event = !heap_.empty();
  const bool stepper_first =
      first != nullptr &&
      (!have_event || first->next_time < heap_.front().time ||
       (first->next_time == heap_.front().time && first->seq < heap_.front().seq));

  if (stepper_first) {
    // steppers_ is a deque so this reference (and the executing callable)
    // stays valid even if the callback registers further steppers. Re-arm at
    // fire time + period with a fresh sequence number AFTER the callback,
    // exactly as if it had ended with schedule_in(period, itself).
    Stepper& s = *first;
    if (s.next_time > until) return false;
    if (s.next_time < quiet_until_ && &s == quiet_stepper_) {
      skip_quiet_fires(s, until);
      return true;
    }
    now_ = s.next_time;
    const TimeMs quiet_until = s.invoke(s.storage);
    s.next_time += s.period;
    s.seq = next_seq_++;
    quiet_stepper_ = &s;
    quiet_until_ = quiet_until;
    return true;
  }

  if (!have_event || heap_.front().time > until) return false;
  // Move the entry out before invoking: the callback may schedule new events
  // (entries are trivially copyable, so this is a raw relocation, not a
  // callable copy — the pre-rewrite queue re-allocated a std::function here).
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry e = heap_.back();
  heap_.pop_back();
  now_ = e.time;
  quiet_until_ = kNoHint;  // another source fires: the hint no longer holds
  struct DropGuard {
    Entry* e;
    ~DropGuard() {
      if (e->drop != nullptr) e->drop(e->storage);
    }
  } guard{&e};
  e.invoke(e.storage);
  return true;
}

void EventQueue::skip_quiet_fires(Stepper& s, TimeMs until) {
  // The earliest other source bounds the skip: when it comes due first it
  // fires, and its fire revokes the hint. Nothing runs during the skip, so
  // the bound is fixed for the whole loop. The first fire is known to come
  // first; every later one carries a fresh sequence number, larger than any
  // pending source's, so it loses ties and must be strictly earlier.
  TimeMs bound = quiet_until_;
  if (!heap_.empty()) bound = std::min(bound, heap_.front().time);
  for (const Stepper& other : steppers_) {
    if (&other != &s) bound = std::min(bound, other.next_time);
  }
  // Each skipped fire replays an invoked fire's arithmetic exactly, so the
  // clock and the sequence counter end where the no-op fires would leave them.
  do {
    now_ = s.next_time;
    s.next_time += s.period;
    s.seq = next_seq_++;
  } while (s.next_time < bound && s.next_time <= until);
}

void EventQueue::run_until(TimeMs until) {
  while (step_one(until)) {
  }
  if (now_ < until) now_ = until;
}

void EventQueue::run_all() {
  while (!heap_.empty()) {
    step_one(std::numeric_limits<TimeMs>::infinity());
  }
}

}  // namespace atlas::des
