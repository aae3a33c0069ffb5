#include "des/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace atlas::des {

namespace {

/// Whole numbers up to 2^53 are exact doubles. Keeping a skip's stop, and
/// so its clock, at or below 2^52 (with a period no larger) keeps every fire
/// time it passes, and one period beyond, exact: t0 + j * period then equals
/// the sum j additions of the period would reach.
constexpr TimeMs kExactLimit = 4503599627370496.0;  // 2^52

bool whole(TimeMs t) { return t >= 0.0 && t <= kExactLimit && std::floor(t) == t; }

}  // namespace

EventQueue::Stepper& EventQueue::arm_stepper(TimeMs period) {
  Stepper& s = steppers_.emplace_back();
  s.period = period;
  s.next_time = now_ + period;
  s.seq = next_seq_++;
  s.whole_cadence = whole(period) && whole(s.next_time);
  return s;
}

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
  // the bound is fixed for all of it. The first fire is known to come
  // first; every later one carries a fresh sequence number, larger than any
  // pending source's, so it loses ties and must be strictly earlier.
  TimeMs bound = quiet_until_;
  if (!heap_.empty()) bound = std::min(bound, heap_.front().time);
  for (const Stepper& other : steppers_) {
    if (&other != &s) bound = std::min(bound, other.next_time);
  }
  std::uint64_t fires = 0;
  const TimeMs t0 = s.next_time;
  const TimeMs period = s.period;
  const TimeMs stop = std::min(bound, until);
  if (s.whole_cadence && stop <= kExactLimit) {
    // Every fire time t0 + j * period is exact (t0 <= stop, and a whole
    // period is at least 1, so j fits an int64_t), so the replay loop below
    // would skip fires j = 0 .. k while t0 + (j + 1) * period stays before
    // the bound and by `until`. The quotient estimates k to within one step;
    // the exact predicate settles it, as select_mcs settles its MCS.
    const auto fits = [&](std::int64_t j) {
      const TimeMs t = t0 + static_cast<TimeMs>(j) * period;
      return t < bound && t <= until;
    };
    auto k = static_cast<std::int64_t>((stop - t0) / period);
    while (k > 0 && !fits(k)) --k;
    while (fits(k + 1)) ++k;
    fires = static_cast<std::uint64_t>(k) + 1;
    now_ = t0 + static_cast<TimeMs>(k) * period;
    s.next_time = now_ + period;
    next_seq_ += fires;
    s.seq = next_seq_ - 1;
  } else {
    // Each skipped fire replays an invoked fire's arithmetic exactly, so the
    // clock and the sequence counter end where the no-op fires would leave
    // them.
    do {
      now_ = s.next_time;
      s.next_time += s.period;
      s.seq = next_seq_++;
      ++fires;
    } while (s.next_time < bound && s.next_time <= until);
  }
  if (s.catch_up != nullptr) s.catch_up(s.catch_up_storage, fires);
}

void EventQueue::run_until(TimeMs until) {
  if (!std::isfinite(until)) {
    throw std::invalid_argument("EventQueue: run_until needs a finite time");
  }
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
