#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace atlas::des {

/// Simulation time in milliseconds (the natural unit for an LTE TTI loop).
using TimeMs = double;

/// Discrete-event engine for the episode hot path: a time-ordered queue of
/// callbacks plus fixed-cadence "steppers", with a monotonically advancing
/// clock. Events scheduled for the same instant run in FIFO order
/// (sequence-number tie-break), which keeps episodes fully deterministic for
/// a given seed.
///
/// Three throughput-critical design points (a 60 s simulator episode is
/// 60,000 TTI fires, most of which do nothing):
///
///  * **No heap allocation per event.** Entries live in a reusable
///    vector-backed binary heap, and callables up to kInlineEventBytes that
///    are trivially copyable are stored inline in the entry itself. Larger
///    or non-trivial callables (e.g. a recursive std::function) transparently
///    fall back to a heap box that is freed after invocation.
///
///  * **Fixed-cadence work stays out of the heap.** The per-TTI scheduler
///    tick and the 100 ms mobility step used to be self-rescheduling heap
///    events — two heap pushes/pops plus a callable copy per TTI. A stepper
///    registered via add_stepper() is instead merged with the heap by
///    (time, seq) at pop time and re-armed in place, so the heap only carries
///    the irregular app/backhaul events. Steppers draw sequence numbers from
///    the same counter as one-shot events (arming consumes one, each re-arm
///    consumes the next *after* the callback ran), making the interleaving
///    with heap events bit-identical to the self-rescheduling formulation
///    they replace.
///
///  * **Quiet steppers skip their no-op fires.** A stepper callable may
///    return a TimeMs *quiet hint* instead of void: "my fires before this
///    time do nothing, unless another source fires first". step_one() then
///    advances that stepper past those fires without invoking it, consuming
///    exactly the clock values and sequence numbers the no-op fires would
///    have, so the (time, seq) order of every other event is unchanged. The
///    fire of any other source revokes the hint (one slot in the queue,
///    overwritten on every fire), and the earliest other source bounds each
///    skip. A void callable gives no hint. When the stepper's clock and
///    period are whole numbers (the 1-ms TTI), every fire time is exact, so
///    the skip count comes in closed form; otherwise the skip replays each
///    fire's arithmetic. A stepper whose quiet fires still do some fixed
///    work (a fading process drawing its innovation) carries a *catch-up*
///    callable, run once per skip with the number of fires skipped.
///
/// One EventQueue instance drives one episode; instances are independent, so
/// parallel Thompson-sampling queries can run episodes concurrently (one per
/// thread) without sharing state.
class EventQueue {
 public:
  /// Callables at most this size that are trivially copyable and trivially
  /// destructible are stored inline (no allocation). Episode callbacks are
  /// written as {context pointer, frame id} captures and fit comfortably.
  static constexpr std::size_t kInlineEventBytes = 48;

  /// A stepper's return value for "no quiet hint": it lies before every fire.
  static constexpr TimeMs kNoHint = -std::numeric_limits<TimeMs>::infinity();

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue() {
    for (auto& e : heap_) {
      if (e.drop != nullptr) e.drop(e.storage);
    }
    for (auto& s : steppers_) {
      if (s.drop != nullptr) s.drop(s.storage);
      if (s.drop_catch_up != nullptr) s.drop_catch_up(s.catch_up_storage);
    }
  }

  /// Schedule `fn` at absolute time `at`, which must be finite and >= now().
  /// A NaN or infinite time throws std::invalid_argument: run_all() would
  /// drive an armed stepper toward a +inf event forever.
  template <typename F>
  void schedule_at(TimeMs at, F&& fn) {
    if (!std::isfinite(at)) {
      throw std::invalid_argument("EventQueue: cannot schedule at a non-finite time");
    }
    if (!(at >= now_)) throw std::invalid_argument("EventQueue: cannot schedule in the past");
    push_entry(at, std::forward<F>(fn));
  }

  /// Schedule `fn` after a relative delay, which must be finite and >= 0.
  template <typename F>
  void schedule_in(TimeMs delay, F&& fn) {
    if (delay < 0.0) throw std::invalid_argument("EventQueue: negative delay");
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Register a fixed-cadence stepper: fires first at now() + period, then
  /// every `period` ms, for the lifetime of the queue. Equivalent to (and
  /// ordered exactly like) an event that ends its callback with
  /// schedule_in(period, itself), but never touches the heap.
  ///
  /// `fn` returns void or a TimeMs quiet hint: the fires it would make
  /// strictly before that time, until another source fires, are no-ops the
  /// queue may skip instead of invoking (kNoHint, or any time not after the
  /// next fire, skips nothing).
  template <typename F>
  void add_stepper(TimeMs period, F fn) {
    add_stepper(period, std::move(fn), nullptr);
  }

  /// add_stepper with a catch-up: `catch_up(n)` runs once per skip, after
  /// the clock reaches the last of the `n` skipped fires and before any
  /// other source fires, so it can replay work the quiet fires would have
  /// done (the same draws in the same order). It must not touch the queue.
  template <typename F, typename C>
  void add_stepper(TimeMs period, F fn, C catch_up) {
    if (!(period > 0.0)) throw std::invalid_argument("EventQueue: stepper period must be > 0");
    // Same storage discipline as heap entries: small trivially-copyable
    // callables live inline and fire through a plain function pointer (the
    // TTI tick is one `{state pointer}` capture — no std::function dispatch
    // on the hottest call in the engine); anything else is boxed. Steppers
    // are permanent: they fire until the queue dies (no removal API).
    Stepper& s = arm_stepper(period);
    try {
      install_callable(s.storage, s.invoke, s.drop, std::move(fn));
      if constexpr (!std::is_null_pointer_v<C>) {
        install_callable(s.catch_up_storage, s.catch_up, s.drop_catch_up, std::move(catch_up));
      }
    } catch (...) {
      if (s.drop != nullptr) s.drop(s.storage);
      steppers_.pop_back();
      throw;
    }
  }

  /// Current simulation time.
  TimeMs now() const noexcept { return now_; }

  /// Number of pending events, counting each armed stepper as one.
  std::size_t pending() const noexcept { return heap_.size() + steppers_.size(); }

  /// Run events until the queue empties or the clock passes `until`.
  /// Events scheduled exactly at `until` still run; the clock never exceeds
  /// the next event's timestamp. Steppers keep firing at their cadence up to
  /// (and including) `until` and stay armed afterwards. Throws
  /// std::invalid_argument for a NaN or infinite `until` (an armed stepper
  /// would fire forever).
  void run_until(TimeMs until);

  /// Run every *heap* event (use only when the event graph is known to
  /// terminate). Steppers that fall due before a heap event still fire in
  /// order; once the heap is empty they stop being driven.
  void run_all();

 private:
  /// Trivially copyable by design: the binary heap relocates entries as raw
  /// bytes (trivially-copyable callables are implicit-lifetime types, so the
  /// inline payload legally moves with them). `drop` is non-null only for
  /// the boxed fallback and is called exactly once per event.
  struct Entry {
    TimeMs time;
    std::uint64_t seq;
    void (*invoke)(void* storage);
    void (*drop)(void* storage);
    alignas(std::max_align_t) unsigned char storage[kInlineEventBytes];
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  /// Same inline-or-boxed callable layout as Entry, but long-lived: the
  /// callable is installed once and invoked every period for the queue's
  /// lifetime (`drop`, when non-null, runs once at destruction). The
  /// optional catch-up lives in a second slot of the same layout.
  struct Stepper {
    TimeMs period = 0.0;
    TimeMs next_time = 0.0;
    std::uint64_t seq = 0;
    /// The period and the first fire time are whole numbers, so every fire
    /// time is, and each is exact while it stays at or below 2^53: skips may
    /// count their fires in closed form.
    bool whole_cadence = false;
    TimeMs (*invoke)(void* storage) = nullptr;  ///< Returns the quiet hint.
    void (*drop)(void* storage) = nullptr;
    void (*catch_up)(void* storage, std::uint64_t fires) = nullptr;
    void (*drop_catch_up)(void* storage) = nullptr;
    alignas(std::max_align_t) unsigned char storage[kInlineEventBytes];
    alignas(std::max_align_t) unsigned char catch_up_storage[kInlineEventBytes];
  };

  Stepper& arm_stepper(TimeMs period);

  /// Call `fn` for an invoke thunk returning R: an event (R = void) drops
  /// any result, and a stepper (R = TimeMs) whose callable returns void
  /// reports kNoHint.
  template <typename R, typename Fn, typename... Args>
  static R call(Fn& fn, Args... args) {
    if constexpr (std::is_void_v<R> || !std::is_void_v<std::invoke_result_t<Fn&, Args...>>) {
      return static_cast<R>(fn(args...));
    } else {
      fn(args...);
      return kNoHint;
    }
  }

  /// Install `fn` into a 48-byte slot shared by Entry and Stepper: inline
  /// placement for small trivially-copyable/destructible callables (invoked
  /// through a plain function pointer, no allocation), heap box otherwise.
  /// Strongly exception-safe: on throw the slot is untouched — callers
  /// pop the just-emplaced slot and rethrow.
  template <typename R, typename... Args, typename F>
  static void install_callable(unsigned char* storage, R (*&invoke)(void*, Args...),
                               void (*&drop)(void*), F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineEventBytes && std::is_trivially_copyable_v<Fn> &&
                  std::is_trivially_destructible_v<Fn> &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(storage)) Fn(std::forward<F>(fn));  // trivial: cannot throw
      invoke = [](void* s, Args... args) -> R {
        return call<R>(*std::launder(reinterpret_cast<Fn*>(s)), args...);
      };
      drop = nullptr;
    } else {
      Fn* box = new Fn(std::forward<F>(fn));  // may throw: nothing installed yet
      std::memcpy(static_cast<void*>(storage), &box, sizeof(box));
      invoke = [](void* s, Args... args) -> R {
        Fn* b;
        std::memcpy(&b, s, sizeof(b));
        return call<R>(*b, args...);
      };
      drop = [](void* s) {
        Fn* b;
        std::memcpy(&b, s, sizeof(b));
        delete b;
      };
    }
  }

  template <typename F>
  void push_entry(TimeMs at, F&& fn) {
    Entry& e = heap_.emplace_back();
    e.time = at;
    e.seq = next_seq_++;
    try {
      install_callable(e.storage, e.invoke, e.drop, std::forward<F>(fn));
    } catch (...) {
      heap_.pop_back();  // never leave a half-initialized entry in the heap
      throw;
    }
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Run the earliest pending source (stepper or heap event) if it is due at
  /// or before `until`; returns whether anything ran. A quiet stepper's run
  /// of skipped fires counts as one step.
  bool step_one(TimeMs until);

  /// Advance `s` (the earliest source, due by `until` and before
  /// quiet_until_) past its no-op fires without invoking it, then run its
  /// catch-up, if any, with the number of fires skipped.
  void skip_quiet_fires(Stepper& s, TimeMs until);

  std::vector<Entry> heap_;
  /// Deque, not vector: references stay valid when a stepper callback
  /// registers another stepper mid-fire (a vector push_back would reallocate
  /// the buffer holding the currently-executing callable).
  std::deque<Stepper> steppers_;
  TimeMs now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  /// The one quiet hint in force: *quiet_stepper_ may skip its fires before
  /// quiet_until_. Every fire overwrites the slot (a heap event with
  /// kNoHint), which is what revokes a hint when another source fires.
  const Stepper* quiet_stepper_ = nullptr;
  TimeMs quiet_until_ = kNoHint;
};

}  // namespace atlas::des
