// Discrete-event simulation engine.
//
// Replaces wall-clock PlanetLab time: the overlay protocol stack (wiring
// epochs, LSA floods, churn events) schedules callbacks on a single
// virtual clock. Events at equal timestamps run in scheduling order
// (FIFO), which keeps runs fully deterministic for a given seed.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <unordered_set>
#include <vector>

namespace egoist::sim {

using EventId = std::uint64_t;

/// Single-threaded event loop with cancellable timers.
class Simulator {
 public:
  using Callback = std::function<void()>;

  /// Current virtual time (seconds).
  double now() const { return now_; }

  /// Schedules `fn` to run `delay` seconds from now (delay >= 0).
  EventId schedule_in(double delay, Callback fn);

  /// Schedules `fn` at absolute time `when` (>= now()).
  EventId schedule_at(double when, Callback fn);

  /// Cancels a pending event; returns false if it already ran, was
  /// cancelled before, or was never scheduled.
  bool cancel(EventId id);

  /// Runs events until the queue empties or the clock passes `until`.
  /// Events scheduled exactly at `until` are executed.
  void run_until(double until);

  /// Convenience: run_until(now() + duration). The clock always lands
  /// exactly on now() + duration (no drift across repeated calls), which is
  /// what epoch-style callers ("advance one announce period") want.
  void run_for(double duration);

  /// Runs a single event; returns false when the queue is empty.
  bool step();

  /// Number of events executed so far.
  std::uint64_t executed() const { return executed_; }

  /// Number of scheduled events that are still due to run (cancelled
  /// events are excluded the moment they are cancelled).
  std::size_t pending() const { return live_.size(); }

 private:
  struct Event {
    double when;
    EventId id;  ///< monotonically increasing: ties run FIFO
    Callback fn;
    bool operator>(const Event& other) const {
      if (when != other.when) return when > other.when;
      return id > other.id;
    }
  };

  double now_ = 0.0;
  EventId next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  /// Ids scheduled but neither executed nor cancelled. Queue membership is
  /// what makes cancel() exact: cancelling an id that already ran (or was
  /// never scheduled) is a no-op instead of poisoning the cancelled set.
  std::unordered_set<EventId> live_;
  /// Ids cancelled but still sitting in the queue (lazy removal).
  std::unordered_set<EventId> cancelled_;
};

/// Convenience: reschedules `fn` every `period` seconds starting at
/// `start`, until the simulator stops being run. Returns the id of the
/// first occurrence (cancelling only stops the not-yet-run occurrence).
class PeriodicTask {
 public:
  /// Per-occurrence scheduling offset: called with the occurrence index
  /// (0 for the `start` firing, 1 for start + period, ...) and returning
  /// seconds added to that occurrence's nominal time. The nominal grid
  /// start + i * period is unaffected — offsets do not accumulate — which
  /// is what callers desynchronizing node epochs (§4.2) want: each firing
  /// wanders around its slot without drifting the slot itself. Fire times
  /// are clamped to not precede the simulator clock.
  using JitterFn = std::function<double(std::uint64_t occurrence)>;

  /// `jitter_fn` (optional) returns an offset added to each occurrence,
  /// letting callers desynchronize node epochs as real deployments are.
  PeriodicTask(Simulator& sim, double start, double period,
               std::function<void(double now)> fn, JitterFn jitter_fn = {});
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;
  ~PeriodicTask();

  /// Stops future occurrences.
  void stop();
  bool running() const { return running_; }

 private:
  void arm(double nominal);

  Simulator& sim_;
  double period_;
  std::function<void(double)> fn_;
  JitterFn jitter_fn_;
  EventId pending_ = 0;
  std::uint64_t occurrence_ = 0;  ///< index of the next (not-yet-run) firing
  bool running_ = true;
};

}  // namespace egoist::sim
