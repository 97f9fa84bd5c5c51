/**
 * @file
 * Shared event core for the cluster simulators.
 *
 * The three discrete-event engines (two_level, central, caladan) used to
 * own private copies of the same machinery: a `std::priority_queue` of
 * 24-byte events, a lazily grown job slab with a free list, and the same
 * run loop (hard stop, backlog check, finalize). This header extracts
 * that machinery once:
 *
 *  - EventQueue: the pending events in a vector kept sorted
 *    latest-first. Every event source keeps at most a few events
 *    pending, so a run never holds more than 1 + dispatchers + cores +
 *    in-flight front-tier picks (78 in the largest figure), and an
 *    insertion-sorted vector pops in exactly the old (time, push order)
 *    order, so the engines replay event for event.
 *  - JobArena: index-addressed job slab with a free list. Jobs are drawn
 *    lazily as arrivals stream out of the RNG; the slab's high-water
 *    mark is the peak concurrency, not the total arrival count, and it
 *    is reused across quanta within a run.
 *  - EngineCore: the common run loop — streaming Poisson arrivals,
 *    admission with the in-flight saturation guard, the event loop with
 *    hard-stop/backlog checks, metrics collection, and SimResult
 *    finalization. Engines keep only their scheduling logic.
 */
#ifndef TQ_SIM_EVENT_CORE_H
#define TQ_SIM_EVENT_CORE_H

#include <cstdint>
#include <vector>

#include "common/arrival.h"
#include "common/check.h"
#include "common/dist.h"
#include "common/rng.h"
#include "common/units.h"
#include "sim/job.h"
#include "sim/metrics.h"

namespace tq::sim {

/**
 * The simulator's pending events, ordered by (time, push order).
 *
 * A vector kept sorted latest-first, so the earliest event is at the
 * back: pop() is back() + pop_back(), and push() walks back from the
 * end past every event due at or before its time and inserts there, so
 * ties pop in push order by position alone. That is the order the
 * engines' original `(time, seq)` priority queue popped in, event for
 * event.
 *
 * The population is small by construction: each event source keeps at
 * most one event pending — the arrival stream, each dispatcher (or
 * Central's scheduler, or Caladan's I/O kernel) while it is busy, and
 * each core while it runs a slice — except the sharded front tier,
 * which holds one `kFrontDone` per pick still inside its constant
 * `front_tier_cost`. So a run holds at most 1 + dispatchers + cores +
 * in-flight front picks events: 18 in the 16-core figures and 78 in
 * fig17's 64-core sharded model. At that size a linear insert touches
 * a few cache lines, and no sequence counter or heap is needed.
 */
class EventQueue
{
  public:
    /** One pending event. */
    struct Popped
    {
        SimNanos time;
        uint32_t kind;
        int core;
    };

    bool empty() const { return events_.empty(); }
    size_t size() const { return events_.size(); }

    /** Pre-size the store (events, not bytes). */
    void reserve(size_t n) { events_.reserve(n); }

    /** Drop all pending events. */
    void clear() { events_.clear(); }

    /** Schedule an event. Ties at equal @p time pop in push order. */
    void
    push(SimNanos time, uint32_t kind, int core)
    {
        events_.push_back(Popped{time, kind, core});
        size_t i = events_.size() - 1;
        while (i > 0 && events_[i - 1].time <= time) {
            events_[i] = events_[i - 1];
            --i;
        }
        events_[i] = Popped{time, kind, core};
    }

    /** Remove and return the earliest event (fatal when empty in debug). */
    Popped
    pop()
    {
        TQ_DCHECK(!events_.empty());
        const Popped ev = events_.back();
        events_.pop_back();
        return ev;
    }

  private:
    std::vector<Popped> events_; ///< latest first; the next pop is last
};

/** Index-addressed job slab with a free list, reused across a run. */
class JobArena
{
  public:
    static constexpr uint32_t kNone = ~0u;

    /** Pre-size the slab (jobs, not bytes). */
    void reserve(size_t n) { slab_.reserve(n); }

    /** @return a slab index, recycling released slots first. */
    uint32_t
    alloc()
    {
        if (!free_.empty()) {
            const uint32_t idx = free_.back();
            free_.pop_back();
            return idx;
        }
        slab_.emplace_back();
        return static_cast<uint32_t>(slab_.size() - 1);
    }

    /** Return @p idx to the free list (contents left stale). */
    void release(uint32_t idx) { free_.push_back(idx); }

    Job &operator[](uint32_t idx) { return slab_[idx]; }
    const Job &operator[](uint32_t idx) const { return slab_[idx]; }

  private:
    std::vector<Job> slab_;
    std::vector<uint32_t> free_;
};

/**
 * Common engine state and driver loop shared by the three simulators.
 *
 * Owns the event queue, job arena, RNG, metrics, and the run-control
 * bookkeeping (in-flight count, drop/saturation flags, backlog check).
 * An engine composes one EngineCore, schedules events through it, and
 * hands `drive()` a handler that dispatches on its own event kinds.
 */
class EngineCore
{
  public:
    static constexpr uint32_t kNoJob = JobArena::kNone;

    /** Fraction of the completions discarded as warm-up by the metrics. */
    static constexpr double kWarmup = 0.1;

    /** Saturation guard: an arrival finding this many jobs in flight is
     *  dropped and the run marked saturated. */
    static constexpr size_t kMaxInFlight = 1u << 20;

    /**
     * @param stop_when_saturated end the run as soon as saturation is
     * detected instead of draining; see the config structs for the
     * contract (the `saturated` flag is unaffected).
     */
    EngineCore(const ServiceDist &dist, double rate, uint64_t seed,
               SimNanos duration, bool stop_when_saturated);

    Rng &rng() { return rng_; }
    SimNanos now() const { return now_; }
    SimNanos duration() const { return duration_; }
    uint64_t arrivals() const { return arrivals_; }
    Job &job(uint32_t idx) { return jobs_[idx]; }

    /** Schedule an engine event at absolute time @p t. */
    void schedule(SimNanos t, uint32_t kind, int core)
    {
        events_.push(t, kind, core);
    }

    /**
     * Next arrival instant after @p from, drawn from the Poisson
     * process with the engine RNG, so the service/arrival draw
     * interleave stays a pure function of the seed.
     */
    SimNanos
    next_arrival_after(SimNanos from)
    {
        const SimNanos t = arrival_.next(from, rng_);
        if (arrival_trace_ != nullptr)
            arrival_trace_->push_back(t);
        return t;
    }

    /**
     * Record every value next_arrival_after() returns (including the
     * final past-duration overshoot draw) into @p trace; nullptr
     * disables. The load generator records the same sequence, which is
     * what the arrival-parity tests compare.
     */
    void set_arrival_trace(std::vector<double> *trace)
    {
        arrival_trace_ = trace;
    }

    /**
     * Admit one arrival: draws its service demand from the stream and
     * returns its arena index, or kNoJob when the in-flight guard trips
     * (the drop is counted and the run marked saturated). The job's
     * remaining service is `demand * demand_scale`.
     */
    uint32_t try_admit(double demand_scale = 1.0);

    /** Record the completion of @p idx at @p finish and recycle it. */
    void complete(uint32_t idx, SimNanos finish);

    /**
     * Run the event loop: pop events in (time, seq) order and feed them
     * to @p handle(kind, core). Stops on an empty queue, on the 3x
     * duration hard stop, or — when stop_when_saturated is set — as
     * soon as the run is known saturated.
     */
    template <typename Handler>
    void
    drive(Handler &&handle)
    {
        const SimNanos hard_stop = duration_ * 3;
        while (!events_.empty()) {
            const EventQueue::Popped ev = events_.pop();
            now_ = ev.time;
            if (now_ > hard_stop) {
                saturated_ = true;
                break;
            }
            if (!backlog_checked_ && now_ >= duration_) {
                check_backlog();
                if (saturated_ && stop_when_saturated_)
                    break;
            }
            handle(ev.kind, ev.core);
            if (stop_when_saturated_ && saturated_)
                break;
        }
    }

    /** Fill the common SimResult fields (engine extras come after). */
    void finalize(SimResult &result);

  private:
    /**
     * Stability check at the end of the arrival window: a backlog much
     * larger than any stable queueing state means the offered load
     * exceeded capacity, even if the queue drains during the grace
     * period afterwards.
     */
    void check_backlog();

    const ServiceDist &dist_;
    double rate_;
    SimNanos duration_;
    bool stop_when_saturated_;

    PoissonProcess arrival_;
    std::vector<double> *arrival_trace_ = nullptr;

    Rng rng_;
    EventQueue events_;
    JobArena jobs_;
    MetricsCollector metrics_;

    SimNanos now_ = 0;
    size_t in_flight_ = 0;
    uint64_t arrivals_ = 0;
    uint64_t dropped_ = 0;
    bool saturated_ = false;
    bool backlog_checked_ = false;
};

} // namespace tq::sim

#endif // TQ_SIM_EVENT_CORE_H
