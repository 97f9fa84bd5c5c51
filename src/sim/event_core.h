/**
 * @file
 * Shared high-performance event core for the cluster simulators.
 *
 * The three discrete-event engines (two_level, central, caladan) used to
 * own private copies of the same machinery: a `std::priority_queue` of
 * 24-byte events, a lazily grown job slab with a free list, and the same
 * run loop (hard stop, backlog check, finalize). This header extracts
 * that machinery once, tuned for the engines' near-FIFO event pattern:
 *
 *  - EventQueue: an implicit 4-ary min-heap over 16-byte packed events
 *    (time + a single word carrying seq/core/kind). Half the levels of a
 *    binary heap and four children per cache line make it ~2-4x faster
 *    than `std::priority_queue<Event>` once the queue is large (see
 *    bench/micro_sim_core), while popping in exactly the same
 *    (time, seq) order, so refactored engines replay event-for-event.
 *  - JobArena: index-addressed job slab with a free list. Jobs are drawn
 *    lazily as arrivals stream out of the RNG; the slab's high-water
 *    mark is the peak concurrency, not the total arrival count, and it
 *    is reused across quanta within a run.
 *  - EngineCore: the common run loop — streaming arrivals from the
 *    configured process, admission with the in-flight saturation guard,
 *    the event loop with hard-stop/backlog checks, metrics collection,
 *    and SimResult finalization. Engines keep only their scheduling
 *    logic.
 */
#ifndef TQ_SIM_EVENT_CORE_H
#define TQ_SIM_EVENT_CORE_H

#include <algorithm>
#include <bit>
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
 * Indexed 4-ary min-heap of simulation events, ordered by (time, seq).
 *
 * Events are packed to 16 bytes: the timestamp plus one word holding the
 * insertion sequence number in the high bits (the FIFO tie-breaker) and
 * the payload (core index, event kind) in the low bits. Comparing the
 * packed word compares seq, so ordering is identical to the engines'
 * old `(time, seq)` comparator, event for event.
 *
 * The backing store is 64-byte aligned with the root offset so that
 * every sibling group {4i+1..4i+4} occupies exactly one cache line
 * (group byte offset 64(i+1)): a sift-down touches one line per level
 * over half the levels of a binary heap, which is where the speedup
 * over `std::priority_queue` at large queue sizes comes from (see
 * bench/micro_sim_core).
 */
class EventQueue
{
  public:
    /** Decoded head-of-queue event. */
    struct Popped
    {
        SimNanos time;
        uint32_t kind;
        int core;
    };

    static constexpr int kKindBits = 4;
    static constexpr int kCoreBits = 24;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue() { free_store(); }

    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    /** Pre-size the backing store (events, not bytes). */
    void
    reserve(size_t n)
    {
        if (n > cap_)
            grow(n);
    }

    /** Drop all pending events and reset the tie-break sequence. */
    void
    clear()
    {
        size_ = 0;
        seq_ = 0;
    }

    /**
     * Schedule an event. @p kind must fit kKindBits; @p core must be in
     * [-1, 2^kCoreBits - 2]. Ties at equal @p time pop in push order.
     */
    void
    push(SimNanos time, uint32_t kind, int core)
    {
        TQ_DCHECK(time >= 0); // keeps the bit-pattern key order-preserving
        TQ_DCHECK(kind < (1u << kKindBits));
        TQ_DCHECK(core >= -1 &&
                  core < static_cast<int>(1u << kCoreBits) - 1);
        TQ_DCHECK(seq_ < (1ULL << (64 - kKindBits - kCoreBits)));
        const Item item{time,
                        (seq_++ << (kKindBits + kCoreBits)) |
                            (static_cast<uint64_t>(core + 1) << kKindBits) |
                            kind};
        if (size_ == cap_)
            grow(cap_ ? cap_ * 2 : 1024);
        // Sift the hole up: move parents down until `item` fits.
        size_t i = size_++;
        while (i > 0) {
            const size_t parent = (i - 1) / kArity;
            if (!less(item, heap_[parent]))
                break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = item;
    }

    /** Remove and return the earliest event (fatal when empty in debug). */
    Popped
    pop()
    {
        TQ_DCHECK(size_ > 0);
        const Item top = heap_[0];
        const Item last = heap_[--size_];
        const size_t n = size_;
        if (n > 0) {
            // Sift the root hole down along min-children, then drop
            // `last` into place. Full sibling groups (the common case)
            // use a branchless pairwise tournament on the 128-bit keys
            // so the min-of-4 is two independent compares plus one.
            const Key last_key = key(last);
            size_t i = 0;
            for (;;) {
                const size_t first = i * kArity + 1;
                if (first >= n)
                    break;
                size_t best;
                Key best_key;
                if (first + kArity <= n) {
                    const Key k0 = key(heap_[first]);
                    const Key k1 = key(heap_[first + 1]);
                    const Key k2 = key(heap_[first + 2]);
                    const Key k3 = key(heap_[first + 3]);
                    const size_t a = k1 < k0 ? first + 1 : first;
                    const Key ka = k1 < k0 ? k1 : k0;
                    const size_t b = k3 < k2 ? first + 3 : first + 2;
                    const Key kb = k3 < k2 ? k3 : k2;
                    best = kb < ka ? b : a;
                    best_key = kb < ka ? kb : ka;
                } else {
                    best = first;
                    best_key = key(heap_[first]);
                    for (size_t c = first + 1; c < n; ++c) {
                        const Key kc = key(heap_[c]);
                        if (kc < best_key) {
                            best = c;
                            best_key = kc;
                        }
                    }
                }
                if (last_key <= best_key)
                    break;
                heap_[i] = heap_[best];
                i = best;
            }
            heap_[i] = last;
        }
        return Popped{top.time,
                      static_cast<uint32_t>(top.meta &
                                            ((1u << kKindBits) - 1)),
                      static_cast<int>((top.meta >> kKindBits) &
                                       ((1u << kCoreBits) - 1)) -
                          1};
    }

  private:
    struct Item
    {
        SimNanos time;
        uint64_t meta; ///< seq << 28 | (core + 1) << 4 | kind
    };

    static constexpr size_t kArity = 4;
    static constexpr size_t kLine = 64;
    /** Root byte offset within the aligned block: puts sibling group
     *  {4i+1..4i+4} at byte 64(i+1), i.e. one full line per group. */
    static constexpr size_t kRootOffset = kLine - sizeof(Item);

    /**
     * Order-preserving 128-bit sort key: simulation times are
     * non-negative doubles, whose IEEE-754 bit patterns compare in value
     * order as unsigned integers, and `meta` carries seq in its high
     * bits, so one unsigned compare reproduces the old (time, seq)
     * comparator branchlessly.
     */
    using Key = unsigned __int128;

    static Key
    key(const Item &a)
    {
        return static_cast<Key>(std::bit_cast<uint64_t>(a.time)) << 64 |
               a.meta;
    }

    static bool
    less(const Item &a, const Item &b)
    {
        return key(a) < key(b);
    }

    void
    grow(size_t new_cap)
    {
        void *raw = ::operator new(kRootOffset + new_cap * sizeof(Item),
                                   std::align_val_t(kLine));
        Item *items = reinterpret_cast<Item *>(
            static_cast<char *>(raw) + kRootOffset);
        for (size_t i = 0; i < size_; ++i)
            items[i] = heap_[i];
        free_store();
        raw_ = raw;
        heap_ = items;
        cap_ = new_cap;
    }

    void
    free_store()
    {
        if (raw_)
            ::operator delete(raw_, std::align_val_t(kLine));
        raw_ = nullptr;
    }

    void *raw_ = nullptr; ///< 64B-aligned block owning the storage
    Item *heap_ = nullptr; ///< raw_ + kRootOffset
    size_t size_ = 0;
    size_t cap_ = 0;
    uint64_t seq_ = 0;
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
     * @param arrival the arrival process every next_arrival_after() draw
     * comes from (Poisson by default).
     */
    EngineCore(const ServiceDist &dist, double rate, uint64_t seed,
               SimNanos duration, bool stop_when_saturated,
               const ArrivalSpec &arrival);

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
     * Next arrival instant after @p from, drawn from the arrival
     * process with the engine RNG, so the service/arrival draw
     * interleave stays a pure function of the seed. The Poisson process
     * draws one exponential at the mean gap, value-identical to the
     * historical inline code, so every figure bench replays unchanged.
     */
    SimNanos
    next_arrival_after(SimNanos from)
    {
        const SimNanos t = arrival_->next(from, rng_);
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

    std::unique_ptr<ArrivalProcess> arrival_;
    std::vector<double> *arrival_trace_ = nullptr;

    Rng rng_;
    EventQueue events_;
    JobArena jobs_;
    MetricsCollector metrics_;

    SimNanos now_ = 0;
    uint64_t next_id_ = 0;
    size_t in_flight_ = 0;
    uint64_t arrivals_ = 0;
    uint64_t dropped_ = 0;
    bool saturated_ = false;
    bool backlog_checked_ = false;
};

} // namespace tq::sim

#endif // TQ_SIM_EVENT_CORE_H
