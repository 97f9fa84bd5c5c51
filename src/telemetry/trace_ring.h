/**
 * @file
 * Per-thread fixed-size trace ring.
 *
 * A thin wrapper over the runtime's lock-free SPSC ring that (a) stamps
 * each event with RDTSC and the owning thread id at the recording site
 * and (b) *drops* events instead of blocking when the ring is full — a
 * telemetry buffer must never introduce backpressure into a
 * microsecond-scale scheduler. Drops are counted so a post-run drain can
 * report exactly how much of the window is missing.
 *
 * Concurrency contract: record() may be called by exactly one producer
 * thread (the worker or dispatcher that owns the ring); drain() and
 * dropped() may be called by one consumer thread, concurrently with the
 * producer.
 */
#ifndef TQ_TELEMETRY_TRACE_RING_H
#define TQ_TELEMETRY_TRACE_RING_H

#include <atomic>
#include <cstddef>
#include <vector>

#include "conc/cacheline.h"
#include "conc/spsc_ring.h"
#include "telemetry/events.h"

namespace tq::telemetry {

/** Bounded, drop-on-overflow event buffer for one producer thread. */
class TraceRing
{
  public:
    /**
     * @param tid thread id stamped into every event (worker id or
     *     kDispatcherTid).
     * @param capacity minimum number of buffered events (rounded up to a
     *     power of two).
     */
    TraceRing(uint8_t tid, size_t capacity) : tid_(tid), ring_(capacity) {}

    /**
     * Record one event, stamped with the current cycle counter.
     * Producer-side only; never blocks. The room test comes first: on
     * overflow no clock is read and no event is built, only the drop
     * counter moves (a long run keeps its rings full, so this is the
     * common case there).
     */
    void
    record(EventKind kind, uint64_t job, uint32_t arg = 0)
    {
        const bool stored = ring_.push_with([&](TraceEvent &ev) {
            ev.tsc = rdcycles();
            ev.job = job;
            ev.arg = arg;
            ev.kind = kind;
            ev.tid = tid_;
        });
        if (!stored)
            owner_add(dropped_, 1);
    }

    /**
     * Move all currently buffered events into @p out (appended in FIFO
     * order). Consumer-side only. @return number of events drained.
     */
    size_t
    drain(std::vector<TraceEvent> &out)
    {
        size_t n = 0;
        while (auto ev = ring_.pop()) {
            out.push_back(*ev);
            ++n;
        }
        return n;
    }

    /** Events discarded because the ring was full. */
    uint64_t
    dropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

    /** Thread id stamped into this ring's events. */
    uint8_t tid() const { return tid_; }

    /** Number of storable events. */
    size_t capacity() const { return ring_.capacity(); }

  private:
    friend struct ::tq::LayoutAudit;

    // tid_ (constant) and dropped_ (written by the producer alone on
    // the overflow path, consumer-read) share the leading line; the ring_
    // member is line-aligned (its index sides are), so placing the two
    // small fields *before* it packs them into the alignment gap
    // instead of growing the object by a line after it.
    uint8_t tid_;
    std::atomic<uint64_t> dropped_{0};
    SpscRing<TraceEvent> ring_;
};

static_assert(alignof(TraceRing) == kCacheLineSize,
              "the ring's index sides keep their line alignment through "
              "the wrapper");

} // namespace tq::telemetry

#endif // TQ_TELEMETRY_TRACE_RING_H
