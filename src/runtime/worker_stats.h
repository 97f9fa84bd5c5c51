/**
 * @file
 * The dispatcher/worker statistics contract (paper section 4).
 *
 * Each worker owns one cache line of counters that the dispatcher reads
 * periodically: the number of finished jobs (for JSQ queue lengths, as
 * assigned-minus-finished) and the number of quanta serviced for the
 * worker's *current* jobs (for MSQ tie-breaking). The two monotonic
 * counters are 64-bit: at 10^9 increments per second they take 584
 * years to wrap, so every reader loads them directly, with no per-reader
 * delta state.
 */
#ifndef TQ_RUNTIME_WORKER_STATS_H
#define TQ_RUNTIME_WORKER_STATS_H

#include <atomic>
#include <cstdint>

#include "conc/cacheline.h"

namespace tq::runtime {

/**
 * One worker's shared statistics cache line. Writer: the worker, and
 * only the worker — the dispatcher and stats readers load it but never
 * store, so the line ping-pongs at the worker's completion rate, not
 * the (much higher) dispatch rate. The one writer updates it with
 * owner_add() (conc/cacheline.h), never a lock-prefixed RMW. The
 * three counters live together deliberately: the dispatcher's JSQ/MSQ
 * refresh wants `finished` and `current_quanta` in the same load, and
 * one line per worker keeps the 16-worker refresh to 16 line reads.
 * Field order is the read order of refresh_dispatch_views(), so the
 * 32-bit current_quanta occupies an 8-byte slot (4 bytes of alignment
 * padding before yields): 24 bytes used. The pad keeps
 * neighbouring workers' lines (e.g. in a bench's contiguous array) from
 * false-sharing.
 */
struct alignas(kCacheLineSize) WorkerStatsLine
{
    /** Jobs completed (monotonic). */
    std::atomic<uint64_t> finished{0};

    /** Sum of serviced quanta across the jobs currently admitted to the
     *  worker (rises on each quantum, falls when a job completes). A
     *  gauge, not a total, so 32 bits hold it; it feeds the view's
     *  32-bit quanta lane (common/dispatch_view.h). Counts *grants*,
     *  not cycles: under per-class quanta a grant may be any class's
     *  budget, so MSQ tie-breaking keeps ranking by slices attained —
     *  exactly the blind signal the paper uses — without the dispatcher
     *  knowing per-class budgets. */
    std::atomic<uint32_t> current_quanta{0};

    /** Probe-forced preemptions (monotonic): bumped when a slice ends
     *  in a requeue, so a job's final slice is not counted. Feeds
     *  MetricsSnapshot::yields in every build. */
    std::atomic<uint64_t> yields{0};

    char pad[kCacheLineSize - 3 * sizeof(std::atomic<uint64_t>)];
};

static_assert(sizeof(WorkerStatsLine) == kCacheLineSize &&
                  alignof(WorkerStatsLine) == kCacheLineSize,
              "stats must occupy exactly one cache line");

} // namespace tq::runtime

#endif // TQ_RUNTIME_WORKER_STATS_H
