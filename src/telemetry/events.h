/**
 * @file
 * Typed trace events emitted by the runtime's hot paths.
 *
 * Each event is a fixed-size POD stamped with the raw cycle counter
 * (RDTSC) at the recording site, so a drained trace reconstructs the
 * paper's sojourn-time decomposition (Figs. 11-12): dispatch, queueing,
 * service quanta, and preemption behaviour are all visible per job.
 * Events are recorded into per-thread SPSC rings (see trace_ring.h) and
 * exported post-run as Chrome `trace_event` JSON (see chrome_trace.h).
 */
#ifndef TQ_TELEMETRY_EVENTS_H
#define TQ_TELEMETRY_EVENTS_H

#include <cstdint>

#include "common/cycles.h"

namespace tq::telemetry {

/** What happened at the recorded timestamp. */
enum class EventKind : uint8_t {
    JobDispatched,      ///< dispatcher forwarded a job to a worker
                        ///< (arg = target worker id)
    QuantumStart,       ///< worker resumed a task coroutine
                        ///< (arg = quanta already consumed by the job)
    ProbeYield,         ///< a probe preempted the running task
    GuardDeferredYield, ///< quantum expired inside a PreemptGuard; the
                        ///< yield was deferred past the critical section
    JobFinished,        ///< job completed; response pushed to the TX ring
};

/** Number of distinct EventKind values. */
inline constexpr int kNumEventKinds = 5;

/** Stable human-readable name of an event kind. */
const char *event_name(EventKind kind);

/** Thread id used for events recorded by the dispatcher thread. */
inline constexpr uint8_t kDispatcherTid = 0xff;

/** One trace record. POD, 24 bytes, trivially copyable. */
struct TraceEvent
{
    Cycles tsc = 0;     ///< raw cycle counter at the recording site
    uint64_t job = 0;   ///< request/job id the event belongs to
    uint32_t arg = 0;   ///< event-specific argument (see EventKind)
    EventKind kind = EventKind::JobDispatched; ///< what happened
    uint8_t tid = 0;    ///< worker id, or kDispatcherTid
};

static_assert(sizeof(TraceEvent) == 24, "trace events must stay compact");

} // namespace tq::telemetry

#endif // TQ_TELEMETRY_EVENTS_H
