#include "probe/probe.h"

#include "common/check.h"

namespace tq {

ProbeState &
probe_state()
{
    thread_local ProbeState state;
    return state;
}

namespace detail {

void
probe_expired(ProbeState &s)
{
    if (s.preempt_disabled > 0) {
        // Inside a critical section: remember, yield at the next probe
        // that runs outside any guard (paper section 4).
#if defined(TQ_TELEMETRY_ENABLED)
        // Record the deferral once per expiry, not once per probe that
        // re-observes the already-passed deadline inside the guard.
        if (!s.yield_pending && s.telem != nullptr) {
            owner_add(s.telem->counters.guard_deferrals, 1);
            s.telem->trace.record(telemetry::EventKind::GuardDeferredYield,
                                  s.telem_job);
        }
#endif
        s.yield_pending = true;
        return;
    }
    s.yield_pending = false;
    TQ_CHECK(s.call_the_yield != nullptr);
#if defined(TQ_TELEMETRY_ENABLED)
    // The yield itself is counted once, by the worker's stats line when
    // the slice requeues; the trace only marks when it happened.
    if (s.telem != nullptr)
        s.telem->trace.record(telemetry::EventKind::ProbeYield,
                              s.telem_job);
#endif
    // Push the deadline out so nested probes reached while unwinding to
    // the yield do not recurse; the scheduler re-arms before resuming.
    s.deadline = ~Cycles{0};
    s.call_the_yield(s.yield_arg);
}

} // namespace detail
} // namespace tq
