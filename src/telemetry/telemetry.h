/**
 * @file
 * Telemetry umbrella header and the compile-time enable switch.
 *
 * The layer has two halves with different costs:
 *
 *  - The *data structures* (MetricsRegistry, Histogram, TraceRing,
 *    the Chrome exporter) always compile and work; they have no
 *    dependency on the runtime and are usable standalone.
 *  - The *hot-path recording sites* inside runtime/, probe/ and net/
 *    are compiled in only when the build enables `TQ_TELEMETRY` (the
 *    default). Configuring with `-DTQ_TELEMETRY=OFF` removes every
 *    recording instruction from the scheduler, probe and dispatcher hot
 *    paths — byte-for-byte the pre-telemetry code — while snapshots and
 *    drains keep working and simply report zeros.
 *
 * See OBSERVABILITY.md for the metric/event taxonomy, the overhead
 * budget, and the snapshot consistency contract.
 */
#ifndef TQ_TELEMETRY_TELEMETRY_H
#define TQ_TELEMETRY_TELEMETRY_H

#include "telemetry/chrome_trace.h"
#include "telemetry/events.h"
#include "telemetry/metrics.h"
#include "telemetry/trace_ring.h"

namespace tq::telemetry {

/** True when hot-path recording is compiled in (TQ_TELEMETRY=ON). */
#if defined(TQ_TELEMETRY_ENABLED)
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

} // namespace tq::telemetry

#endif // TQ_TELEMETRY_TELEMETRY_H
