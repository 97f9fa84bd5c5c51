/**
 * @file
 * Physical cycle clock.
 *
 * Forced multitasking (paper section 3.1) keys every probe off the hardware
 * cycle counter: a probe yields only when enough cycles have elapsed since
 * the previous yield point. This header provides the raw counter read
 * (RDTSC: x86-64 with an invariant TSC is the only target) and a one-time
 * calibration of the cycles <-> nanoseconds ratio used to convert target
 * quanta expressed in time into cycle deadlines.
 */
#ifndef TQ_COMMON_CYCLES_H
#define TQ_COMMON_CYCLES_H

#include <cstdint>

#include <x86intrin.h>

namespace tq {

/** Raw cycle-counter value. */
using Cycles = uint64_t;

/**
 * Read the hardware cycle counter.
 *
 * This compiles to a single RDTSC; modern TSCs are invariant
 * (constant-rate, unhalted), which is what makes physical-clock probes
 * accurate. The read is intentionally unserialized: probe sites tolerate
 * out-of-order overlap, and that overlap is exactly why sparse RDTSC
 * probes are cheap (paper section 3.1).
 */
inline Cycles
rdcycles()
{
    return __rdtsc();
}

/**
 * @return calibrated cycle-counter frequency in cycles per nanosecond.
 *
 * The first call spins for a short calibration window (~20ms) against
 * std::chrono::steady_clock; subsequent calls return the cached value.
 * Thread-safe (C++ static-local initialization).
 */
double cycles_per_ns();

/** Convert a duration in nanoseconds into cycle-counter ticks. */
inline Cycles
ns_to_cycles(double nanos)
{
    return static_cast<Cycles>(nanos * cycles_per_ns());
}

/** Convert cycle-counter ticks into nanoseconds. */
inline double
cycles_to_ns(Cycles cycles)
{
    return static_cast<double>(cycles) / cycles_per_ns();
}

} // namespace tq

#endif // TQ_COMMON_CYCLES_H
