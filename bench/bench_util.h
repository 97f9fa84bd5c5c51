/**
 * @file
 * Shared helpers for the figure-reproduction binaries.
 *
 * Every bench prints a self-describing header (paper figure, workload,
 * parameters) followed by tab-separated series that EXPERIMENTS.md
 * records. Durations scale through TQ_BENCH_DURATION_MS (default 60) so
 * CI can run fast while full runs stay one environment variable away.
 */
#ifndef TQ_BENCH_BENCH_UTIL_H
#define TQ_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/units.h"

namespace tq::bench {

/** Simulated arrival window for DES benches, from the environment. */
inline SimNanos
sim_duration()
{
    if (const char *env = std::getenv("TQ_BENCH_DURATION_MS")) {
        const double v = std::atof(env);
        if (v > 0)
            return ms(v);
    }
    return ms(60);
}

/**
 * Sweep parallelism for DES benches: one worker per hardware thread of
 * the host, at least 1. Points of a sweep are independent simulations
 * and serial/parallel results are bitwise identical (see sim/sweep.h),
 * so the thread count only trades wall clock for cores.
 */
inline int
host_threads()
{
    return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/** Print the standard bench banner. */
inline void
banner(const char *id, const char *what)
{
    std::printf("# %s — %s\n", id, what);
    std::printf("# window: %.0f ms simulated; set TQ_BENCH_DURATION_MS to "
                "change\n",
                to_sec(sim_duration()) * 1e3);
}

/** "saturated" / value formatting for latency cells (us). */
inline std::string
cell_us(bool saturated, double value_ns)
{
    if (saturated)
        return "sat";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", value_ns / 1e3);
    return buf;
}

/** Format a plain double with %.3g. */
inline std::string
cell(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4g", v);
    return buf;
}

} // namespace tq::bench

#endif // TQ_BENCH_BENCH_UTIL_H
