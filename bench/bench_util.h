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

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

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
 * Sweep parallelism for DES benches: the value of a `--sweep-threads=N`
 * argument, else the TQ_SWEEP_THREADS environment variable, else 1
 * (serial, the historical behavior). Points of a sweep are independent
 * simulations and serial/parallel results are bitwise identical (see
 * sim/sweep.h), so this only trades wall clock for cores.
 */
inline int
sweep_threads(int argc, char **argv)
{
    constexpr const char *kFlag = "--sweep-threads=";
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
            const int v = std::atoi(argv[i] + std::strlen(kFlag));
            if (v > 0)
                return v;
        }
    }
    if (const char *env = std::getenv("TQ_SWEEP_THREADS")) {
        const int v = std::atoi(env);
        if (v > 0)
            return v;
    }
    return 1;
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
