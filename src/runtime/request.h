/**
 * @file
 * Request/response types flowing through the real TQ runtime.
 *
 * In the paper these are UDP packets moved by DPDK; here they are small
 * PODs moved through the same lock-free ring structure (DESIGN.md
 * substitution table).
 */
#ifndef TQ_RUNTIME_REQUEST_H
#define TQ_RUNTIME_REQUEST_H

#include <cstdint>

#include "common/cycles.h"

namespace tq::runtime {

/** One incoming request. */
struct Request
{
    uint64_t id = 0;           ///< client-assigned request id
    Cycles gen_cycles = 0;     ///< client send timestamp
    Cycles arrival_cycles = 0; ///< stamped when the dispatcher receives it
    Cycles dispatch_cycles = 0;///< stamped when the dispatcher hands the
                               ///< job to a worker (telemetry builds;
                               ///< 0 otherwise)
    int job_class = 0;         ///< workload class (short/long, GET/SCAN...).
                               ///< Also the per-class quantum key: when
                               ///< RuntimeConfig::class_quantum_us is set
                               ///< it picks the job's scheduler slot,
                               ///< whose quantum every grant starts from
                               ///< (common/sched_core.h; classes >= 7
                               ///< share slot 7)
    uint64_t payload = 0;      ///< class-specific argument (key, ns, ...)
};

// Six words: a dispatch-ring slot (request + stamp) and an RX MPMC cell
// (sequence + request) are both 56 bytes and own one line
// (docs/cache_line_analysis.md).
static_assert(sizeof(Request) == 48, "Request layout grew");

/** One completed response, emitted directly by the worker. */
struct Response
{
    uint64_t id = 0;
    Cycles gen_cycles = 0;
    Cycles arrival_cycles = 0;
    Cycles done_cycles = 0;    ///< end of the job's last slice (worker)
    int job_class = 0;
    int worker = -1;           ///< core that executed the job
    uint64_t result = 0;       ///< handler's output (checksum etc.)

    /** Server-side sojourn (dispatcher receive -> completion), ns. */
    double
    sojourn_ns() const
    {
        return cycles_to_ns(done_cycles - arrival_cycles);
    }

    /** End-to-end latency (client send -> completion), ns. */
    double
    e2e_ns() const
    {
        return cycles_to_ns(done_cycles - gen_cycles);
    }
};

// Six words, like Request: a TX ring slot (response + stamp) is 56
// bytes and owns one line.
static_assert(sizeof(Response) == 48, "Response layout grew");

} // namespace tq::runtime

#endif // TQ_RUNTIME_REQUEST_H
