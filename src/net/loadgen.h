/**
 * @file
 * Open-loop load generator and latency collector (paper section 5.1).
 *
 * Plays the role of the paper's client machine: submits requests under a
 * Poisson process at a configured rate, timestamps them with the cycle
 * clock, collects responses from the workers' TX rings, and reports
 * per-class tail latency with the first 10% of samples discarded.
 *
 * The transport is the runtime's lock-free rings instead of UDP/DPDK
 * (DESIGN.md substitution table). The client thread shares the host's
 * cores with the dispatcher and workers (the reference host is a
 * 4-vCPU VM), so the configured rate is an upper bound on the achieved
 * rate; the achieved rate is reported.
 */
#ifndef TQ_NET_LOADGEN_H
#define TQ_NET_LOADGEN_H

#include <functional>
#include <string>
#include <vector>

#include "common/dist.h"
#include "common/percentile.h"
#include "runtime/request.h"

namespace tq::net {

/** Builds a request for a sampled job class (sets payload etc.). */
using RequestFactory =
    std::function<runtime::Request(const ServiceSample &, uint64_t id)>;

/** Load-generation parameters. */
struct LoadGenConfig
{
    double rate_mrps = 0.05;    ///< offered request rate
    double duration_sec = 0.5;  ///< generation window
    double drain_timeout_sec = 10.0; ///< wait for stragglers after window
    uint64_t seed = 1;          ///< arrival-process RNG seed

    /**
     * Optional sink for every arrival draw (absolute ns, including the
     * final past-window overshoot draw) — the client-side twin of
     * EngineCore::set_arrival_trace, compared by the parity tests.
     */
    std::vector<double> *send_trace = nullptr;
};

/** Per-class client-side latency statistics. */
struct ClientClassStats
{
    std::string name;
    uint64_t completed = 0;
    double p999_sojourn_us = 0;
    double p99_sojourn_us = 0;
    double mean_sojourn_us = 0;
    double p999_e2e_us = 0;
};

/** Outcome of one load-generation run. */
struct ClientStats
{
    uint64_t submitted = 0;
    uint64_t completed = 0;
    uint64_t send_failures = 0; ///< RX queue full events
    /** Submitted but never collected before the drain timeout. */
    uint64_t timed_out = 0;

    /**
     * Completions collected before the generation window closed.
     * Requests still in flight at window close are NOT in this count —
     * they either drain into `completed` (and the percentiles) or end up
     * in `timed_out`, never both.
     */
    uint64_t completed_in_window = 0;

    /**
     * completed_in_window per generation-window millisecond. Only
     * completions observed inside the window count: draining stragglers
     * after it can neither inflate the rate (completions landing after
     * close) nor deflate it (drain time is excluded from the divisor).
     */
    double achieved_mrps = 0;
    /** Measured generation-window length (excludes the drain phase). */
    double gen_elapsed_sec = 0;
    std::vector<ClientClassStats> classes;

    const ClientClassStats &by_class(const std::string &name) const;
};

/** Abstract server interface, so tests can substitute a server. */
class Server
{
  public:
    virtual ~Server() = default;
    virtual bool submit(const runtime::Request &req) = 0;
    virtual size_t drain(std::vector<runtime::Response> &out) = 0;
};

/**
 * Run one open-loop experiment against @p server.
 * @param dist workload class/demand sampler (payload via @p factory).
 */
ClientStats run_open_loop(Server &server, const ServiceDist &dist,
                          const RequestFactory &factory,
                          const LoadGenConfig &cfg);

/**
 * Factory for spin-loop workloads: the request payload is the sampled
 * service demand in nanoseconds (consumed by a spin_for handler).
 */
RequestFactory spin_request_factory();

} // namespace tq::net

#endif // TQ_NET_LOADGEN_H
