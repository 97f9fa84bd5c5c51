#include "net/loadgen.h"

#include <thread>

#include "common/arrival.h"
#include "common/check.h"
#include "common/cycles.h"
#include "common/rng.h"
#include "fault/fault.h"

namespace tq::net {

namespace {

/** Fraction of each class's samples discarded as warm-up before the
 *  percentiles are taken. */
constexpr double kWarmup = 0.1;

} // namespace

const ClientClassStats &
ClientStats::by_class(const std::string &name) const
{
    for (const auto &c : classes)
        if (c.name == name)
            return c;
    tq::fatal("ClientStats::by_class: unknown class");
}

ClientStats
run_open_loop(Server &server, const ServiceDist &dist,
              const RequestFactory &factory, const LoadGenConfig &cfg)
{
    TQ_CHECK(cfg.rate_mrps > 0);
    Rng rng(cfg.seed);
    const auto &names = dist.class_names();
    std::vector<PercentileTracker> sojourn(names.size(),
                                           PercentileTracker(kWarmup));
    std::vector<PercentileTracker> e2e(names.size(),
                                       PercentileTracker(kWarmup));
    std::vector<uint64_t> counts(names.size(), 0);

    ClientStats stats;
    std::vector<runtime::Response> responses;
    responses.reserve(4096);

    // The send schedule lives in the nanosecond domain (1 Mrps =
    // 1e-3 req/ns) and is drawn from the same Poisson process as the
    // simulators, with the same draw interleave — initial gap, then
    // (service sample, next gap) per request — so a seeded run produces
    // the identical arrival sequence through both stacks.
    const PoissonProcess arrival(cfg.rate_mrps * 1e-3);
    const double duration_ns = cfg.duration_sec * 1e9;

    auto collect = [&] {
        TQ_FAULT_SITE(LoadgenCollect);
        // The server drains each worker TX ring with batched pop_n
        // (one shared-index round trip per ring per burst), so the
        // whole backlog lands here in one call.
        responses.clear();
        server.drain(responses);
        for (const auto &r : responses) {
            const size_t c = static_cast<size_t>(r.job_class);
            sojourn[c].add(r.sojourn_ns());
            e2e[c].add(r.e2e_ns());
            ++counts[c];
            ++stats.completed;
        }
    };

    const Cycles start = rdcycles();
    double next_send_ns = arrival.next(0.0, rng);
    if (cfg.send_trace != nullptr)
        cfg.send_trace->push_back(next_send_ns);
    uint64_t next_id = 0;

    // Generation window: open loop — send times do not depend on
    // completions (paper section 5.1). Every arrival scheduled inside
    // the window is sent, even when the wall clock lags the schedule,
    // so the submitted set is a pure function of the seed.
    while (next_send_ns < duration_ns) {
        const Cycles sched = start + ns_to_cycles(next_send_ns);
        if (rdcycles() < sched) {
            collect();
            continue;
        }
        const ServiceSample s = dist.sample(rng);
        runtime::Request req = factory(s, next_id);
        req.id = next_id++;
        req.gen_cycles = sched;
        TQ_FAULT_SITE(LoadgenSend);
        if (server.submit(req))
            ++stats.submitted;
        else
            ++stats.send_failures;
        next_send_ns = arrival.next(next_send_ns, rng);
        if (cfg.send_trace != nullptr)
            cfg.send_trace->push_back(next_send_ns);
    }
    // The schedule ran dry (the overshoot draw above is past the
    // window) but the window itself runs to the configured duration:
    // keep collecting until it closes so completions landing between
    // the last send and the close still count as in-window.
    const Cycles window_end = start + ns_to_cycles(duration_ns);
    while (rdcycles() < window_end)
        collect();
    // The achieved rate counts completions observed inside the
    // generation window only: completions landing during the drain
    // below belong to the percentiles but not to the rate (measuring
    // them would credit the window with throughput it did not sustain,
    // and measuring over generation + drain time would deflate the rate
    // by however long the tail straggled).
    const Cycles gen_end = rdcycles();
    stats.completed_in_window = stats.completed;

    // Drain stragglers.
    const Cycles drain_end =
        rdcycles() + ns_to_cycles(cfg.drain_timeout_sec * 1e9);
    while (stats.completed < stats.submitted && rdcycles() < drain_end) {
        collect();
        std::this_thread::yield();
    }
    collect();

    const double gen_elapsed_ns = cycles_to_ns(gen_end - start);
    stats.gen_elapsed_sec = gen_elapsed_ns / 1e9;
    stats.timed_out = stats.submitted - stats.completed;
    stats.achieved_mrps =
        gen_elapsed_ns > 0
            ? static_cast<double>(stats.completed_in_window) * 1e3 /
                  gen_elapsed_ns
            : 0;
    for (size_t c = 0; c < names.size(); ++c) {
        ClientClassStats cs;
        cs.name = names[c];
        cs.completed = counts[c];
        cs.p999_sojourn_us = sojourn[c].quantile(0.999) / 1e3;
        cs.p99_sojourn_us = sojourn[c].quantile(0.99) / 1e3;
        cs.mean_sojourn_us = sojourn[c].mean() / 1e3;
        cs.p999_e2e_us = e2e[c].quantile(0.999) / 1e3;
        stats.classes.push_back(std::move(cs));
    }
    return stats;
}

RequestFactory
spin_request_factory()
{
    return [](const ServiceSample &s, uint64_t) {
        runtime::Request req;
        req.job_class = s.job_class;
        req.payload = static_cast<uint64_t>(s.demand);
        return req;
    };
}

} // namespace tq::net
