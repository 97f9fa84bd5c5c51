/**
 * @file
 * Paper section 6: dispatcher throughput. TQ's dispatcher does only
 * per-job load balancing (one ring pop, one JSQ scan, one ring push) and
 * sustains ~14 Mrps on the paper's hardware; centralized dispatchers do
 * per-quantum work and sustain ~5 Mrps.
 *
 * This bench times the runtime's own dispatcher iteration,
 * Runtime::dispatch_step() (one RX pop_n, one arrival stamp and one
 * counter-line refresh of the DispatchView per batch, then per request
 * the configured JSQ-MSQ pick, the telemetry stamps and the bounded
 * ring push), on a runtime whose threads never start. Single-threaded:
 * the actual instruction path, no cross-core traffic.
 *
 * Requests are staged into RX with submit() in untimed rounds, so the
 * bench measures dispatch work against a backlogged RX — the regime
 * where dispatcher capacity is the binding constraint (Fig. 2/16).
 * After each step the worker dispatch rings are drained in place and
 * each popped job is published as finished on its worker's stats line,
 * the consumer work a worker core does in deployment, which keeps the
 * JSQ view bounded. Each width is timed kReps times on a fresh runtime
 * and the row gives the median ns/job (and its implied Mrps) with the
 * min and max, since one pass spreads widely on a shared host. The
 * output is a TSV table plot_bench.py can render; BENCH_dispatch.json
 * records a run, and the ns/job at 16 workers is the calibration input
 * for sim::Overheads::dispatch_cost.
 */
#include <algorithm>
#include <array>
#include <cstdio>

#include "bench_util.h"
#include "common/cycles.h"
#include "runtime/runtime.h"

using namespace tq;

namespace {

constexpr int kIters = 2'000'000;
constexpr int kRound = 8192; // staged per untimed refill
constexpr int kReps = 5;     // timed passes per width

double
packed_ns_per_job(int workers)
{
    runtime::RuntimeConfig cfg;
    cfg.num_workers = workers;
    runtime::Runtime rt(cfg,
                        [](const runtime::Request &) { return 0ULL; });
    runtime::Request req;
    runtime::Request scratch;
    Cycles timed = 0;
    int done = 0;
    while (done < kIters) {
        const int round = std::min(kRound, kIters - done);
        for (int i = 0; i < round; ++i) {
            req.id = static_cast<uint64_t>(done + i);
            rt.submit(req);
        }
        const Cycles t0 = rdcycles();
        int off = 0;
        while (off < round) {
            off += static_cast<int>(rt.dispatch_step());
            for (int w = 0; w < workers; ++w) {
                runtime::Worker &worker = rt.worker(w);
                uint64_t popped = 0;
                while (worker.dispatch_ring().pop_into(scratch))
                    ++popped;
                owner_add(worker.stats_line().finished, popped);
            }
        }
        timed += rdcycles() - t0;
        done += round;
    }
    return cycles_to_ns(timed) / kIters;
}

} // namespace

int
main()
{
    bench::banner("Section 6",
                  "dispatcher per-job cost of Runtime::dispatch_step() "
                  "(batch=32, backlogged RX), and implied Mrps");

    // Warm the clock calibration before timing.
    cycles_per_ns();

    std::printf("# %d passes of %d jobs per width: median, min, max\n",
                kReps, kIters);
    std::printf("workers\tpacked_ns\tpacked_mrps\tmin_ns\tmax_ns\n");
    for (int workers : {4, 8, 16}) {
        std::array<double, kReps> ns;
        for (double &p : ns)
            p = packed_ns_per_job(workers);
        std::sort(ns.begin(), ns.end());
        const double median = ns[kReps / 2];
        std::printf("%d\t%.1f\t%.2f\t%.1f\t%.1f\n", workers, median,
                    1e3 / median, ns.front(), ns.back());
        std::fflush(stdout);
    }
    std::printf("# paper reports ~14 Mrps for TQ's dispatcher, >> the\n"
                "# centralized ~5 Mrps; the 16-worker ns/job above is the\n"
                "# calibration input for sim::Overheads::dispatch_cost\n"
                "# (see BENCH_dispatch.json for the recorded runs).\n");
    return 0;
}
