/**
 * @file
 * Paper section 6: dispatcher throughput. TQ's dispatcher does only
 * per-job load balancing (one ring pop, one JSQ scan, one ring push) and
 * sustains ~14 Mrps on the paper's hardware; centralized dispatchers do
 * per-quantum work and sustain ~5 Mrps.
 *
 * This bench measures the *real* cost of TQ's per-job dispatch path on
 * this machine (single-threaded: the actual instruction path, no
 * cross-core traffic), shaped like dispatcher_main(): one RX pop_n per
 * batch, one arrival stamp and one counter-line refresh into the packed
 * DispatchView per batch, then per-request JSQ-MSQ picks over that
 * view (common/dispatch_view.h) and ring pushes.
 *
 * Requests are staged into the RX queue in untimed rounds so the bench
 * measures dispatch work against a backlogged RX — the regime where
 * dispatcher capacity is the binding constraint (Fig. 2/16). The output
 * is a TSV table plot_bench.py can render, and the ns/job at 16
 * workers is the calibration input for sim::Overheads::dispatch_cost
 * (recorded in BENCH_dispatch.json).
 */
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/cycles.h"
#include "common/dispatch_view.h"
#include "conc/mpmc_queue.h"
#include "conc/spsc_ring.h"
#include "runtime/config.h"
#include "runtime/request.h"
#include "runtime/worker_stats.h"

using namespace tq;

namespace {

constexpr int kIters = 2'000'000;
constexpr int kRound = 8192;      // staged per untimed refill

struct Cluster
{
    explicit Cluster(int workers)
        : rx(kRound * 2), lines(static_cast<size_t>(workers)),
          assigned(static_cast<size_t>(workers), 0)
    {
        for (int w = 0; w < workers; ++w)
            rings.push_back(
                std::make_unique<SpscRing<runtime::Request>>(256));
    }

    MpmcQueue<runtime::Request> rx;
    std::vector<std::unique_ptr<SpscRing<runtime::Request>>> rings;
    std::vector<runtime::WorkerStatsLine> lines;
    std::vector<uint64_t> assigned;
};

void
stage(Cluster &c, int count, uint64_t base_id)
{
    runtime::Request req;
    for (int i = 0; i < count; ++i) {
        req.id = base_id + static_cast<uint64_t>(i);
        c.rx.push(req);
    }
}

/** Forward to @p best: ring push, drained in place (consumer cost runs
 *  on worker cores in deployment), assignment + finish bookkeeping to
 *  keep the emulated JSQ views bounded. */
inline void
forward(Cluster &c, int best, runtime::Request &req,
        runtime::Request &scratch)
{
    c.rings[static_cast<size_t>(best)]->push(req);
    (void)c.rings[static_cast<size_t>(best)]->pop_into(scratch);
    ++c.assigned[static_cast<size_t>(best)];
    c.lines[static_cast<size_t>(best)].finished.fetch_add(
        1, std::memory_order_relaxed);
}

double
packed_ns_per_job(int workers)
{
    Cluster c(workers);
    DispatchView view(static_cast<size_t>(workers));
    runtime::Request batch[runtime::kDispatchBatch];
    runtime::Request scratch;
    Cycles timed = 0;
    int done = 0;
    while (done < kIters) {
        const int round = std::min(kRound, kIters - done);
        stage(c, round, static_cast<uint64_t>(done));
        const Cycles t0 = rdcycles();
        int off = 0;
        while (off < round) {
            const size_t n = c.rx.pop_n(batch, runtime::kDispatchBatch);
            const Cycles arrived = rdcycles();
            // Batch boundary: one pass over the shared counter lines
            // into the packed view.
            for (int w = 0; w < workers; ++w) {
                const size_t i_w = static_cast<size_t>(w);
                const runtime::WorkerStatsLine &line = c.lines[i_w];
                const uint64_t fin =
                    line.finished.load(std::memory_order_relaxed);
                view.set_len(i_w, c.assigned[i_w] > fin
                                      ? c.assigned[i_w] - fin
                                      : 0);
                view.set_quanta(i_w, line.current_quanta.load(
                                         std::memory_order_relaxed));
            }
            // Per-request work: packed pick + saturating bump, local only.
            for (size_t j = 0; j < n; ++j) {
                batch[j].arrival_cycles = arrived;
                const int best = view.pick_jsq_msq();
                view.bump_len(static_cast<size_t>(best));
                forward(c, best, batch[j], scratch);
            }
            off += static_cast<int>(n);
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
                  "dispatcher per-job cost of the packed hot path "
                  "(batch=32, backlogged RX), and implied Mrps");

    // Warm the clock calibration before timing.
    cycles_per_ns();

    std::printf("workers\tpacked_ns\tpacked_mrps\n");
    for (int workers : {4, 8, 16}) {
        const double p = packed_ns_per_job(workers);
        std::printf("%d\t%.1f\t%.2f\n", workers, p, 1e3 / p);
        std::fflush(stdout);
    }
    std::printf("# paper reports ~14 Mrps for TQ's dispatcher, >> the\n"
                "# centralized ~5 Mrps; sim::Overheads::dispatch_cost is\n"
                "# calibrated from the 16-worker ns/job above\n"
                "# (see BENCH_dispatch.json for the recorded run).\n");
    return 0;
}
