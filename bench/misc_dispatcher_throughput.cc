/**
 * @file
 * Paper section 6: dispatcher throughput. TQ's dispatcher does only
 * per-job load balancing (one ring pop, one JSQ scan, one ring push) and
 * sustains ~14 Mrps on the paper's hardware; centralized dispatchers do
 * per-quantum work and sustain ~5 Mrps.
 *
 * This bench measures the *real* cost of TQ's per-job dispatch path on
 * this machine (single-threaded: the actual instruction path, no
 * cross-core traffic) in both forms:
 *
 *  - batched: the pre-packed dispatcher_main() path — one RX pop_n per
 *    batch, one arrival stamp and one counter-line refresh per batch,
 *    then per-request scans over a dispatcher-local vector view;
 *  - packed: the current dispatcher_main() path — the batched shape,
 *    with the per-request scan replaced by DispatchView's packed
 *    uint32 lanes and adaptive pick (one-line scan at <= 16 workers,
 *    SIMD horizontal min above; dispatch_view.h).
 *
 * The classic per-request scalar path (one RX pop, stamp, shared-line
 * scan and push per request) is no longer measured; its last recorded
 * cost is the legacy_scalar_ns column of BENCH_dispatch.json.
 *
 * Requests are staged into the RX queue in untimed rounds so both modes
 * measure dispatch work against a backlogged RX — the regime where
 * dispatcher capacity is the binding constraint (Fig. 2/16). The output
 * is a TSV table plot_bench.py can render, and the packed ns/job at 16
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
#include "runtime/request.h"
#include "runtime/worker_stats.h"

using namespace tq;

namespace {

constexpr int kIters = 2'000'000;
constexpr int kRound = 8192;      // staged per untimed refill
constexpr size_t kBatch = 32;     // RuntimeConfig::dispatch_batch default

struct Cluster
{
    explicit Cluster(int workers)
        : rx(kRound * 2), lines(static_cast<size_t>(workers)),
          readers(static_cast<size_t>(workers)),
          assigned(static_cast<size_t>(workers), 0)
    {
        for (int w = 0; w < workers; ++w)
            rings.push_back(
                std::make_unique<SpscRing<runtime::Request>>(256));
    }

    MpmcQueue<runtime::Request> rx;
    std::vector<std::unique_ptr<SpscRing<runtime::Request>>> rings;
    std::vector<runtime::WorkerStatsLine> lines;
    std::vector<runtime::WorkerStatsReader> readers;
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
batched_ns_per_job(int workers)
{
    Cluster c(workers);
    std::vector<uint64_t> len_view(static_cast<size_t>(workers), 0);
    std::vector<uint32_t> quanta_view(static_cast<size_t>(workers), 0);
    runtime::Request batch[kBatch];
    runtime::Request scratch;
    Cycles timed = 0;
    int done = 0;
    while (done < kIters) {
        const int round = std::min(kRound, kIters - done);
        stage(c, round, static_cast<uint64_t>(done));
        const Cycles t0 = rdcycles();
        int off = 0;
        while (off < round) {
            const size_t n = c.rx.pop_n(batch, kBatch);
            const Cycles arrived = rdcycles();
            // Batch boundary: one pass over the shared counter lines.
            for (int w = 0; w < workers; ++w) {
                const size_t i_w = static_cast<size_t>(w);
                const uint64_t fin =
                    c.readers[i_w].read_finished(c.lines[i_w]);
                len_view[i_w] =
                    c.assigned[i_w] > fin ? c.assigned[i_w] - fin : 0;
                quanta_view[i_w] =
                    runtime::WorkerStatsReader::read_current_quanta(
                        c.lines[i_w]);
            }
            // Per-request work: local view only.
            for (size_t j = 0; j < n; ++j) {
                batch[j].arrival_cycles = arrived;
                uint64_t best_len = ~0ULL;
                int best = 0;
                uint32_t best_q = 0;
                for (int w = 0; w < workers; ++w) {
                    const size_t i_w = static_cast<size_t>(w);
                    if (len_view[i_w] < best_len ||
                        (len_view[i_w] == best_len &&
                         quanta_view[i_w] > best_q)) {
                        best_len = len_view[i_w];
                        best = w;
                        best_q = quanta_view[i_w];
                    }
                }
                ++len_view[static_cast<size_t>(best)];
                forward(c, best, batch[j], scratch);
            }
            off += static_cast<int>(n);
        }
        timed += rdcycles() - t0;
        done += round;
    }
    return cycles_to_ns(timed) / kIters;
}

double
packed_ns_per_job(int workers)
{
    Cluster c(workers);
    DispatchView view(static_cast<size_t>(workers));
    runtime::Request batch[kBatch];
    runtime::Request scratch;
    Cycles timed = 0;
    int done = 0;
    while (done < kIters) {
        const int round = std::min(kRound, kIters - done);
        stage(c, round, static_cast<uint64_t>(done));
        const Cycles t0 = rdcycles();
        int off = 0;
        while (off < round) {
            const size_t n = c.rx.pop_n(batch, kBatch);
            const Cycles arrived = rdcycles();
            // Batch boundary: one pass over the shared counter lines
            // into the packed view.
            for (int w = 0; w < workers; ++w) {
                const size_t i_w = static_cast<size_t>(w);
                const uint64_t fin =
                    c.readers[i_w].read_finished(c.lines[i_w]);
                view.set_len(i_w, c.assigned[i_w] > fin
                                      ? c.assigned[i_w] - fin
                                      : 0);
                view.set_quanta(
                    i_w, runtime::WorkerStatsReader::read_current_quanta(
                             c.lines[i_w]));
            }
            // Per-request work: SIMD pick + saturating bump, local only.
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
                  "dispatcher per-job cost, batched vs packed-"
                  TQ_DISPATCH_VIEW_SIMD
                  " hot path (batch=32, backlogged RX), and implied Mrps");

    // Warm the clock calibration before timing.
    cycles_per_ns();

    std::printf("workers\tbatched_ns\tpacked_ns\tbatched_mrps\t"
                "packed_mrps\n");
    for (int workers : {4, 8, 16}) {
        const double b = batched_ns_per_job(workers);
        const double p = packed_ns_per_job(workers);
        std::printf("%d\t%.1f\t%.1f\t%.2f\t%.2f\n", workers, b, p,
                    1e3 / b, 1e3 / p);
        std::fflush(stdout);
    }
    std::printf("# paper reports ~14 Mrps for TQ's dispatcher, >> the\n"
                "# centralized ~5 Mrps; sim::Overheads::dispatch_cost is\n"
                "# calibrated from the packed 16-worker ns/job above\n"
                "# (see BENCH_dispatch.json for the recorded run).\n");
    return 0;
}
