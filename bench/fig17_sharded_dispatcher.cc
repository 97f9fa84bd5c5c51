/**
 * @file
 * Sharded-dispatcher scalability (DESIGN.md §4g, paper section 6):
 * aggregate dispatch throughput past the single-core dispatcher
 * ceiling. Paper context: one TQ dispatcher core sustains ~14 Mrps of
 * per-job load balancing; section 6 proposes scaling out with multiple
 * load-balancing dispatchers. This PR's sharded tier implements that —
 * S dispatcher shards over disjoint worker subsets behind a front-tier
 * rotated JSQ — and this bench measures all three layers:
 *
 *  1. front-tier pick: ns per pick_min_rotated() over S per-shard load
 *     lines (the cost every submitter pays per request; submitters are
 *     parallel, so this is latency, not a serial resource);
 *  2. per-shard dispatch hot path, isolated timing: the packed
 *     dispatch loop of runtime.cc dispatcher_main() against a
 *     backlogged RX, with the JSQ view and counter-line refresh
 *     restricted to the shard's owned span plus the per-batch load-line
 *     publish. Shards are timed one at a time on one core — this
 *     container has a single CPU, so concurrent shard threads would
 *     timeshare that core and measure scheduler interleaving, not
 *     dispatch. In deployment each shard owns a core, so aggregate
 *     capacity is S x the isolated per-shard rate (caveat recorded in
 *     BENCH_dispatch.json);
 *  3. simulated cluster capacity: max sustainable Mrps of a 64-core /
 *     0.5us-job cluster under a p999 slowdown SLO at 1/2/4 dispatcher
 *     shards (the fig16-style sweep, now through the two-level model's
 *     sharded path: front_tier_cost + per-shard serial dispatchers),
 *     and tail parity at low load — far from the dispatch ceiling,
 *     sharding must not cost the tail.
 *
 * `--arrival=onoff` switches the sim sections to the MMPP burst
 * profile; the dispatch hot-path sections always run backlogged (the
 * regime where dispatcher capacity binds).
 */
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/cycles.h"
#include "common/dispatch_view.h"
#include "common/dist.h"
#include "common/shard.h"
#include "conc/mpmc_queue.h"
#include "conc/spsc_ring.h"
#include "runtime/request.h"
#include "runtime/shard_front.h"
#include "runtime/worker_stats.h"
#include "sim/sweep.h"
#include "sim/two_level.h"

using namespace tq;

namespace {

constexpr int kWorkers = 16;      // the paper's deployment size
constexpr int kIters = 2'000'000; // jobs timed per shard point
constexpr int kRound = 8192;      // staged per untimed RX refill
constexpr size_t kBatch = 32;     // RuntimeConfig::dispatch_batch

// ------------------------------------------------------------ front --

/**
 * ns per front-tier pick: S load-line reads + the rotated min scan.
 * One line's load is bumped every 64 picks so the scan sees changing
 * values instead of a fully predicted all-ties pattern.
 */
double
front_pick_ns(int shards)
{
    std::vector<runtime::ShardLoadLine> lines(
        static_cast<size_t>(shards));
    std::vector<uint32_t> loads(static_cast<size_t>(shards));
    for (int s = 0; s < shards; ++s)
        lines[static_cast<size_t>(s)].load.store(
            static_cast<uint32_t>(s), std::memory_order_relaxed);
    constexpr int kPicks = 4'000'000;
    uint64_t sink = 0;
    const Cycles t0 = rdcycles();
    for (int i = 0; i < kPicks; ++i) {
        for (int s = 0; s < shards; ++s)
            loads[static_cast<size_t>(s)] =
                lines[static_cast<size_t>(s)].load.load(
                    std::memory_order_relaxed);
        const int pick = pick_min_rotated(
            loads.data(), static_cast<size_t>(shards),
            static_cast<uint64_t>(i));
        sink += static_cast<uint64_t>(pick);
        if ((i & 63) == 0)
            lines[static_cast<size_t>(pick)].load.fetch_add(
                1, std::memory_order_relaxed);
    }
    const double ns = cycles_to_ns(rdcycles() - t0) / kPicks;
    if (sink == 0) // keep the picks observable
        std::printf("# sink\n");
    return ns;
}

// ------------------------------------------------------- per shard --

/** One emulated dispatcher shard: the real building blocks of
 *  runtime.cc (MPMC RX, packed DispatchView over the owned span, the
 *  shared counter lines, SPSC worker rings, the advertised-load line),
 *  assembled without threads so the dispatch path itself is timed. */
struct ShardBench
{
    explicit ShardBench(ShardSpan span_)
        : span(span_), rx(kRound * 2),
          view(static_cast<size_t>(span_.count)),
          lines(static_cast<size_t>(span_.count)),
          readers(static_cast<size_t>(span_.count)),
          assigned(static_cast<size_t>(span_.count), 0)
    {
        for (int w = 0; w < span.count; ++w)
            rings.push_back(
                std::make_unique<SpscRing<runtime::Request>>(256));
    }

    ShardSpan span;
    MpmcQueue<runtime::Request> rx;
    DispatchView view;
    std::vector<runtime::WorkerStatsLine> lines;
    std::vector<runtime::WorkerStatsReader> readers;
    std::vector<uint64_t> assigned;
    std::vector<std::unique_ptr<SpscRing<runtime::Request>>> rings;
    runtime::ShardLoadLine load_line;
};

/** The dispatcher_main() hot path for one shard against a backlogged
 *  RX: pop_n, one arrival stamp + span-wide view refresh per batch,
 *  packed JSQ+MSQ pick per job, ring push (drained in place — the
 *  consumer runs on worker cores in deployment), and the per-batch
 *  advertised-load publish. Returns ns per job. */
double
shard_dispatch_ns(ShardSpan span)
{
    ShardBench sh(span);
    runtime::Request batch[kBatch];
    runtime::Request scratch;
    Cycles timed = 0;
    int done = 0;
    while (done < kIters) {
        const int round = std::min(kRound, kIters - done);
        {
            runtime::Request req;
            for (int i = 0; i < round; ++i) {
                req.id = static_cast<uint64_t>(done + i);
                sh.rx.push(req);
            }
        }
        const Cycles t0 = rdcycles();
        int off = 0;
        while (off < round) {
            const size_t n = sh.rx.pop_n(batch, kBatch);
            const Cycles arrived = rdcycles();
            uint64_t queue_sum = 0;
            for (int w = 0; w < span.count; ++w) {
                const size_t i_w = static_cast<size_t>(w);
                const uint64_t fin =
                    sh.readers[i_w].read_finished(sh.lines[i_w]);
                const uint64_t len =
                    sh.assigned[i_w] > fin ? sh.assigned[i_w] - fin : 0;
                queue_sum += len;
                sh.view.set_len(i_w, len);
                sh.view.set_quanta(
                    i_w,
                    runtime::WorkerStatsReader::read_current_quanta(
                        sh.lines[i_w]));
            }
            for (size_t j = 0; j < n; ++j) {
                batch[j].arrival_cycles = arrived;
                const size_t best =
                    static_cast<size_t>(sh.view.pick_jsq_msq());
                sh.view.bump_len(best);
                sh.rings[best]->push(batch[j]);
                (void)sh.rings[best]->pop_into(scratch);
                ++sh.assigned[best];
                sh.lines[best].finished.fetch_add(
                    1, std::memory_order_relaxed);
            }
            const uint64_t load = queue_sum + n + sh.rx.size();
            sh.load_line.load.store(
                load > UINT32_MAX ? UINT32_MAX
                                  : static_cast<uint32_t>(load),
                std::memory_order_relaxed);
            off += static_cast<int>(n);
        }
        timed += rdcycles() - t0;
        done += round;
    }
    return cycles_to_ns(timed) / kIters;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tq::sim;
    const ArrivalSpec arrival = bench::arrival_spec(argc, argv);
    bench::banner("Figure 17",
                  "sharded dispatchers behind a front-tier JSQ: "
                  "aggregate dispatch scaling (DESIGN.md §4g)");
    std::printf("# arrival (sim sections): %s\n",
                bench::arrival_name(arrival));
    cycles_per_ns(); // warm the clock calibration

    // -- 1: the submit-side steering pick ------------------------------
    std::printf("## front-tier pick (per submitted request, "
                "submitter-parallel)\n");
    std::printf("shards\tpick_ns\n");
    for (int s : {2, 4, 8, 16}) {
        std::printf("%d\t%.1f\n", s, front_pick_ns(s));
        std::fflush(stdout);
    }

    // -- 2: per-shard dispatch, isolated timing ------------------------
    std::printf("## runtime dispatch hot path, %d workers split S ways "
                "(isolated per-shard timing: 1-CPU container, shards "
                "own a core each in deployment)\n",
                kWorkers);
    std::printf(
        "shards\tper_shard_ns\tper_shard_mrps\tagg_mrps\tscaling\n");
    double base_agg = 0;
    for (int s : {1, 2, 4}) {
        // Even splits of 16 make every span identical; time shard 0
        // and every sibling runs the same instruction path.
        const double ns = shard_dispatch_ns(shard_span(kWorkers, s, 0));
        const double per_mrps = 1e3 / ns;
        const double agg = per_mrps * s;
        if (s == 1)
            base_agg = agg;
        std::printf("%d\t%.1f\t%.2f\t%.2f\t%.2fx\n", s, ns, per_mrps,
                    agg, agg / base_agg);
        std::fflush(stdout);
    }

    // -- 3: simulated cluster capacity at the dispatch ceiling ---------
    std::printf("## sim capacity: 64 cores, 0.5us jobs, p999 slowdown "
                "<= 10 (sharded model: front_tier_cost + per-shard "
                "dispatch_cost)\n");
    FixedDist dist(us(0.5));
    const std::vector<int> shard_counts = {1, 2, 4};
    std::vector<double> caps(shard_counts.size());
    parallel_run(shard_counts.size(), bench::sweep_threads(argc, argv),
                 [&](size_t i) {
                     TwoLevelConfig cfg;
                     cfg.num_cores = 64;
                     cfg.num_dispatchers = shard_counts[i];
                     cfg.quantum = us(2);
                     cfg.duration = bench::sim_duration();
                     cfg.arrival = arrival;
                     cfg.stop_when_saturated = true; // SLO probes only
                     caps[i] = max_rate_under_slo(
                         [&](double rate) {
                             return run_two_level(cfg, dist, rate);
                         },
                         // Search up to the 128 Mrps worker-capacity
                         // line: past ~2 shards the dispatch tier is no
                         // longer what binds.
                         slowdown_slo(10), mrps(2), mrps(130), 9);
                 });
    std::printf("dispatchers\tmax_Mrps\tscaling\n");
    for (size_t i = 0; i < shard_counts.size(); ++i)
        std::printf("%d\t%.1f\t%.2fx\n", shard_counts[i],
                    to_mrps(caps[i]), caps[i] / caps[0]);
    std::fflush(stdout);

    // -- 4: tail parity far from the ceiling ---------------------------
    std::printf("## sim tail parity at low load: 16 cores, exp 1us "
                "jobs, 2 Mrps (sharding must not cost the tail)\n");
    ExponentialDist exp_dist(us(1));
    std::printf("dispatchers\tmean_slowdown\tp999_slowdown\n");
    for (int s : {1, 2, 4}) {
        TwoLevelConfig cfg;
        cfg.num_cores = 16;
        cfg.num_dispatchers = s;
        cfg.duration = bench::sim_duration();
        cfg.arrival = arrival;
        const SimResult r = run_two_level(cfg, exp_dist, mrps(2));
        std::printf("%d\t%.3f\t%.2f\n", s, r.overall_mean_slowdown,
                    r.overall_p999_slowdown);
        std::fflush(stdout);
    }
    return 0;
}
