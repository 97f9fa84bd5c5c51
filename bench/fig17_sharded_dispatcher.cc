/**
 * @file
 * Sharded-dispatcher scalability in the simulator (DESIGN.md §4g, paper
 * section 6): aggregate dispatch capacity past the single-core
 * dispatcher ceiling. Paper context: one TQ dispatcher core sustains
 * ~14 Mrps of per-job load balancing; section 6 proposes scaling out
 * with multiple load-balancing dispatchers. The two-level simulator
 * models that — S dispatcher shards over disjoint worker subsets behind
 * a front-tier rotated JSQ — and this bench measures it in three parts
 * (the runtime itself has one dispatcher and no sharded tier):
 *
 *  1. front-tier pick: ns per pick_min_rotated() over S padded load
 *     lines, the sim front tier's pick timed on real lines (the cost
 *     each request would pay at submit; submitters are parallel, so
 *     this is latency, not a serial resource);
 *  2. simulated cluster capacity: max sustainable Mrps of a 64-core /
 *     0.5us-job cluster under a p999 slowdown SLO at 1/2/4 dispatcher
 *     shards (the fig16-style sweep through the two-level model's
 *     sharded path: front_tier_cost + per-shard serial dispatchers);
 *  3. tail parity at low load — far from the dispatch ceiling,
 *     sharding must not cost the tail.
 */
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/cycles.h"
#include "common/dist.h"
#include "common/shard.h"
#include "conc/cacheline.h"
#include "sim/sweep.h"
#include "sim/two_level.h"

using namespace tq;

namespace {

// ------------------------------------------------------------ front --

/**
 * ns per front-tier pick: S load-line reads (each shard's load alone on
 * a padded line) + the rotated min scan. One line's load is bumped
 * every 64 picks so the scan sees changing values instead of a fully
 * predicted all-ties pattern.
 */
double
front_pick_ns(int shards)
{
    std::vector<PaddedAtomic<uint32_t>> lines(static_cast<size_t>(shards));
    std::vector<uint32_t> loads(static_cast<size_t>(shards));
    for (int s = 0; s < shards; ++s)
        lines[static_cast<size_t>(s)].value.store(
            static_cast<uint32_t>(s), std::memory_order_relaxed);
    constexpr int kPicks = 4'000'000;
    uint64_t sink = 0;
    const Cycles t0 = rdcycles();
    for (int i = 0; i < kPicks; ++i) {
        for (int s = 0; s < shards; ++s)
            loads[static_cast<size_t>(s)] =
                lines[static_cast<size_t>(s)].value.load(
                    std::memory_order_relaxed);
        const int pick = pick_min_rotated(
            loads.data(), static_cast<size_t>(shards),
            static_cast<uint64_t>(i));
        sink += static_cast<uint64_t>(pick);
        if ((i & 63) == 0)
            lines[static_cast<size_t>(pick)].value.fetch_add(
                1, std::memory_order_relaxed);
    }
    const double ns = cycles_to_ns(rdcycles() - t0) / kPicks;
    if (sink == 0) // keep the picks observable
        std::printf("# sink\n");
    return ns;
}

} // namespace

int
main()
{
    using namespace tq::sim;
    bench::banner("Figure 17",
                  "sharded dispatchers behind a front-tier JSQ: "
                  "aggregate dispatch scaling (DESIGN.md §4g)");
    cycles_per_ns(); // warm the clock calibration

    // -- 1: the submit-side steering pick ------------------------------
    std::printf("## front-tier pick (per submitted request, "
                "submitter-parallel)\n");
    std::printf("shards\tpick_ns\n");
    for (int s : {2, 4, 8, 16}) {
        std::printf("%d\t%.1f\n", s, front_pick_ns(s));
        std::fflush(stdout);
    }

    // -- 2: simulated cluster capacity at the dispatch ceiling ---------
    std::printf("## sim capacity: 64 cores, 0.5us jobs, p999 slowdown "
                "<= 10 (sharded model: front_tier_cost + per-shard "
                "dispatch_cost)\n");
    FixedDist dist(us(0.5));
    const std::vector<int> shard_counts = {1, 2, 4};
    std::vector<double> caps(shard_counts.size());
    parallel_run(shard_counts.size(), bench::host_threads(),
                 [&](size_t i) {
                     TwoLevelConfig cfg;
                     cfg.num_cores = 64;
                     cfg.num_dispatchers = shard_counts[i];
                     cfg.quantum = us(2);
                     cfg.duration = bench::sim_duration();
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

    // -- 3: tail parity far from the ceiling ---------------------------
    std::printf("## sim tail parity at low load: 16 cores, exp 1us "
                "jobs, 2 Mrps (sharding must not cost the tail)\n");
    ExponentialDist exp_dist(us(1));
    std::printf("dispatchers\tmean_slowdown\tp999_slowdown\n");
    for (int s : {1, 2, 4}) {
        TwoLevelConfig cfg;
        cfg.num_cores = 16;
        cfg.num_dispatchers = s;
        cfg.duration = bench::sim_duration();
        const SimResult r = run_two_level(cfg, exp_dist, mrps(2));
        std::printf("%d\t%.3f\t%.2f\n", s, r.overall_mean_slowdown,
                    r.overall_p999_slowdown);
        std::fflush(stdout);
    }
    return 0;
}
