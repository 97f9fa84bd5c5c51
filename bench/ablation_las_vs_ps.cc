/**
 * @file
 * Ablation: per-core scheduling policy under two-level dispatch — PS
 * (TQ's default, provably tail-optimal for heavy tails) vs LAS
 * (least-attained-service, the dynamic-quantum policy the paper's probe
 * design explicitly enables, section 3.1) vs FCFS.
 *
 * Expected shape on Extreme Bimodal: LAS gives short jobs the best tail
 * of all (they always have least attained service); PS close behind;
 * FCFS collapses early. For long jobs LAS is the harshest (they always
 * lose ties), FCFS the kindest.
 */
#include <cstdio>

#include "bench_util.h"
#include "common/dist.h"
#include "sim/sweep.h"
#include "sim/two_level.h"

using namespace tq;
using namespace tq::sim;

int
main()
{
    bench::banner("Ablation",
                  "core policy: PS vs LAS vs FCFS, Extreme Bimodal, 99.9% "
                  "sojourn (us)");
    auto dist = workload_table::extreme_bimodal();
    const auto rates = rate_grid(mrps(0.5), mrps(4.5), 9);

    const CorePolicy policies[] = {CorePolicy::ProcessorSharing,
                                   CorePolicy::Las, CorePolicy::Fcfs};

    // One run per (rate, policy) cell feeds both class tables (this
    // bench used to re-run every simulation once per printed class).
    struct Cell
    {
        TwoLevelConfig cfg;
        double rate;
    };
    std::vector<Cell> cells;
    for (double rate : rates) {
        for (CorePolicy p : policies) {
            Cell c;
            c.cfg.core_policy = p;
            c.cfg.duration = bench::sim_duration();
            c.cfg.stop_when_saturated = true; // cells only print "sat"
            c.rate = rate;
            cells.push_back(c);
        }
    }
    std::vector<SimResult> results(cells.size());
    parallel_run(cells.size(), bench::host_threads(),
                 [&](size_t i) {
                     results[i] =
                         run_two_level(cells[i].cfg, *dist, cells[i].rate);
                 });

    for (const char *cls : {"Short", "Long"}) {
        std::printf("## %s jobs\nrate_mrps\tPS\tLAS\tFCFS\n", cls);
        size_t i = 0;
        for (double rate : rates) {
            std::printf("%.2f", to_mrps(rate));
            for (int p = 0; p < 3; ++p) {
                const SimResult &r = results[i++];
                std::printf("\t%s",
                            bench::cell_us(r.saturated,
                                           r.by_class(cls).p999_sojourn)
                                .c_str());
            }
            std::printf("\n");
            std::fflush(stdout);
        }
    }
    return 0;
}
