/**
 * @file
 * Paper Figures 5 and 6: TQ's 99.9% latency vs request rate for quantum
 * sizes 0.5-10 us on the Extreme Bimodal workload — short jobs (Fig. 5)
 * and long jobs (Fig. 6). Two-level model with TQ's calibrated
 * mechanism overheads.
 *
 * Expected shape: smaller quanta lower short-job latency; throughput is
 * essentially unchanged down to 2us quanta and still substantial at
 * 0.5us (forced multitasking is cheap enough).
 */
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/dist.h"
#include "sim/sweep.h"
#include "sim/two_level.h"

using namespace tq;
using namespace tq::sim;

int
main()
{
    bench::banner("Figures 5-6",
                  "TQ 99.9% sojourn (us) vs rate, quantum sweep, Extreme "
                  "Bimodal (short | long)");
    auto dist = workload_table::extreme_bimodal();
    const std::vector<double> quanta_us = {0.5, 1, 2, 5, 10};
    const auto rates = rate_grid(mrps(0.5), mrps(4.75), 9);

    // One run per (rate, quantum) cell feeds both class tables (this
    // bench used to re-run every simulation once per printed class).
    struct Cell
    {
        TwoLevelConfig cfg;
        double rate;
    };
    std::vector<Cell> cells;
    for (double rate : rates) {
        for (double q : quanta_us) {
            Cell c;
            c.cfg.quantum = us(q);
            c.cfg.overheads = Overheads::tq_default();
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
        std::printf("## %s jobs\nrate_mrps", cls);
        for (double q : quanta_us)
            std::printf("\tq%.1fus", q);
        std::printf("\n");
        size_t i = 0;
        for (double rate : rates) {
            std::printf("%.2f", to_mrps(rate));
            for (size_t q = 0; q < quanta_us.size(); ++q) {
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
