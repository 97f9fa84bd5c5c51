/**
 * @file
 * Paper Figure 1: 99.9% slowdown of the Extreme Bimodal workload under
 * centralized processor sharing with *zero* preemption overhead, for
 * quantum sizes 0.5/1/2/5/10 us across offered loads.
 *
 * Expected shape: smaller quanta give lower tail slowdown at every load;
 * 5-10us quanta cross the slowdown-10 line at much lower rates.
 */
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/dist.h"
#include "sim/central.h"
#include "sim/sweep.h"

using namespace tq;
using namespace tq::sim;

int
main()
{
    bench::banner("Figure 1",
                  "99.9% slowdown vs load, centralized PS, zero overhead, "
                  "Extreme Bimodal, 16 cores");
    auto dist = workload_table::extreme_bimodal();
    const std::vector<double> quanta_us = {0.5, 1, 2, 5, 10};
    const auto rates = rate_grid(mrps(0.5), mrps(4.75), 9);

    // Row-major (rate, quantum) grid of independent runs.
    struct Cell
    {
        CentralConfig cfg;
        double rate;
    };
    std::vector<Cell> cells;
    for (double rate : rates) {
        for (double q : quanta_us) {
            Cell c;
            c.cfg.quantum = us(q);
            c.cfg.overheads = Overheads::ideal();
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
                         run_central(cells[i].cfg, *dist, cells[i].rate);
                 });

    std::printf("rate_mrps");
    for (double q : quanta_us)
        std::printf("\tq%.1fus", q);
    std::printf("\n");

    size_t i = 0;
    for (double rate : rates) {
        std::printf("%.2f", to_mrps(rate));
        for (size_t q = 0; q < quanta_us.size(); ++q) {
            const SimResult &r = results[i++];
            std::printf("\t%s",
                        r.saturated
                            ? "sat"
                            : bench::cell(r.overall_p999_slowdown).c_str());
        }
        std::printf("\n");
        std::fflush(stdout);
    }
    return 0;
}
