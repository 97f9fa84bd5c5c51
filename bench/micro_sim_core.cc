/**
 * @file
 * Wall-clock benchmark for the simulator's event core
 * (sim/event_core.h) and the parallel sweep executor (sim/sweep.h): the
 * Figure 5/6 grid (5 quanta x 9 rates, two-level engine, Extreme
 * Bimodal) timed serially and with the thread-pool backend
 * (--sweep-threads=N, default 8). On a single-core host the parallel
 * time approximately equals the serial time. The event queue's ordering
 * oracle is `EventQueue.*` in tests/sim_test.cc.
 *
 * `--json` emits a machine-readable document (recorded as
 * BENCH_sim.json, rendered by tools/plot_bench.py); the default output
 * is a TSV table.
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <vector>

#include "bench_util.h"
#include "common/dist.h"
#include "sim/sweep.h"
#include "sim/two_level.h"

using namespace tq;
using namespace tq::sim;

namespace {

double
now_sec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The Figure 5/6 grid as one timed unit. */
double
time_fig_grid(const ServiceDist &dist, int threads)
{
    const std::vector<double> quanta_us = {0.5, 1, 2, 5, 10};
    const auto rates = rate_grid(mrps(0.5), mrps(4.75), 9);
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
            c.cfg.stop_when_saturated = true;
            c.rate = rate;
            cells.push_back(c);
        }
    }
    std::vector<SimResult> results(cells.size());
    const double start = now_sec();
    parallel_run(cells.size(), threads, [&](size_t i) {
        results[i] = run_two_level(cells[i].cfg, dist, cells[i].rate);
    });
    return now_sec() - start;
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--json") == 0)
            json = true;
    int threads = bench::sweep_threads(argc, argv);
    if (threads <= 1)
        threads = 8; // the comparison needs a parallel arm

    auto dist = workload_table::extreme_bimodal();
    const double serial_sec = time_fig_grid(*dist, 1);
    const double parallel_sec = time_fig_grid(*dist, threads);

    if (json) {
        char date[32];
        const std::time_t t = std::time(nullptr);
        std::strftime(date, sizeof(date), "%Y-%m-%d", std::localtime(&t));
        std::printf("{\n");
        std::printf("  \"description\": \"Simulator event-core benchmark: "
                    "the Figure 5/6 grid wall-clock serial vs "
                    "--sweep-threads=%d.\",\n",
                    threads);
        std::printf("  \"date\": \"%s\",\n", date);
        std::printf("  \"config\": { \"window_ms\": %.0f, "
                    "\"sweep_threads\": %d },\n",
                    to_sec(bench::sim_duration()) * 1e3, threads);
        std::printf("  \"fig_grid_wall_clock\": { \"serial_sec\": %.2f, "
                    "\"threads_sec\": %.2f, \"speedup\": %.2f }\n",
                    serial_sec, parallel_sec, serial_sec / parallel_sec);
        std::printf("}\n");
        return 0;
    }

    bench::banner("micro_sim_core",
                  "figure-grid wall clock (serial vs threads)");
    std::printf("## fig05_06 grid wall clock\nmode\tseconds\n");
    std::printf("serial\t%.2f\nthreads%d\t%.2f\nspeedup\t%.2f\n", serial_sec,
                threads, parallel_sec, serial_sec / parallel_sec);
    return 0;
}
