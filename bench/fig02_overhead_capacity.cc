/**
 * @file
 * Paper Figure 2: maximum request rate sustaining 99.9% slowdown <= 10,
 * vs quantum size, for preemption overheads of 0, 0.1 and 1 us
 * (centralized PS, Extreme Bimodal, 16 cores).
 *
 * Expected shape: at zero overhead smaller quanta always help (~40%
 * more capacity at 0.5us than 5us); at 0.1us overhead the gain shrinks
 * and sub-1us quanta lose capacity; at 1us overhead anything below ~3us
 * reduces capacity.
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
    bench::banner("Figure 2",
                  "max rate with 99.9% slowdown <= 10 vs quantum, for "
                  "preemption overheads {0, 0.1us, 1us}");
    auto dist = workload_table::extreme_bimodal();
    const std::vector<double> quanta_us = {0.5, 1, 2, 3, 5, 10};
    const std::vector<double> overheads_us = {0.0, 0.1, 1.0};

    // Each (quantum, overhead) capacity search is independent; the
    // bisection itself is inherently serial, so parallelism comes from
    // running the 18 searches concurrently.
    struct Task
    {
        CentralConfig cfg;
    };
    std::vector<Task> tasks;
    for (double q : quanta_us) {
        for (double o : overheads_us) {
            Task t;
            t.cfg.quantum = us(q);
            t.cfg.overheads = Overheads::ideal();
            t.cfg.overheads.switch_overhead = us(o);
            t.cfg.duration = bench::sim_duration();
            t.cfg.stop_when_saturated = true; // SLO probes only
            tasks.push_back(t);
        }
    }
    std::vector<double> caps(tasks.size());
    parallel_run(tasks.size(), bench::host_threads(),
                 [&](size_t i) {
                     caps[i] = max_rate_under_slo(
                         [&](double rate) {
                             return run_central(tasks[i].cfg, *dist, rate);
                         },
                         slowdown_slo(10), mrps(0.25), mrps(6.5), 9);
                 });

    std::printf("quantum_us");
    for (double o : overheads_us)
        std::printf("\tov%.1fus_Mrps", o);
    std::printf("\n");

    size_t i = 0;
    for (double q : quanta_us) {
        std::printf("%.1f", q);
        for (size_t o = 0; o < overheads_us.size(); ++o)
            std::printf("\t%.2f", to_mrps(caps[i++]));
        std::printf("\n");
        std::fflush(stdout);
    }
    return 0;
}
