/**
 * @file
 * Paper Figure 7: TQ vs Shinjuku vs Caladan on the Extreme Bimodal and
 * High Bimodal workloads — 99.9% sojourn of short and long jobs vs
 * offered rate.
 *
 * Expected shape: Caladan's FCFS blows up short-job latency early
 * (head-of-line blocking) but carries long jobs well; Shinjuku preempts
 * but pays interrupt + centralized-dispatcher costs and saturates
 * earlier; TQ sustains the highest rate with low short-job latency
 * (paper: 2.6x Shinjuku / 2.1x Caladan on Extreme Bimodal shorts).
 */
#include <cstdio>

#include "system_compare.h"

using namespace tq;
using namespace tq::sim;

int
main()
{
    bench::SystemOptions opts;
    // Per-class TQ column (TQPC, DESIGN.md §4i): shorts get a quantum
    // covering their whole demand (one slice, no processor-sharing
    // requeues), longs are sliced finer than the 2us fixed quantum so
    // in-service blocking of shorts shrinks.
    opts.tq_class_quantum = {us(2), us(0.5)};
    bench::banner("Figure 7",
                  "TQ vs Shinjuku vs Caladan, bimodal workloads, 99.9% "
                  "sojourn (us)");
    std::printf("# TQPC class quanta Short 2us, Long 0.5us\n");
    {
        std::printf("## Extreme Bimodal (99.5%% x 0.5us, 0.5%% x 500us); "
                    "Shinjuku quantum 5us\n");
        auto dist = workload_table::extreme_bimodal();
        bench::compare_systems(*dist, rate_grid(mrps(0.5), mrps(4.75), 9),
                               5.0, {"Short", "Long"}, opts);
    }
    {
        std::printf("## High Bimodal (50%% x 1us, 50%% x 100us); Shinjuku "
                    "quantum 5us\n");
        auto dist = workload_table::high_bimodal();
        bench::compare_systems(*dist, rate_grid(mrps(0.04), mrps(0.30), 9),
                               5.0, {"Short", "Long"}, opts);
    }
    return 0;
}
