/**
 * @file
 * Paper Figure 9: the Exp(1) workload (exponential service times, mean
 * 1us) under TQ, Shinjuku (10us quantum) and Caladan — 99.9% sojourn vs
 * rate.
 *
 * Expected shape: with a light-tailed distribution preemption matters
 * less; the systems differ mainly in mechanism overhead and dispatcher
 * scalability, so TQ and Caladan-directpath reach high rates while
 * Shinjuku's centralized dispatcher saturates first.
 */
#include <cstdio>

#include "system_compare.h"

using namespace tq;
using namespace tq::sim;

int
main()
{
    bench::banner("Figure 9",
                  "Exp(1): 99.9% sojourn (us) vs rate; Shinjuku quantum "
                  "10us");
    auto dist = workload_table::exp1();
    bench::compare_systems(*dist, rate_grid(mrps(1), mrps(14), 9), 10.0,
                           {"exp"});
    return 0;
}
