/**
 * @file
 * Paper Figure 10: the RocksDB-style KV workload (GET 1.2us / SCAN
 * 675us; Table 1) at 0.5% and 50% SCAN ratios, under TQ, Shinjuku (15us
 * quantum per section 5.1) and Caladan — 99.9% sojourn of GETs and
 * SCANs vs rate.
 *
 * Expected shape: with 0.5% SCANs the workload resembles Extreme
 * Bimodal (TQ wins on GET tail and capacity); with 50% SCANs the system
 * is dominated by long jobs and the gap narrows.
 */
#include <cstdio>

#include "system_compare.h"

using namespace tq;
using namespace tq::sim;

int
main()
{
    bench::banner("Figure 10",
                  "RocksDB GET/SCAN mixes: 99.9% sojourn (us); Shinjuku "
                  "quantum 15us");
    {
        std::printf("## 0.5%% SCAN\n");
        auto dist = workload_table::rocksdb(0.005);
        bench::compare_systems(*dist, rate_grid(mrps(0.4), mrps(3.3), 8),
                               15.0, {"GET", "SCAN"});
    }
    {
        std::printf("## 50%% SCAN\n");
        auto dist = workload_table::rocksdb(0.5);
        bench::compare_systems(*dist,
                               rate_grid(mrps(0.005), mrps(0.045), 8),
                               15.0, {"GET", "SCAN"});
    }
    return 0;
}
