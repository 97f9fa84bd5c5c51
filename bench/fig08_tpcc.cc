/**
 * @file
 * Paper Figure 8: TPC-C (multi-modal OLTP mix, Table 1) under TQ,
 * Shinjuku (10us quantum per section 5.1) and Caladan — 99.9% sojourn
 * of the shortest (Payment) and longest (StockLevel) transaction types,
 * plus the overall 99.9% slowdown the paper reports to calibrate the
 * multi-modal durations.
 *
 * Expected shape: TQ carries the highest load; Shinjuku keeps short
 * transactions low until its preemption overhead bites; Caladan's FCFS
 * hurts Payment behind StockLevel.
 */
#include <cstdio>

#include "system_compare.h"

using namespace tq;
using namespace tq::sim;

int
main()
{
    bench::SystemOptions opts;
    // Per-class TQ column (TQPC, DESIGN.md §4i): one slice for the two
    // short transaction types, a mid quantum for NewOrder, fine slicing
    // for the two long types so Payment sees less in-service blocking.
    opts.tq_class_quantum = {us(6), us(6), us(5), us(1), us(1)};
    bench::banner("Figure 8",
                  "TPC-C: per-type 99.9% sojourn (us) and overall 99.9% "
                  "slowdown; Shinjuku quantum 10us");
    std::printf("# TQPC class quanta Payment 6us, OrderStatus 6us, "
                "NewOrder 5us, Delivery 1us, StockLevel 1us\n");
    auto dist = workload_table::tpcc();
    const auto rates = rate_grid(mrps(0.1), mrps(0.8), 8);
    // The slowdown table below reuses the same rows (this bench used to
    // re-run all three systems a second time for it).
    const auto rows =
        bench::compare_systems(*dist, rates, 10.0,
                               {"Payment", "StockLevel"}, opts);

    std::printf("## overall 99.9%% slowdown\nrate_mrps\tTQ\tTQPC\t"
                "Shinjuku\tCaladan\n");
    for (size_t i = 0; i < rates.size(); ++i) {
        auto fmt = [](const SimResult &r) {
            return r.saturated ? std::string("sat")
                               : bench::cell(r.overall_p999_slowdown);
        };
        std::printf("%.2f\t%s\t%s\t%s\t%s\n", to_mrps(rates[i]),
                    fmt(rows[i].tq).c_str(), fmt(rows[i].tq_pc).c_str(),
                    fmt(rows[i].shinjuku).c_str(),
                    fmt(rows[i].caladan_io).c_str());
        std::fflush(stdout);
    }
    return 0;
}
