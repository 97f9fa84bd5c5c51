/**
 * @file
 * Shared three-system comparison harness for paper Figures 7-10: TQ
 * (two-level model, calibrated overheads), Shinjuku (centralized model:
 * 1us interrupts, ~5Mops serial dispatcher, workload-specific quantum
 * per paper section 5.1) and Caladan (FCFS + stealing, better of
 * IOKernel and directpath modes, per section 5.1).
 */
#ifndef TQ_BENCH_SYSTEM_COMPARE_H
#define TQ_BENCH_SYSTEM_COMPARE_H

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/dist.h"
#include "common/sched_core.h"
#include "sim/caladan.h"
#include "sim/central.h"
#include "sim/sweep.h"
#include "sim/two_level.h"

namespace tq::bench {

/**
 * Optional axes of the three-system comparison. Defaults reproduce the
 * historical harness byte for byte: no per-class TQ variant.
 */
struct SystemOptions
{
    /**
     * When non-empty, an extra TQ variant with per-class quanta
     * (TwoLevelConfig::class_quantum, one entry per workload class, ns)
     * plus the default deficit clamp and starvation guard runs
     * alongside the fixed-quantum TQ and prints as `TQPC_<class>`
     * columns (DESIGN.md §4i).
     */
    std::vector<SimNanos> tq_class_quantum;
};

/** The simulations behind one comparison row. */
struct SystemRow
{
    sim::SimResult tq;
    sim::SimResult tq_pc; ///< per-class TQ; only run when
                          ///< SystemOptions::tq_class_quantum is set
    sim::SimResult shinjuku;
    sim::SimResult caladan_io;
    sim::SimResult caladan_dp;

    /** Caladan cell: the better of IOKernel and directpath modes per
     *  workload point (paper section 5.1). */
    const sim::SimResult &
    caladan() const
    {
        const bool dp_better =
            caladan_io.saturated ||
            (!caladan_dp.saturated &&
             caladan_dp.overall_p999_slowdown <
                 caladan_io.overall_p999_slowdown);
        return dp_better ? caladan_dp : caladan_io;
    }
};

/**
 * Run the three systems at each rate, spreading the independent
 * (rate, system) simulations over the host's hardware threads. Rows
 * come back in rate order; a figure can print several tables from one
 * pass instead of re-running the grid per table.
 */
inline std::vector<SystemRow>
run_systems(const ServiceDist &dist, const std::vector<double> &rates,
            double shinjuku_quantum_us, const SystemOptions &opts = {})
{
    using namespace tq::sim;

    std::vector<SystemRow> rows(rates.size());
    // Tables render "sat" for saturated cells and the best-of-Caladan
    // pick only compares saturation flags and non-saturated slowdowns,
    // so overloaded runs can stop at the saturation verdict. Five slots
    // per rate; the per-class TQ slot is a no-op unless requested.
    parallel_run(rates.size() * 5, host_threads(), [&](size_t i) {
        const double rate = rates[i / 5];
        SystemRow &row = rows[i / 5];
        switch (i % 5) {
          case 0: {
            TwoLevelConfig cfg;
            cfg.quantum = us(2);
            cfg.overheads = Overheads::tq_default();
            cfg.duration = sim_duration();
            cfg.stop_when_saturated = true;
            row.tq = run_two_level(cfg, dist, rate);
            break;
          }
          case 1: {
            if (opts.tq_class_quantum.empty())
                break;
            TwoLevelConfig cfg;
            cfg.quantum = us(2);
            cfg.overheads = Overheads::tq_default();
            cfg.duration = sim_duration();
            cfg.stop_when_saturated = true;
            cfg.class_quantum = opts.tq_class_quantum;
            cfg.deficit_clamp = us(sched::kDefaultDeficitClampUs);
            cfg.starvation_promote_after =
                sched::kDefaultStarvationPromoteAfter;
            row.tq_pc = run_two_level(cfg, dist, rate);
            break;
          }
          case 2: {
            CentralConfig cfg;
            cfg.quantum = us(shinjuku_quantum_us);
            cfg.overheads = Overheads::shinjuku_default();
            cfg.duration = sim_duration();
            cfg.stop_when_saturated = true;
            row.shinjuku = run_central(cfg, dist, rate);
            break;
          }
          case 3:
          case 4: {
            CaladanConfig cfg;
            cfg.duration = sim_duration();
            cfg.directpath = i % 5 == 4;
            cfg.stop_when_saturated = true;
            (cfg.directpath ? row.caladan_dp : row.caladan_io) =
                run_caladan(cfg, dist, rate);
            break;
          }
        }
    });
    return rows;
}

/** Print the standard per-class latency table for @p rows. When the
 *  per-class TQ variant ran, a TQPC column per class follows the TQ
 *  one. */
inline void
print_system_rows(const std::vector<SystemRow> &rows,
                  const std::vector<double> &rates,
                  const std::vector<std::string> &classes,
                  bool with_tq_pc = false)
{
    std::printf("rate_mrps");
    for (const auto &c : classes) {
        std::printf("\tTQ_%s", c.c_str());
        if (with_tq_pc)
            std::printf("\tTQPC_%s", c.c_str());
        std::printf("\tShinjuku_%s\tCaladan_%s", c.c_str(), c.c_str());
    }
    std::printf("\n");

    for (size_t i = 0; i < rows.size(); ++i) {
        std::printf("%.2f", to_mrps(rates[i]));
        for (const auto &c : classes) {
            auto fmt = [&](const sim::SimResult &r) {
                return cell_us(r.saturated, r.by_class(c).p999_sojourn);
            };
            std::printf("\t%s", fmt(rows[i].tq).c_str());
            if (with_tq_pc)
                std::printf("\t%s", fmt(rows[i].tq_pc).c_str());
            std::printf("\t%s\t%s", fmt(rows[i].shinjuku).c_str(),
                        fmt(rows[i].caladan()).c_str());
        }
        std::printf("\n");
        std::fflush(stdout);
    }
}

/** One three-system latency row per offered rate. @return the rows so
 *  callers can derive further tables without re-running. */
inline std::vector<SystemRow>
compare_systems(const ServiceDist &dist,
                const std::vector<double> &rates,
                double shinjuku_quantum_us,
                const std::vector<std::string> &classes,
                const SystemOptions &opts = {})
{
    auto rows = run_systems(dist, rates, shinjuku_quantum_us, opts);
    print_system_rows(rows, rates, classes,
                      !opts.tq_class_quantum.empty());
    return rows;
}

} // namespace tq::bench

#endif // TQ_BENCH_SYSTEM_COMPARE_H
