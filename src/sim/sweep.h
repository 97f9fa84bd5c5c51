/**
 * @file
 * Load-sweep helpers for the figure benchmarks.
 *
 * The paper's figures plot 99.9% latency/slowdown against offered load
 * and report "maximum load under an SLO" capacities (Figures 2, 5-12).
 * These helpers build rate grids, fan independent simulations out over
 * a thread pool (`parallel_run`) and binary-search the highest rate
 * that still meets an SLO.
 *
 * Sweep points are independent simulations. A bench writes point i's
 * result into slot i of a pre-sized vector, so serial and parallel runs
 * produce bitwise-identical results (see DESIGN.md section 4e for the
 * determinism contract and per-point seed derivation).
 */
#ifndef TQ_SIM_SWEEP_H
#define TQ_SIM_SWEEP_H

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/metrics.h"

namespace tq::sim {

/** Simulation functor: offered rate (req/ns) -> result. */
using RunFn = std::function<SimResult(double rate)>;

/** SLO predicate: true when the result meets the objective. */
using SloFn = std::function<bool(const SimResult &)>;

/** One point of a latency-vs-load curve. */
struct SweepPoint
{
    double rate = 0; ///< offered load, req/ns
    SimResult result;
};

/**
 * Run @p job(i) for every i in [0, n), spread over @p threads workers.
 *
 * Each point is one independent simulation, so the only requirement on
 * @p job is that concurrent calls do not share mutable state (build the
 * config/dist per call or treat them as read-only, as every bench here
 * does). Work is claimed dynamically (atomic counter), so uneven point costs —
 * saturated runs take longer than stable ones — still balance. With
 * threads <= 1 this is a plain loop on the calling thread. Joining the
 * pool orders every job's writes before the return (happens-before), so
 * results written into distinct pre-sized slots need no locks. A job
 * index is claimed by exactly one worker; out-of-range claims are
 * discarded. Fatal errors inside @p job abort the process as they do
 * serially.
 */
void parallel_run(size_t n, int threads,
                  const std::function<void(size_t)> &job);

/** Evenly spaced rate grid [lo, hi] with @p points entries, ascending. */
std::vector<double> rate_grid(double lo, double hi, int points);

/**
 * The @p index-th output of the splitmix64 stream seeded with @p base:
 * statistically independent 64-bit seeds for per-point generators.
 * splitmix64 is a bijection per step, so distinct indexes give distinct
 * seeds and the xoshiro256** states expanded from them do not collide
 * (sim_test checks pairwise distinctness as the practical
 * no-stream-overlap check).
 */
uint64_t derive_seed(uint64_t base, uint64_t index);

/**
 * Largest rate in [lo, hi] whose result satisfies @p slo, found by
 * bisection with @p iters refinement steps. Returns 0 when even `lo`
 * misses the objective.
 *
 * Every evaluated rate is memoized for the duration of the call, and
 * @p known (typically the surrounding sweep's grid points, e.g. when a
 * bench prints a latency table and then searches the same configuration
 * for capacity) pre-seeds the memo: if `lo`/`hi` appear in @p known the
 * endpoint runs are skipped and the search costs exactly `iters`
 * simulations instead of `iters + 2`.
 */
double max_rate_under_slo(const RunFn &fn, const SloFn &slo, double lo,
                          double hi, int iters = 12,
                          const std::vector<SweepPoint> *known = nullptr);

/** SLO: 99.9% slowdown across all classes stays at or below @p limit. */
SloFn slowdown_slo(double limit);

/** SLO: 99.9% sojourn of class @p name stays at or below @p limit_ns. */
SloFn class_sojourn_slo(std::string name, SimNanos limit_ns);

} // namespace tq::sim

#endif // TQ_SIM_SWEEP_H
