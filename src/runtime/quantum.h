/**
 * @file
 * The per-class quantum table shared between the dispatcher-tier
 * controller and the worker schedulers (DESIGN.md §4i).
 *
 * `RuntimeConfig::class_quantum_us` keys quanta by `Request::job_class`.
 * The resolved cycle budgets live in one ClassQuantumTable owned by the
 * Runtime: the adaptive controller (runtime/quantum_controller.h) is the
 * only writer after construction, and each worker loads exactly one
 * entry per admitted job — the *resolution point* is admission, so a
 * controller update applies to jobs admitted after the store, never to
 * a job mid-service (its Task carries the budget it was admitted with).
 *
 * Layout note: the eight entries share cache lines deliberately. The
 * writer ticks at snapshot rate (hertz), the readers load once per
 * admission; there is no per-quantum or per-probe access, so sharing
 * costs nothing and keeps the table a single line in the common case
 * (docs/cache_line_analysis.md covers the contrast with the per-quantum
 * WorkerStatsLine traffic).
 */
#ifndef TQ_RUNTIME_QUANTUM_H
#define TQ_RUNTIME_QUANTUM_H

#include <atomic>

#include "common/cycles.h"
#include "common/sched_core.h"

namespace tq::runtime {

/** Atomic per-class quantum cycle budgets, one per scheduler ledger
 *  slot (sched::kMaxClasses; `job_class` values at or beyond it share
 *  the last slot). Single writer after construction: the adaptive
 *  controller; readers: workers, one relaxed load per admission. */
class ClassQuantumTable
{
  public:
    /** Every slot starts at @p default_cycles (the fixed quantum; on the
     *  fixed path the workers only ever read slot 0). */
    explicit ClassQuantumTable(Cycles default_cycles)
    {
        for (auto &c : cycles_)
            c.store(default_cycles, std::memory_order_relaxed);
    }

    /** The quantum budget for @p slot (relaxed; admission-time load). */
    Cycles
    load(int slot) const
    {
        return cycles_[static_cast<size_t>(slot)].load(
            std::memory_order_relaxed);
    }

    /** Install a new budget for @p slot (controller only). */
    void
    store(int slot, Cycles cycles)
    {
        cycles_[static_cast<size_t>(slot)].store(cycles,
                                                 std::memory_order_relaxed);
    }

  private:
    std::atomic<Cycles> cycles_[sched::kMaxClasses];
};

} // namespace tq::runtime

#endif // TQ_RUNTIME_QUANTUM_H
