/**
 * @file
 * Probe instrumentation passes.
 *
 * Three techniques from the paper's evaluation (sections 3.1, 5.6):
 *
 *  - TqPass: the paper's contribution. Physical-clock probes placed
 *    sparsely, bounding the longest uninstrumented execution path; loops
 *    get a guard gadget that invokes the probe every K iterations, with
 *    the induction-variable and self-loop-cloning optimizations.
 *  - CiPass: the instruction-counter state of the art ("Compiler
 *    Interrupt"). A counter-maintaining probe in (almost) every basic
 *    block; yields when the counter crosses a cycle-translated threshold.
 *  - CiCyclesPass: CI placement, but a crossing of the counter threshold
 *    gates a physical-clock check (the hybrid variant of Table 3).
 *
 * Placement distances are measured in *instructions* (paper section 3.1:
 * TQ bounds "the maximum number of instructions of any execution paths
 * between two probes"); yield timing is always decided at run time by the
 * technique's own mechanism.
 */
#ifndef TQ_COMPILER_PASSES_H
#define TQ_COMPILER_PASSES_H

#include <vector>

#include "compiler/cfg.h"
#include "compiler/ir.h"

namespace tq::compiler {

/** Instruction-equivalent cost charged for a call to an uninstrumented
 *  (external) function (paper section 3.1). */
inline constexpr int kExtCallInstrs = 25;

/** Tuning knobs shared by the passes. */
struct PassConfig
{
    /**
     * TQ: maximum number of real instructions on any execution path
     * between consecutive probe firings (up to loop-guard rounding).
     * Smaller bounds support smaller minimum quanta at the price of more
     * probes.
     */
    int bound = 400;

    /** CI: merge the probes of single-entry single-exit straight-line
     *  chains into one probe (the SESE-style optimization of [8, 10]). */
    bool ci_merge_chains = true;

    /**
     * TQ: skip instrumenting a loop whose statically-known total work
     * (trip count x longest body path) stays below this many
     * instructions; the loop is then treated as straight-line cost.
     */
    int static_skip_limit() const { return bound; }
};

/**
 * Per-function instrumentation facts used at call sites, computed after a
 * function is instrumented (callees are processed before callers).
 */
struct FunctionSummary
{
    bool has_probes = false;
    /** Max instructions from entry until the first possible probe firing
     *  (whole longest path when the function has no probes). */
    int entry_gap = 0;
    /** Max instructions after the last probe firing until return. */
    int exit_gap = 0;
};

/** Instrument every function of @p m with TQ physical-clock probes. */
std::vector<FunctionSummary> run_tq_pass(Module &m, const PassConfig &cfg);

/** Instrument with instruction-counter (CI) probes. */
void run_ci_pass(Module &m, const PassConfig &cfg);

/** Instrument with the CI-Cycles hybrid (CI placement, clock-gated). */
void run_ci_cycles_pass(Module &m, const PassConfig &cfg);

/**
 * Placement-time projection: longest-stretch facts of one function with
 * back edges removed, i.e. a *per-iteration* view. Loops contribute a
 * single iteration and guard probes count as unconditional resets, so
 * max_gap is what the pass itself budgets against when placing probes —
 * it is NOT the worst case a run can observe, because a period-K guard
 * lets up to K-1 iterations pass silently and callees compound across
 * frames. The proof of the end-to-end, cross-iteration, interprocedural
 * bound is verifier.h's verify_module(); use that (not these facts) when
 * asserting the placement invariant.
 */
struct StretchFacts
{
    bool has_probes = false;
    int entry_gap = 0;     ///< longest instr path from entry to 1st probe
    int max_gap = 0;       ///< longest probe-free stretch anywhere
    int exit_gap = 0;      ///< longest instr path from last probe to ret
    int longest_path = 0;  ///< longest instr path entry -> ret (no resets)
};

/**
 * Analyze probe-free stretches of @p fn.
 * @param summaries instrumentation facts of callees, indexed by
 *     function; a call to a function with no entry (every call when
 *     empty) is charged like an external call, 1 + kExtCallInstrs
 *     instructions.
 */
StretchFacts analyze_stretch(const Function &fn,
                             const std::vector<FunctionSummary> &summaries);

} // namespace tq::compiler

#endif // TQ_COMPILER_PASSES_H
