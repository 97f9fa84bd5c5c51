/**
 * @file
 * Verify-guided probe placement refinement (DESIGN.md section 4h).
 *
 * The TQ/CI placement passes (passes.h) are one-shot heuristics: they
 * over-place wherever the static skip estimate is conservative, so
 * instrumented modules carry probes the proof does not need. This pass
 * closes the loop with the static verifier: starting from a placement
 * whose bound verify_module already proves, it greedily deletes and
 * hoists probes, re-proving the target bound after every move and
 * rolling the move back when the proof no longer goes through.
 *
 * Objective: minimize static probe count (and thereby dynamic probe
 * executions) subject to `verify_module` continuing to prove
 * max_stretch <= target. The verifier is the only oracle — no fudge
 * factors; a move survives iff the proof does.
 *
 * Move set:
 *  - Delete: remove any probe. A deleted CiCounter/CiCycles probe
 *    folds its ci_increment into the next same-kind probe in the same
 *    block, or into the first same-kind probe of its block's
 *    unconditional Jump successor, so chain counts are conserved when
 *    a downstream probe exists (otherwise the increment is dropped —
 *    CI timing accuracy is a non-goal, the preserved property is the
 *    stretch bound).
 *  - Hoist: move a straight-line TqClock probe out of its innermost
 *    loop to the loop's unique exit target, cutting per-iteration
 *    dynamic cost to per-activation cost. Loop guards are never
 *    hoisted (their per-frame counter is the loop's soft barrier).
 *
 * Candidates are ranked by slack — the gap between the target and the
 * owning function's proven contribution — so probes in far-from-tight
 * regions go first. Each move is re-proved by one whole-module
 * verify_module; a rolled-back move restores the module byte-exact, so
 * the last kept move's result stays current and rollback verifies
 * nothing.
 *
 * Both move kinds strictly reduce (probe count, total loop depth of
 * probe sites), so rounds terminate; a cap of 8 delete+hoist rounds
 * (each re-ranks candidates) is a safety valve.
 */
#ifndef TQ_COMPILER_OPTIMIZER_H
#define TQ_COMPILER_OPTIMIZER_H

#include <cstdint>
#include <vector>

#include "compiler/ir.h"

namespace tq::compiler {

/** A probe site: function / block / instruction index. */
struct ProbeRef
{
    int fn = -1;
    int block = -1;
    int instr = -1;
};

/** One applied (kept) move, for reporting and replay in tests. */
struct OptMove
{
    enum class Kind : uint8_t { Delete, Hoist };
    Kind kind = Kind::Delete;
    ProbeRef probe;      ///< site before the move
    int dest_block = -1; ///< Hoist: block the probe moved to
};

struct OptimizerConfig
{
    /** Stretch bound the optimized placement must still prove. 0 means
     *  "the input placement's own proven bound": never loosen, only
     *  shed probes the existing proof does not need. An explicit value
     *  below the input's proven bound turns the loop into budget
     *  search: only strictly-tightening moves are kept until the bound
     *  crosses the target (guard deletion shrinks the verifier's
     *  window multiplier, so bounds can tighten by orders of
     *  magnitude); a missed budget restores the module byte-exact and
     *  reports ok = false. */
    uint64_t target_bound = 0;

    /** Run the delete pass (hoisting always runs); off isolates the
     *  hoist move. */
    bool enable_delete = true;
};

struct OptimizerResult
{
    /** The input placement verified, and the final placement proves
     *  max_stretch <= target. False => the module is untouched. */
    bool ok = false;

    /** At least one move was kept (module differs from the input). */
    bool changed = false;

    uint64_t target = 0;        ///< resolved target bound
    uint64_t initial_bound = 0; ///< proven bound of the input placement
    uint64_t final_bound = 0;   ///< proven bound of the output placement
    int initial_probes = 0;
    int final_probes = 0;

    int rounds = 0;      ///< delete+hoist rounds executed
    int attempted = 0;   ///< moves tried (kept + rolled back)
    int rolled_back = 0; ///< moves undone because the proof failed
    int deleted = 0;     ///< probes removed
    int hoisted = 0;     ///< probes moved out of a loop

    std::vector<OptMove> moves; ///< kept moves, in application order
};

/**
 * Refine the placement of @p m in place. On failure (the input
 * placement does not verify, or an unexpectedly-unprovable target) the
 * module is left exactly as given and ok = false. The fixed-quantum
 * pass pipeline never calls this — it is an explicit opt-in stage.
 */
OptimizerResult optimize_placement(Module &m,
                                   const OptimizerConfig &cfg = {});

} // namespace tq::compiler

#endif // TQ_COMPILER_OPTIMIZER_H
