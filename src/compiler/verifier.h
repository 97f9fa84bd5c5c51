/**
 * @file
 * Static probe-bound verifier: proves the paper's placement invariant.
 *
 * The TQ pass promises (paper section 3.1) that the number of real
 * instructions on any execution path between two probe *firings* is
 * bounded. `analyze_stretch` (passes.h) only checks a per-iteration
 * projection of that claim; the timing executor only spot-checks it
 * empirically. `verify_module` closes the gap: a whole-module static
 * analysis that computes a sound upper bound on the worst-case
 * probe-free stretch of an instrumented module, across loop
 * iterations and across call boundaries, in the executor's own units
 * (real instructions, external calls weighted by ext_cost/ialu).
 *
 * Model (see DESIGN.md for the full derivation):
 *
 *  - Unconditional probes (TqClock, CiCounter, CiCycles, and loop
 *    guards with period <= 1) are *hard barriers*: the stretch counter
 *    resets every time one executes.
 *  - A TqLoopGuard with period K is a *soft barrier*: its per-frame
 *    counter means any K consecutive executions within one activation
 *    include a firing, so a probe-free window crosses the site
 *    silently at most K-1 times per activation.
 *  - Any probe-free window inside one activation therefore decomposes
 *    into at most M+1 barrier-free segments, where M is the sum of
 *    (period-1) over the function's guard sites. The verifier bounds
 *    the longest barrier-free segment s_max by a longest-path
 *    analysis over the loop tree (statically-bounded probe-free
 *    loops contribute trip_count iterations; unbounded probe-free
 *    cycles in an instrumented module are reported as errors with a
 *    witness), and assembles windows as (M+1) * s_max plus
 *    entry/exit tails.
 *  - Call sites compose callee summaries bottom-up: a callee that may
 *    return without firing extends the caller's segment by its
 *    silent-path weight; a callee that may fire splits the caller's
 *    window with entry_gap/exit_gap pads. Recursive SCCs are solved
 *    by a bounded fixpoint and widened to "unbounded" (with a
 *    diagnostic) if they fail to converge.
 *
 * Guard counters are adversarially phased: the bound holds for every
 * initial counter phase, hence for every execution. The model is
 * exact (static == dynamic) for straight-line code and single
 * guard-only loops with deterministic trip counts, and within a small
 * constant of the dynamic worst case elsewhere.
 */
#ifndef TQ_COMPILER_VERIFIER_H
#define TQ_COMPILER_VERIFIER_H

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/ir.h"

namespace tq::compiler {

/** Sentinel: the stretch could not be bounded statically. */
inline constexpr uint64_t kUnboundedStretch = UINT64_MAX;

/**
 * A reconstructed worst-case path: the concrete block sequence
 * realizing a longest probe-free stretch. Paths through repeated
 * loop iterations are compressed with Repeat steps; long paths are
 * truncated (Truncated marker) rather than dropped.
 */
struct Witness
{
    enum class Kind : uint8_t {
        Block,      ///< execution flows through (fn, block)
        Firing,     ///< a probe fires at (fn, block, instr) — window edge
        EnterCall,  ///< the window continues into the callee of
                    ///< (fn, block, instr)
        Repeat,     ///< the preceding segment repeats `count` more times
        Truncated,  ///< steps were dropped to cap the witness size
    };

    struct Step
    {
        Kind kind = Kind::Block;
        int fn = -1;
        int block = -1;
        int instr = -1;      ///< instruction index, when meaningful
        uint64_t count = 0;  ///< Repeat: additional traversals
    };

    std::vector<Step> steps;

    bool empty() const { return steps.empty(); }
};

enum class Severity : uint8_t { Note, Warning, Error };

/** One structured diagnostic. Errors make VerifyResult::ok false. */
struct Diag
{
    Severity severity = Severity::Error;
    std::string code;     ///< stable machine-readable id, e.g. "unbounded-loop"
    std::string message;  ///< human explanation
    int fn = -1;          ///< function index, -1 when module-level
    int block = -1;       ///< block index, -1 when function-level
    int instr = -1;       ///< instruction index, -1 when block-level
    Witness witness;      ///< worst-case path evidence, when applicable
};

/**
 * Interprocedural stretch summary of one function, in executor units
 * (real instructions; kUnboundedStretch when no finite bound exists).
 * All quantities describe one activation, including callees.
 */
struct FunctionStretch
{
    /** A probe may fire during a call to this function. */
    bool may_fire = false;

    /** The function may return without any probe firing. */
    bool may_not_fire = false;

    /** Max stretch from activation entry to the first firing
     *  (meaningful when may_fire). */
    uint64_t entry_gap = 0;

    /** Max stretch from the last firing to return (when may_fire). */
    uint64_t exit_gap = 0;

    /** Max silent entry-to-return weight (when may_not_fire). */
    uint64_t through = 0;

    /** Max probe-free window lying between two firings of this
     *  activation's dynamic extent (0 when fewer than two firing
     *  points exist). */
    uint64_t internal = 0;

    Witness internal_witness;
    Witness entry_witness;
};

struct VerifyConfig
{
    /** When nonzero: fail verification (ok = false, with a diagnostic)
     *  if the proven bound exceeds this many instructions. */
    uint64_t fail_above = 0;
};

struct VerifyResult
{
    /** No structural or boundedness errors, and the proven bound is
     *  within fail_above (when set). */
    bool ok = false;

    /** Sound upper bound on max_stretch_instrs of *any* execution
     *  (kUnboundedStretch when no finite bound exists — always the
     *  case for uninstrumented modules, an error for instrumented
     *  ones). */
    uint64_t max_stretch = 0;

    /** Function index realizing max_stretch, -1 if none. */
    int worst_function = -1;

    /** Path evidence for max_stretch. */
    Witness worst_witness;

    /** Per-function summaries, indexed like Module::functions. */
    std::vector<FunctionStretch> functions;

    std::vector<Diag> diags;

    bool
    has_errors() const
    {
        for (const auto &d : diags)
            if (d.severity == Severity::Error)
                return true;
        return false;
    }
};

/**
 * Verify @p m: structural well-formedness (terminators present,
 * branch targets valid, probe kinds legal, guard periods nonzero,
 * trip counts nonzero), then the whole-module worst-case probe-free
 * stretch. Never mutates or fatals on malformed input — malformations
 * become Error diags and ok = false.
 */
VerifyResult verify_module(const Module &m, const VerifyConfig &cfg = {});

/** One-line rendering of a diagnostic (with its witness, if any). */
std::string to_string(const Diag &d, const Module &m);

/** Multi-line human report: bound, per-function table, diagnostics. */
std::string report(const VerifyResult &r, const Module &m);

} // namespace tq::compiler

#endif // TQ_COMPILER_VERIFIER_H
