#include "compiler/passes.h"

#include <algorithm>
#include <map>

namespace tq::compiler {

namespace {

/**
 * Instruction-count "size" of one non-probe instruction for placement
 * purposes. Probes are handled by the walkers themselves.
 */
int
instr_size(const Instr &instr, const std::vector<FunctionSummary> &summaries,
           int *post_gap)
{
    *post_gap = -1; // -1: no reset inside this instruction
    if (instr.is_probe())
        return 0;
    if (instr.op != Op::Call)
        return 1;
    if (instr.callee < 0)
        return 1 + kExtCallInstrs;
    if (instr.callee < static_cast<int>(summaries.size())) {
        const FunctionSummary &s = summaries[instr.callee];
        if (s.has_probes) {
            // The callee fires probes internally: the pre-call gap must
            // absorb entry_gap, and the post-call gap restarts at
            // exit_gap.
            *post_gap = s.exit_gap;
            return 1 + s.entry_gap;
        }
        return 1 + s.entry_gap; // probe-free callee: its whole path counts
    }
    // Callee not yet summarized (recursion): treat as external.
    return 1 + kExtCallInstrs;
}

/**
 * Walk the instructions of @p block updating a running probe-free gap.
 * Invokes @p on_probe_site(index, gap_before) at every real instruction
 * where inserting a probe is possible; the callback returns true when it
 * inserted a probe (the walker then resets the gap).
 */
struct GapWalk
{
    int gap_in = 0;
    int gap_out = 0;
    bool saw_probe = false;
    int entry_gap = 0; ///< gap when first probe encountered (or total)
    int max_gap = 0;
};

template <typename ProbeHook>
GapWalk
walk_block(const Block &block, const std::vector<FunctionSummary> &summaries,
           int gap_in, ProbeHook &&hook)
{
    GapWalk w;
    w.gap_in = gap_in;
    int gap = gap_in;
    bool saw = false;
    int entry = 0;
    int max_gap = gap;
    for (size_t i = 0; i < block.instrs.size(); ++i) {
        const Instr &instr = block.instrs[i];
        if (instr.is_probe()) {
            if (!saw) {
                saw = true;
                entry = gap;
            }
            max_gap = std::max(max_gap, gap);
            if (instr.probe == ProbeKind::TqLoopGuard) {
                // The guard may stay silent for period-1 iterations: the
                // residual probe-free stretch after it is bounded by
                // (period - 1) x per-iteration stretch.
                gap = static_cast<int>(instr.period - 1) *
                      static_cast<int>(instr.stretch_hint);
            } else {
                gap = 0;
            }
            continue;
        }
        int post_gap = -1;
        const int size = instr_size(instr, summaries, &post_gap);
        if (hook(i, gap, size)) {
            // A probe was inserted before this instruction.
            if (!saw) {
                saw = true;
                entry = gap;
            }
            max_gap = std::max(max_gap, gap);
            gap = 0;
        }
        if (post_gap >= 0) {
            // Call into an instrumented function: pre-call gap must cover
            // entry_gap (already in `size` via gap accounting below), and
            // after the call the gap restarts at the callee's exit gap.
            max_gap = std::max(max_gap, gap + size);
            if (!saw) {
                saw = true;
                entry = gap + size;
            }
            gap = post_gap;
        } else {
            gap += size;
        }
    }
    max_gap = std::max(max_gap, gap);
    w.gap_out = gap;
    w.saw_probe = saw;
    w.entry_gap = saw ? entry : gap;
    w.max_gap = max_gap;
    return w;
}

/** No-op probe hook for analysis-only walks. */
struct NoInsert
{
    bool operator()(size_t, int, int) const { return false; }
};

/**
 * Longest per-iteration probe-free stretch over a set of blocks treated
 * as a DAG (back edges ignored). Used for loop bodies and whole
 * functions. Returns facts analogous to StretchFacts but restricted to
 * @p in_set.
 */
StretchFacts
stretch_over_blocks(const Function &fn, const Cfg &cfg,
                    const std::vector<FunctionSummary> &summaries,
                    const std::vector<bool> *in_set, int entry_block)
{
    StretchFacts facts;
    const int n = fn.num_blocks();
    std::vector<int> gap_in(static_cast<size_t>(n), -1); // -1: not reached
    std::vector<int> path_in(static_cast<size_t>(n), -1);
    std::vector<int> first_probe_in(static_cast<size_t>(n), -1);
    gap_in[entry_block] = 0;
    path_in[entry_block] = 0;

    auto inside = [&](int b) {
        return !in_set || (*in_set)[static_cast<size_t>(b)];
    };

    for (int b : cfg.rpo()) {
        if (!inside(b) || gap_in[b] < 0)
            continue;
        const Block &block = fn.blocks[static_cast<size_t>(b)];
        const GapWalk w =
            walk_block(block, summaries, gap_in[b], NoInsert{});
        facts.max_gap = std::max(facts.max_gap, w.max_gap);

        // Longest raw path (no probe resets) through this block.
        int block_size = 0;
        for (const auto &instr : block.instrs) {
            int post = -1;
            block_size += instr_size(instr, summaries, &post);
        }
        const int path_out = path_in[b] + block_size;

        // Entry gap bookkeeping: the longest path from the region entry to
        // the first probe firing along it.
        int first_probe = first_probe_in[b];
        if (first_probe < 0 && w.saw_probe)
            first_probe = path_in[b] + (w.entry_gap - gap_in[b]);
        if (w.saw_probe)
            facts.has_probes = true;

        const bool is_exit = [&] {
            if (block.term.kind == Terminator::Kind::Ret)
                return true;
            // For loop-body analysis, edges leaving the set are exits.
            for (int s : cfg.succs(b))
                if (!inside(s))
                    return true;
            return false;
        }();
        if (is_exit) {
            facts.exit_gap = std::max(facts.exit_gap, w.gap_out);
            facts.longest_path = std::max(facts.longest_path, path_out);
            facts.entry_gap = std::max(
                facts.entry_gap, first_probe >= 0 ? first_probe : path_out);
        }

        for (int s : cfg.succs(b)) {
            if (!inside(s))
                continue;
            // Skip back edges: targets already placed earlier in RPO and
            // dominating b head loops.
            if (cfg.dominates(s, b))
                continue;
            gap_in[s] = std::max(gap_in[s], w.gap_out);
            path_in[s] = std::max(path_in[s], path_out);
            if (first_probe >= 0)
                first_probe_in[s] = std::max(first_probe_in[s], first_probe);
        }
    }
    if (!facts.has_probes)
        facts.entry_gap = std::max(facts.entry_gap, facts.longest_path);
    return facts;
}

/**
 * Phase A of the TQ pass: straight-line bounding. Walk the function in
 * RPO, tracking the probe-free gap, and insert a TqClock probe in front
 * of any instruction that would push the gap past the bound.
 */
void
tq_bound_straightline(Function &fn, const Cfg &cfg, const PassConfig &pass_cfg,
                      const std::vector<FunctionSummary> &summaries)
{
    const int n = fn.num_blocks();
    std::vector<int> gap_in(static_cast<size_t>(n), 0);
    for (int b : cfg.rpo()) {
        Block &block = fn.blocks[static_cast<size_t>(b)];
        std::vector<Instr> rewritten;
        rewritten.reserve(block.instrs.size());
        const GapWalk w = walk_block(
            block, summaries, gap_in[b],
            [&](size_t index, int gap, int size) {
                rewritten.push_back(block.instrs[index]);
                if (gap + size > pass_cfg.bound) {
                    // Insert the probe *before* this instruction.
                    rewritten.insert(rewritten.end() - 1,
                                     Instr::make_probe(ProbeKind::TqClock));
                    return true;
                }
                return false;
            });
        // walk_block visited probes without calling the hook; re-emit in
        // order by merging: rewritten currently holds only non-probe
        // instrs (plus inserted probes). Rebuild preserving originals.
        std::vector<Instr> merged;
        merged.reserve(rewritten.size() + 2);
        size_t ri = 0;
        for (const auto &orig : block.instrs) {
            if (orig.is_probe()) {
                merged.push_back(orig);
                continue;
            }
            // Copy any probe inserted before this original instruction.
            while (ri < rewritten.size() && rewritten[ri].is_probe())
                merged.push_back(rewritten[ri++]);
            TQ_CHECK(ri < rewritten.size());
            merged.push_back(rewritten[ri++]);
        }
        while (ri < rewritten.size())
            merged.push_back(rewritten[ri++]);
        block.instrs = std::move(merged);

        for (int s : cfg.succs(b)) {
            if (cfg.dominates(s, b))
                continue; // back edge
            gap_in[s] = std::max(gap_in[s], w.gap_out);
        }
    }
}

/**
 * Phase B of the TQ pass: loop guards, innermost first (paper section
 * 3.1). Loops with small statically-known total work are skipped; other
 * loops get a guard at each latch whose period spreads one probe firing
 * over ~bound instructions.
 */
void
tq_instrument_loops(Function &fn, const PassConfig &pass_cfg,
                    const std::vector<FunctionSummary> &summaries)
{
    // Recompute the CFG after phase A (block ids unchanged; instrs moved).
    Cfg cfg(fn);
    for (const LoopInfo &loop : cfg.loops()) {
        const Block &header = fn.blocks[static_cast<size_t>(loop.header)];

        const StretchFacts body = stretch_over_blocks(
            fn, cfg, summaries, &loop.body, loop.header);
        const int body_stretch = std::max(
            1, body.has_probes ? body.max_gap : body.longest_path);

        // Statically-bounded loops need no guard.
        const auto &facts = header.loop_facts;
        if (facts.static_trip &&
            static_cast<long>(*facts.static_trip) *
                    static_cast<long>(body_stretch) <=
                pass_cfg.static_skip_limit()) {
            continue;
        }

        const uint32_t period = static_cast<uint32_t>(std::max(
            1, pass_cfg.bound / body_stretch));

        // Gadget selection (paper section 3.1): reuse an induction
        // variable when one exists; clone single-block self-loops so
        // short trip counts bypass instrumentation; otherwise maintain
        // an iteration counter.
        LoopGadget gadget = LoopGadget::Counter;
        const long body_blocks =
            std::count(loop.body.begin(), loop.body.end(), true);
        if (facts.has_induction_var)
            gadget = LoopGadget::Induction;
        else if (body_blocks == 1)
            gadget = LoopGadget::Cloned;

        for (int latch : loop.latches) {
            Block &lb = fn.blocks[static_cast<size_t>(latch)];
            lb.instrs.push_back(Instr::loop_guard(
                period, gadget, static_cast<uint32_t>(body_stretch)));
        }
    }
}

} // namespace

StretchFacts
analyze_stretch(const Function &fn,
                const std::vector<FunctionSummary> &summaries)
{
    Cfg g(fn);
    return stretch_over_blocks(fn, g, summaries, nullptr, 0);
}

std::vector<FunctionSummary>
run_tq_pass(Module &m, const PassConfig &cfg)
{
    validate(m);
    std::vector<FunctionSummary> summaries(m.functions.size());

    // Process callees before callers so call sites can use summaries.
    // Cycles (recursion) fall back to external-call treatment.
    std::vector<uint8_t> state(m.functions.size(), 0); // 0 new 1 open 2 done
    std::vector<int> order;
    auto dfs = [&](auto &&self, int f) -> void {
        state[static_cast<size_t>(f)] = 1;
        for (const auto &b : m.functions[static_cast<size_t>(f)].blocks)
            for (const auto &i : b.instrs)
                if (i.op == Op::Call && i.callee >= 0 &&
                    state[static_cast<size_t>(i.callee)] == 0)
                    self(self, i.callee);
        state[static_cast<size_t>(f)] = 2;
        order.push_back(f);
    };
    for (int f = 0; f < static_cast<int>(m.functions.size()); ++f)
        if (state[static_cast<size_t>(f)] == 0)
            dfs(dfs, f);

    for (int f : order) {
        Function &fn = m.functions[static_cast<size_t>(f)];
        {
            Cfg g(fn);
            tq_bound_straightline(fn, g, cfg, summaries);
        }
        tq_instrument_loops(fn, cfg, summaries);
        const StretchFacts facts = analyze_stretch(fn, summaries);
        FunctionSummary &s = summaries[static_cast<size_t>(f)];
        s.has_probes = facts.has_probes;
        s.entry_gap = facts.entry_gap;
        s.exit_gap = facts.has_probes ? facts.exit_gap : facts.entry_gap;
    }
    validate(m);
    return summaries;
}

namespace {

void
run_ci_like_pass(Module &m, const PassConfig &cfg, ProbeKind kind)
{
    validate(m);
    for (Function &fn : m.functions) {
        Cfg g(fn);
        const int n = fn.num_blocks();

        // Per-block instruction counts (external calls charged like TQ).
        std::vector<uint32_t> count(static_cast<size_t>(n), 0);
        for (int b = 0; b < n; ++b) {
            int total = 0;
            for (const auto &i : fn.blocks[static_cast<size_t>(b)].instrs) {
                int post = -1;
                total += instr_size(i, {}, &post);
            }
            count[static_cast<size_t>(b)] = static_cast<uint32_t>(total);
        }

        // SESE-style chain merging: a block whose single successor has a
        // single predecessor defers its increment into that successor.
        std::vector<bool> needs_probe(static_cast<size_t>(n), true);
        if (cfg.ci_merge_chains) {
            for (int b : g.rpo()) {
                const Block &blk = fn.blocks[static_cast<size_t>(b)];
                if (blk.term.kind == Terminator::Kind::Jump) {
                    const int s = blk.term.target;
                    if (g.preds(s).size() == 1 && !g.dominates(s, b)) {
                        count[static_cast<size_t>(s)] +=
                            count[static_cast<size_t>(b)];
                        count[static_cast<size_t>(b)] = 0;
                        needs_probe[static_cast<size_t>(b)] = false;
                    }
                }
            }
        }

        for (int b = 0; b < n; ++b) {
            if (!g.reachable(b) || !needs_probe[static_cast<size_t>(b)])
                continue;
            Block &blk = fn.blocks[static_cast<size_t>(b)];
            blk.instrs.push_back(
                Instr::make_probe(kind, count[static_cast<size_t>(b)]));
        }
    }
    validate(m);
}

} // namespace

void
run_ci_pass(Module &m, const PassConfig &cfg)
{
    run_ci_like_pass(m, cfg, ProbeKind::CiCounter);
}

void
run_ci_cycles_pass(Module &m, const PassConfig &cfg)
{
    run_ci_like_pass(m, cfg, ProbeKind::CiCycles);
}

} // namespace tq::compiler
