#include "compiler/optimizer.h"

#include <algorithm>
#include <cstddef>
#include <set>
#include <tuple>

#include "compiler/cfg.h"
#include "compiler/verifier.h"

namespace tq::compiler {

namespace {

/** Max delete+hoist rounds (each round re-ranks candidates). */
constexpr int kMaxRounds = 8;

/** The proven stretch this function contributes to the module bound:
 *  its internal window, plus — for the entry function — the leading /
 *  trailing / silent whole-run windows. */
uint64_t
fn_contribution(const FunctionStretch &s, int fi)
{
    uint64_t c = s.internal;
    if (fi == 0) {
        if (s.may_fire) {
            c = std::max(c, s.entry_gap);
            c = std::max(c, s.exit_gap);
        }
        if (s.may_not_fire)
            c = std::max(c, s.through);
    }
    return c;
}

struct Candidate
{
    uint64_t slack = 0;
    ProbeRef p;
    int depth = 0; ///< loop depth of the site (hoist ranking)
};

/**
 * Rank order for one delete pass. Slack is per-function, so all
 * candidates of one function are contiguous; within a block the
 * descending instruction index means a kept deletion never shifts the
 * index of a candidate still in the list.
 */
bool
delete_order(const Candidate &x, const Candidate &y)
{
    return std::make_tuple(~x.slack, x.p.fn, x.p.block, -x.p.instr) <
           std::make_tuple(~y.slack, y.p.fn, y.p.block, -y.p.instr);
}

/** Hoist passes re-enumerate after every kept move, so the order only
 *  picks what to try next: deepest loops in the slackest functions. */
bool
hoist_order(const Candidate &x, const Candidate &y)
{
    return std::make_tuple(~x.slack, x.p.fn, -x.depth, x.p.block,
                           -x.p.instr) <
           std::make_tuple(~y.slack, y.p.fn, -y.depth, y.p.block,
                           -y.p.instr);
}

struct Optimizer
{
    Module &m;
    OptimizerResult &res;
    /** Verification of the current placement: the last kept move's,
     *  since a rolled-back move restores the module byte-exact. */
    VerifyResult cur;
    std::vector<Cfg> cfgs;
    uint64_t target = 0;
    /** Tightest bound proven so far; gates descent-mode acceptance. */
    uint64_t best = 0;

    Optimizer(Module &mod, OptimizerResult &r)
        : m(mod), res(r), cur(verify_module(mod))
    {
        cfgs.reserve(m.functions.size());
        for (const auto &fn : m.functions)
            cfgs.emplace_back(fn);
    }

    uint64_t
    slack_of(int fi) const
    {
        const uint64_t c =
            fn_contribution(cur.functions[static_cast<size_t>(fi)], fi);
        return target > c ? target - c : 0;
    }

    /** Re-verify after a move; a kept move's result becomes `cur`. A
     *  move is kept when the target still holds — or, while the
     *  placement is still descending from an initial bound above an
     *  explicit target, when it strictly tightens the proof (guard
     *  deletion shrinks the window multiplier M, so descent is how a
     *  budget below the initial bound gets reached at all). */
    bool
    accept()
    {
        VerifyResult vr = verify_module(m);
        const bool keep =
            vr.ok && (vr.max_stretch <= target ||
                      (best > target && vr.max_stretch < best));
        if (keep) {
            best = vr.max_stretch;
            cur = std::move(vr);
        }
        return keep;
    }

    // -- Delete ------------------------------------------------------

    struct DeleteUndo
    {
        Instr saved;
        int fold_block = -1;
        int fold_instr = -1;
        uint32_t folded = 0;
    };

    /** Find the downstream probe a removed CI probe's count folds
     *  into: next same-kind probe in the block, else the first one in
     *  the block's unconditional Jump successor. */
    std::pair<int, int>
    fold_target(int fi, int bi, int from, ProbeKind kind) const
    {
        const Function &fn = m.functions[static_cast<size_t>(fi)];
        const Block &b = fn.blocks[static_cast<size_t>(bi)];
        for (size_t i = static_cast<size_t>(from); i < b.instrs.size();
             ++i)
            if (b.instrs[i].is_probe() && b.instrs[i].probe == kind)
                return {bi, static_cast<int>(i)};
        if (b.term.kind == Terminator::Kind::Jump) {
            const Block &nb =
                fn.blocks[static_cast<size_t>(b.term.target)];
            for (size_t i = 0; i < nb.instrs.size(); ++i)
                if (nb.instrs[i].is_probe() && nb.instrs[i].probe == kind)
                    return {b.term.target, static_cast<int>(i)};
        }
        return {-1, -1};
    }

    DeleteUndo
    apply_delete(const ProbeRef &p)
    {
        Function &fn = m.functions[static_cast<size_t>(p.fn)];
        Block &b = fn.blocks[static_cast<size_t>(p.block)];
        DeleteUndo u;
        u.saved = b.instrs[static_cast<size_t>(p.instr)];
        b.instrs.erase(b.instrs.begin() + p.instr);
        const bool ci = u.saved.probe == ProbeKind::CiCounter ||
                        u.saved.probe == ProbeKind::CiCycles;
        if (ci && u.saved.ci_increment > 0) {
            const auto [fb, fi2] =
                fold_target(p.fn, p.block, p.instr, u.saved.probe);
            if (fb >= 0) {
                fn.blocks[static_cast<size_t>(fb)]
                    .instrs[static_cast<size_t>(fi2)]
                    .ci_increment += u.saved.ci_increment;
                u.fold_block = fb;
                u.fold_instr = fi2;
                u.folded = u.saved.ci_increment;
            }
        }
        return u;
    }

    void
    undo_delete(const ProbeRef &p, const DeleteUndo &u)
    {
        Function &fn = m.functions[static_cast<size_t>(p.fn)];
        if (u.fold_block >= 0)
            fn.blocks[static_cast<size_t>(u.fold_block)]
                .instrs[static_cast<size_t>(u.fold_instr)]
                .ci_increment -= u.folded;
        Block &b = fn.blocks[static_cast<size_t>(p.block)];
        b.instrs.insert(b.instrs.begin() + p.instr, u.saved);
    }

    bool
    delete_pass()
    {
        std::vector<Candidate> cands;
        for (size_t fi = 0; fi < m.functions.size(); ++fi) {
            const uint64_t slack = slack_of(static_cast<int>(fi));
            const Function &fn = m.functions[fi];
            for (size_t bi = 0; bi < fn.blocks.size(); ++bi)
                for (size_t ii = 0; ii < fn.blocks[bi].instrs.size();
                     ++ii)
                    if (fn.blocks[bi].instrs[ii].is_probe())
                        cands.push_back(
                            {slack,
                             {static_cast<int>(fi), static_cast<int>(bi),
                              static_cast<int>(ii)},
                             0});
        }
        std::sort(cands.begin(), cands.end(), delete_order);

        bool progress = false;
        for (const Candidate &c : cands) {
            const DeleteUndo u = apply_delete(c.p);
            ++res.attempted;
            if (accept()) {
                progress = true;
                ++res.deleted;
                res.changed = true;
                res.moves.push_back(
                    {OptMove::Kind::Delete, c.p, -1});
            } else {
                undo_delete(c.p, u);
                ++res.rolled_back;
            }
        }
        return progress;
    }

    // -- Hoist -------------------------------------------------------

    /** The unique block outside loop @p li that the loop exits to, or
     *  -1 when exits are missing or split. */
    int
    unique_exit_target(int fi, int li) const
    {
        const Cfg &cfg_ = cfgs[static_cast<size_t>(fi)];
        const LoopInfo &loop =
            cfg_.loops()[static_cast<size_t>(li)];
        int exit = -1;
        for (size_t b = 0; b < loop.body.size(); ++b) {
            if (!loop.body[b])
                continue;
            for (int s : cfg_.succs(static_cast<int>(b))) {
                if (loop.contains(s))
                    continue;
                if (exit >= 0 && exit != s)
                    return -1;
                exit = s;
            }
        }
        return exit;
    }

    std::vector<Candidate>
    hoist_candidates() const
    {
        std::vector<Candidate> cands;
        for (size_t fi = 0; fi < m.functions.size(); ++fi) {
            const uint64_t slack = slack_of(static_cast<int>(fi));
            const Function &fn = m.functions[fi];
            const Cfg &cfg_ = cfgs[fi];
            for (size_t bi = 0; bi < fn.blocks.size(); ++bi) {
                const int li =
                    cfg_.innermost_loop_of(static_cast<int>(bi));
                if (li < 0)
                    continue;
                const int depth =
                    cfg_.loops()[static_cast<size_t>(li)].depth;
                for (size_t ii = 0; ii < fn.blocks[bi].instrs.size();
                     ++ii) {
                    const Instr &ins = fn.blocks[bi].instrs[ii];
                    if (ins.is_probe() &&
                        ins.probe == ProbeKind::TqClock)
                        cands.push_back(
                            {slack,
                             {static_cast<int>(fi), static_cast<int>(bi),
                              static_cast<int>(ii)},
                             depth});
                }
            }
        }
        std::sort(cands.begin(), cands.end(), hoist_order);
        return cands;
    }

    bool
    hoist_pass()
    {
        bool progress = false;
        // Sites that already failed this pass; cleared after a kept
        // move because instruction indices shift.
        std::set<std::tuple<int, int, int>> failed;
        for (;;) {
            const std::vector<Candidate> cands = hoist_candidates();
            bool tried = false;
            for (const Candidate &c : cands) {
                if (failed.count({c.p.fn, c.p.block, c.p.instr}))
                    continue;
                const int li =
                    cfgs[static_cast<size_t>(c.p.fn)].innermost_loop_of(
                        c.p.block);
                const int dest = unique_exit_target(c.p.fn, li);
                if (dest < 0) {
                    failed.insert({c.p.fn, c.p.block, c.p.instr});
                    continue;
                }
                tried = true;
                Function &fn =
                    m.functions[static_cast<size_t>(c.p.fn)];
                Block &src =
                    fn.blocks[static_cast<size_t>(c.p.block)];
                const Instr saved =
                    src.instrs[static_cast<size_t>(c.p.instr)];
                src.instrs.erase(src.instrs.begin() + c.p.instr);
                Block &db = fn.blocks[static_cast<size_t>(dest)];
                db.instrs.insert(db.instrs.begin(), saved);
                ++res.attempted;
                if (accept()) {
                    progress = true;
                    ++res.hoisted;
                    res.changed = true;
                    res.moves.push_back(
                        {OptMove::Kind::Hoist, c.p, dest});
                    failed.clear();
                } else {
                    db.instrs.erase(db.instrs.begin());
                    src.instrs.insert(src.instrs.begin() + c.p.instr,
                                      saved);
                    ++res.rolled_back;
                    failed.insert({c.p.fn, c.p.block, c.p.instr});
                }
                break;
            }
            if (!tried)
                return progress;
        }
    }
};

} // namespace

OptimizerResult
optimize_placement(Module &m, const OptimizerConfig &cfg)
{
    OptimizerResult res;
    res.initial_probes = m.probe_count();
    res.final_probes = res.initial_probes;

    Optimizer opt(m, res);
    const VerifyResult &vr0 = opt.cur;
    res.initial_bound = vr0.max_stretch;
    res.final_bound = vr0.max_stretch;
    res.target =
        cfg.target_bound != 0 ? cfg.target_bound : vr0.max_stretch;
    opt.target = res.target;

    if (!vr0.ok)
        return res; // broken placement: nothing to refine under
    opt.best = vr0.max_stretch;

    // An explicit target below the initial bound runs the same loop in
    // descent mode (only strictly-tightening moves are kept until the
    // bound crosses the target); all-or-nothing — a missed budget
    // restores the module byte-exact.
    const bool descending = vr0.max_stretch > res.target;
    Module saved;
    if (descending)
        saved = m;

    for (int round = 0; round < kMaxRounds; ++round) {
        bool progress = false;
        if (cfg.enable_delete)
            progress |= opt.delete_pass();
        progress |= opt.hoist_pass();
        ++res.rounds;
        if (!progress)
            break;
    }

    const VerifyResult &vr = opt.cur;
    res.final_bound = vr.max_stretch;
    res.final_probes = m.probe_count();
    res.ok = vr.ok && vr.max_stretch <= res.target;
    if (!res.ok && descending) {
        m = std::move(saved);
        res.changed = false;
        res.deleted = 0;
        res.hoisted = 0;
        res.moves.clear();
        res.final_bound = res.initial_bound;
        res.final_probes = res.initial_probes;
    }
    return res;
}

} // namespace tq::compiler
