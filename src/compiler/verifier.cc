#include "compiler/verifier.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <deque>

#include "compiler/cfg.h"
#include "compiler/cost_model.h"

namespace tq::compiler {

namespace {

constexpr size_t kMaxWitnessSteps = 96;

uint64_t
sat_add(uint64_t a, uint64_t b)
{
    return (a > kUnboundedStretch - b) ? kUnboundedStretch : a + b;
}

uint64_t
sat_mul(uint64_t a, uint64_t b)
{
    if (a == 0 || b == 0)
        return 0;
    if (a == kUnboundedStretch || b == kUnboundedStretch ||
        a > kUnboundedStretch / b)
        return kUnboundedStretch;
    return a * b;
}

void
wit_push(Witness &w, Witness::Step s)
{
    if (w.steps.size() < kMaxWitnessSteps) {
        w.steps.push_back(s);
    } else if (w.steps.back().kind != Witness::Kind::Truncated) {
        w.steps.back() = {Witness::Kind::Truncated, -1, -1, -1, 0};
    }
}

/**
 * A path value of the longest-segment analysis: invalid (no such
 * path), or a saturating length plus a size-capped witness.
 */
struct Ext
{
    bool valid = false;
    uint64_t len = 0;
    Witness wit;
};

Ext
make_ext(uint64_t len)
{
    Ext e;
    e.valid = true;
    e.len = len;
    return e;
}

/** e + w, without touching the witness. */
Ext
eadd(Ext e, uint64_t w)
{
    if (e.valid)
        e.len = sat_add(e.len, w);
    return e;
}

/** Concatenate two path values (invalid absorbs). */
Ext
echain(const Ext &a, const Ext &b)
{
    if (!a.valid || !b.valid)
        return Ext{};
    Ext r;
    r.valid = true;
    r.len = sat_add(a.len, b.len);
    r.wit = a.wit;
    for (const auto &s : b.wit.steps)
        wit_push(r.wit, s);
    return r;
}

/** Keep the longer valid path. */
void
emax(Ext &into, const Ext &other)
{
    if (other.valid && (!into.valid || other.len > into.len))
        into = other;
}

/** `times` traversals of `iter` (witness compressed to one Repeat). */
Ext
erep(const Ext &iter, uint64_t times)
{
    if (!iter.valid)
        return Ext{};
    if (times == 0)
        return make_ext(0);
    Ext r;
    r.valid = true;
    r.len = sat_mul(iter.len, times);
    r.wit = iter.wit;
    if (times > 1)
        wit_push(r.wit, {Witness::Kind::Repeat, -1, -1, -1, times - 1});
    return r;
}

/**
 * The two flavors propagated through a region: `a` is the longest
 * cut-free path from the region entry (no barrier crossed yet), `b`
 * the longest cut-free path starting just after some barrier.
 */
struct Flow
{
    Ext a, b;
};

void
flowmax(Flow &into, const Flow &other)
{
    emax(into.a, other.a);
    emax(into.b, other.b);
}

/** A loop collapsed to a summary atom at its header (one loop entry). */
struct Atom
{
    Ext pure;        ///< header -> loop exit, cut-free
    Ext pure_ret;    ///< header -> ret inside the loop, cut-free
    Ext entrycut;    ///< header -> first cut inside (end pad included)
    Ext exitcut;     ///< after a cut inside -> loop exit
    Ext exitcut_ret; ///< after a cut inside -> ret inside the loop
    std::vector<int> exit_targets; ///< blocks outside the loop we exit to
};

void
add_diag(std::vector<Diag> &diags, Severity sev, std::string code,
         std::string message, int fn = -1, int block = -1, int instr = -1,
         Witness wit = {})
{
    Diag d;
    d.severity = sev;
    d.code = std::move(code);
    d.message = std::move(message);
    d.fn = fn;
    d.block = block;
    d.instr = instr;
    d.witness = std::move(wit);
    diags.push_back(std::move(d));
}

/** Conservative top summary: every behaviour possible, no bound. */
FunctionStretch
top_summary()
{
    FunctionStretch s;
    s.may_fire = true;
    s.may_not_fire = true;
    s.entry_gap = s.exit_gap = s.through = s.internal = kUnboundedStretch;
    return s;
}

bool
summary_equal(const FunctionStretch &x, const FunctionStretch &y)
{
    return x.may_fire == y.may_fire && x.may_not_fire == y.may_not_fire &&
           x.entry_gap == y.entry_gap && x.exit_gap == y.exit_gap &&
           x.through == y.through && x.internal == y.internal;
}

/** Executor stretch charge for an external call, in instructions:
 *  ext_cost converted at the default CostModel's cycles per IAlu. */
uint64_t
ext_call_weight(const Instr &ins)
{
    const double instrs = ins.ext_cost / CostModel{}.ialu;
    return sat_add(1, instrs <= 0 ? 0 : static_cast<uint64_t>(instrs));
}

/** True when executing this instruction always resets the stretch. */
bool
is_hard_barrier(const Instr &ins)
{
    if (!ins.is_probe() || ins.probe == ProbeKind::None)
        return false;
    if (ins.probe == ProbeKind::TqLoopGuard)
        return ins.period <= 1; // period 1 fires on every crossing
    return true;
}

/**
 * Stretch analysis of one function given callee summaries. Assumes
 * the function passed the structural and shape (reducibility) checks.
 *
 * Model recap (DESIGN.md has the derivation): all probe instructions
 * — hard probes and loop guards alike — are *cuts*. Any probe-free
 * window of one activation decomposes into cut-free segments
 * separated by silent guard crossings, of which there are at most
 * M = sum(period - 1) per activation, because guard counters are
 * per-frame. So window <= (M + 1) * s_max, with entry/exit tails
 * using the entry->first-cut and last-cut->ret segments. Segments
 * are bounded by a longest-path walk over the loop tree: loops
 * collapse innermost-first into atoms, probe-free cycles are capped
 * by their latch trip counts or reported unbounded.
 */
class FnAnalyzer
{
  public:
    FnAnalyzer(const Module &m, int fn_idx, const Cfg &cfg,
               const std::vector<FunctionStretch> &summaries,
               bool report_unbounded, std::vector<Diag> &diags)
        : fn_(m.functions[static_cast<size_t>(fn_idx)]), fn_idx_(fn_idx),
          cfg_(cfg), sums_(summaries),
          report_unbounded_(report_unbounded), diags_(diags)
    {
    }

    FunctionStretch run();

  private:
    struct RegionOut
    {
        Ext entrycut;       ///< a-flavor ending at a cut (pad applied)
        Ext ret_a, ret_b;   ///< flavors reaching a Ret
        Ext exit_a, exit_b; ///< flavors leaving the loop (loops only)
        Ext lat_a, lat_b;   ///< flavors crossing a back edge (loops only)
        std::vector<int> exit_targets;
    };

    Flow walk_block(int bidx, Flow f);
    Atom analyze_loop(int li);
    void sweep(int region, std::vector<Flow> &in, RegionOut &out);
    void route(int region, int target, const Flow &f, std::vector<Flow> &in,
               RegionOut &out);
    /** -1: plain member of `region`; >= 0: that child loop's atom
     *  (only at its header); -2: not visible at this region level. */
    int role(int region, int b) const;
    uint64_t latch_cap(int li) const;
    bool compute_may_fire() const;
    bool compute_may_not_fire() const;

    const Function &fn_;
    int fn_idx_;
    const Cfg &cfg_;
    const std::vector<FunctionStretch> &sums_;
    bool report_unbounded_;
    std::vector<Diag> &diags_;

    std::vector<Atom> atoms_;
    /** Where a-flavor cut endpoints accumulate: the function's entry
     *  segment at the top level, the atom's entrycut inside a loop. */
    Ext *entry_sink_ = nullptr;
    // Function-wide collectors.
    Ext g_entry_seg_, g_closed_, g_exit_seg_, g_nf_pure_;
};

int
FnAnalyzer::role(int region, int b) const
{
    const int inner = cfg_.innermost_loop_of(b);
    if (inner == region)
        return -1;
    int lp = inner;
    while (lp >= 0 && cfg_.loops()[static_cast<size_t>(lp)].parent != region)
        lp = cfg_.loops()[static_cast<size_t>(lp)].parent;
    if (lp < 0)
        return -2;
    return b == cfg_.loops()[static_cast<size_t>(lp)].header ? lp : -2;
}

Flow
FnAnalyzer::walk_block(int bidx, Flow f)
{
    if (!f.a.valid && !f.b.valid)
        return f;
    const Block &blk = fn_.blocks[static_cast<size_t>(bidx)];
    const Witness::Step here{Witness::Kind::Block, fn_idx_, bidx, -1, 0};
    if (f.a.valid)
        wit_push(f.a.wit, here);
    if (f.b.valid)
        wit_push(f.b.wit, here);

    auto close = [&](const Ext &v, uint64_t pad, Witness::Step step,
                     Ext &acc) {
        if (!v.valid)
            return;
        Ext e = eadd(v, pad);
        wit_push(e.wit, step);
        emax(acc, e);
    };

    for (size_t i = 0; i < blk.instrs.size(); ++i) {
        const Instr &ins = blk.instrs[i];
        const int ii = static_cast<int>(i);
        if (ins.is_probe()) {
            if (ins.probe == ProbeKind::None)
                continue; // structural error; analysis not run on these
            // Every probe crossing either fires (a window endpoint) or
            // is a silent guard crossing (a segment delimiter): a cut
            // for the segment analysis either way.
            const Witness::Step fire{Witness::Kind::Firing, fn_idx_, bidx,
                                     ii, 0};
            close(f.a, 0, fire, *entry_sink_);
            close(f.b, 0, fire, g_closed_);
            f.a = Ext{};
            f.b = make_ext(0);
            wit_push(f.b.wit, fire);
        } else if (ins.op == Op::Call && ins.callee >= 0) {
            const FunctionStretch &s = sums_[static_cast<size_t>(ins.callee)];
            const Witness::Step enter{Witness::Kind::EnterCall, fn_idx_, bidx,
                                      ii, 0};
            if (s.may_fire) {
                // The window may end at the callee's first firing: call
                // overhead (1 instruction) plus the callee's entry gap.
                const uint64_t pad = sat_add(1, s.entry_gap);
                close(f.a, pad, enter, *entry_sink_);
                close(f.b, pad, enter, g_closed_);
            }
            Flow nf;
            if (s.may_not_fire) {
                const uint64_t w = sat_add(1, s.through);
                nf.a = eadd(f.a, w);
                if (nf.a.valid)
                    wit_push(nf.a.wit, enter);
                nf.b = eadd(f.b, w);
                if (nf.b.valid)
                    wit_push(nf.b.wit, enter);
            }
            if (s.may_fire) {
                // A new window may start at the callee's last firing.
                Ext start = make_ext(s.exit_gap);
                wit_push(start.wit, enter);
                emax(nf.b, start);
            }
            f = nf;
        } else if (ins.op == Op::Call) {
            const uint64_t w = ext_call_weight(ins);
            f.a = eadd(f.a, w);
            f.b = eadd(f.b, w);
        } else {
            f.a = eadd(f.a, 1);
            f.b = eadd(f.b, 1);
        }
    }
    return f;
}

void
FnAnalyzer::route(int region, int target, const Flow &f,
                  std::vector<Flow> &in, RegionOut &out)
{
    if (region >= 0) {
        const LoopInfo &loop = cfg_.loops()[static_cast<size_t>(region)];
        if (target == loop.header) { // back edge of the current loop
            emax(out.lat_a, f.a);
            emax(out.lat_b, f.b);
            return;
        }
        if (!loop.contains(target)) { // loop exit edge
            emax(out.exit_a, f.a);
            emax(out.exit_b, f.b);
            if (std::find(out.exit_targets.begin(), out.exit_targets.end(),
                          target) == out.exit_targets.end())
                out.exit_targets.push_back(target);
            return;
        }
    }
    flowmax(in[static_cast<size_t>(target)], f);
}

void
FnAnalyzer::sweep(int region, std::vector<Flow> &in, RegionOut &out)
{
    entry_sink_ = region >= 0 ? &out.entrycut : &g_entry_seg_;
    for (int bidx : cfg_.rpo()) {
        const int r = role(region, bidx);
        if (r == -2)
            continue;
        const Flow f = in[static_cast<size_t>(bidx)];
        if (r >= 0) { // child loop atom
            const Atom &at = atoms_[static_cast<size_t>(r)];
            // Segments may end at a cut inside the child...
            emax(*entry_sink_, echain(f.a, at.entrycut));
            emax(g_closed_, echain(f.b, at.entrycut));
            // ...or reach a Ret nested inside it...
            emax(out.ret_a, echain(f.a, at.pure_ret));
            emax(out.ret_b, echain(f.b, at.pure_ret));
            emax(out.ret_b, at.exitcut_ret);
            // ...or pass through / start inside and leave.
            Flow o;
            o.a = echain(f.a, at.pure);
            o.b = echain(f.b, at.pure);
            emax(o.b, at.exitcut);
            for (int t : at.exit_targets)
                route(region, t, o, in, out);
            continue;
        }
        const Flow o = walk_block(bidx, f);
        const Terminator &t = fn_.blocks[static_cast<size_t>(bidx)].term;
        switch (t.kind) {
          case Terminator::Kind::Ret:
            emax(out.ret_a, o.a);
            emax(out.ret_b, o.b);
            break;
          case Terminator::Kind::Jump:
            route(region, t.target, o, in, out);
            break;
          case Terminator::Kind::Branch:
            route(region, t.target, o, in, out);
            route(region, t.target_else, o, in, out);
            break;
        }
    }
}

uint64_t
FnAnalyzer::latch_cap(int li) const
{
    const LoopInfo &loop = cfg_.loops()[static_cast<size_t>(li)];
    uint64_t cap = 0;
    for (int u : loop.latches) {
        const Terminator &t = fn_.blocks[static_cast<size_t>(u)].term;
        uint64_t c = 0;
        if (t.kind == Terminator::Kind::Jump) {
            c = kUnboundedStretch; // unconditional back edge
        } else if (t.kind == Terminator::Kind::Branch) {
            const bool taken_back = t.target == loop.header;
            const bool else_back = t.target_else == loop.header;
            if (taken_back && else_back) {
                c = kUnboundedStretch;
            } else if (t.model.kind == BranchModel::Kind::TripCount) {
                if (taken_back) {
                    // Canonical latch: back edge taken trip-1 times per
                    // loop entry, then falls through.
                    c = t.model.trip_count > 0 ? t.model.trip_count - 1 : 0;
                } else {
                    // Inverted latch: the executor falls through to the
                    // header once per counter cycle; with trip 1 that is
                    // every visit (an infinite loop), with trip >= 2 at
                    // most once per stay in the loop.
                    c = t.model.trip_count >= 2 ? 1 : kUnboundedStretch;
                }
            } else {
                const bool possible =
                    taken_back ? t.model.prob > 0 : t.model.prob < 1;
                c = possible ? kUnboundedStretch : 0;
            }
        }
        cap = sat_add(cap, c);
    }
    return cap;
}

Atom
FnAnalyzer::analyze_loop(int li)
{
    const LoopInfo &loop = cfg_.loops()[static_cast<size_t>(li)];
    const size_t n = static_cast<size_t>(fn_.num_blocks());
    Atom at;

    std::vector<Flow> in(n);
    Flow seed;
    seed.a = make_ext(0);
    in[static_cast<size_t>(loop.header)] = seed;
    RegionOut r1;
    sweep(li, in, r1);
    at.exit_targets = r1.exit_targets;

    // Probe-free cycles: capped by the latch trip counts, or unbounded.
    Ext extra = make_ext(0);
    const uint64_t cap = latch_cap(li);
    if (r1.lat_a.valid && cap > 0) {
        if (cap == kUnboundedStretch) {
            Witness w = r1.lat_a.wit;
            wit_push(w, {Witness::Kind::Repeat, -1, -1, -1,
                         kUnboundedStretch});
            add_diag(diags_,
                     report_unbounded_ ? Severity::Error : Severity::Warning,
                     "unbounded-loop",
                     "loop headed by block b" + std::to_string(loop.header) +
                         " can iterate probe-free with no static trip "
                         "bound: no probe cuts its longest cycle",
                     fn_idx_, loop.header, -1, std::move(w));
            const Ext ub{true, kUnboundedStretch, r1.lat_a.wit};
            at.pure = at.pure_ret = at.entrycut = at.exitcut =
                at.exitcut_ret = ub;
            emax(g_closed_, ub);
            return at;
        }
        extra = erep(r1.lat_a, cap);
    }

    // Round 2: segments that start after a cut and cross a back edge
    // (at most one cut-free crossing; more requires a probe-free cycle,
    // which `extra` accounts for).
    RegionOut r2;
    if (r1.lat_b.valid && cap > 0) {
        std::vector<Flow> in2(n);
        Flow seed2;
        seed2.b = echain(r1.lat_b, extra);
        in2[static_cast<size_t>(loop.header)] = seed2;
        sweep(li, in2, r2);
        for (int t : r2.exit_targets)
            if (std::find(at.exit_targets.begin(), at.exit_targets.end(),
                          t) == at.exit_targets.end())
                at.exit_targets.push_back(t);
    }

    at.pure = echain(extra, r1.exit_a);
    at.pure_ret = echain(extra, r1.ret_a);
    at.entrycut = echain(extra, r1.entrycut);
    at.exitcut = r1.exit_b;
    emax(at.exitcut, r2.exit_b);
    at.exitcut_ret = r1.ret_b;
    emax(at.exitcut_ret, r2.ret_b);
    return at;
}

bool
FnAnalyzer::compute_may_fire() const
{
    for (int b : cfg_.rpo()) {
        for (const auto &ins : fn_.blocks[static_cast<size_t>(b)].instrs) {
            if (ins.is_probe() && ins.probe != ProbeKind::None)
                return true;
            if (ins.op == Op::Call && ins.callee >= 0 &&
                sums_[static_cast<size_t>(ins.callee)].may_fire)
                return true;
        }
    }
    return false;
}

bool
FnAnalyzer::compute_may_not_fire() const
{
    // Over-approximate reachability of a Ret along a firing-free path:
    // hard barriers and must-fire callees block, guards with period >=
    // 2 are silently passable (their budget is accounted elsewhere).
    //
    // Refinement (keeps the bound exact for the canonical TQ shape):
    // entering a single-latch TripCount loop with no side exits whose
    // guard sits on a block dominating the latch forces `trips`
    // crossings of that guard per entry — more than period-1 crossings
    // cannot stay silent, so the loop header is impassable.
    std::vector<char> forced(static_cast<size_t>(fn_.num_blocks()), 0);
    for (const auto &loop : cfg_.loops()) {
        if (loop.latches.size() != 1)
            continue;
        const int u = loop.latches[0];
        const Terminator &lt = fn_.blocks[static_cast<size_t>(u)].term;
        if (lt.kind != Terminator::Kind::Branch ||
            lt.model.kind != BranchModel::Kind::TripCount ||
            lt.target != loop.header)
            continue;
        bool side_exit = false;
        for (int b = 0; b < fn_.num_blocks() && !side_exit; ++b)
            if (loop.contains(b) && b != u)
                for (int s : cfg_.succs(b))
                    side_exit |= !loop.contains(s);
        if (side_exit)
            continue;
        for (int b = 0; b < fn_.num_blocks(); ++b) {
            if (!loop.contains(b) || !cfg_.dominates(b, u))
                continue;
            for (const auto &ins :
                 fn_.blocks[static_cast<size_t>(b)].instrs)
                if (ins.is_probe() &&
                    ins.probe == ProbeKind::TqLoopGuard &&
                    ins.period >= 1 &&
                    lt.model.trip_count > ins.period - 1)
                    forced[static_cast<size_t>(loop.header)] = 1;
        }
    }
    auto passable = [&](int b) {
        if (forced[static_cast<size_t>(b)])
            return false;
        for (const auto &ins : fn_.blocks[static_cast<size_t>(b)].instrs) {
            if (is_hard_barrier(ins))
                return false;
            if (ins.op == Op::Call && ins.callee >= 0 &&
                !sums_[static_cast<size_t>(ins.callee)].may_not_fire)
                return false;
        }
        return true;
    };
    std::vector<char> seen(static_cast<size_t>(fn_.num_blocks()), 0);
    std::deque<int> work;
    if (passable(0)) {
        seen[0] = 1;
        work.push_back(0);
    }
    while (!work.empty()) {
        const int b = work.front();
        work.pop_front();
        if (fn_.blocks[static_cast<size_t>(b)].term.kind ==
            Terminator::Kind::Ret)
            return true;
        for (int s : cfg_.succs(b)) {
            if (!seen[static_cast<size_t>(s)] && passable(s)) {
                seen[static_cast<size_t>(s)] = 1;
                work.push_back(s);
            }
        }
    }
    return false;
}

FunctionStretch
FnAnalyzer::run()
{
    atoms_.resize(cfg_.loops().size());
    for (size_t li = 0; li < cfg_.loops().size(); ++li) // innermost-first
        atoms_[li] = analyze_loop(static_cast<int>(li));

    std::vector<Flow> in(static_cast<size_t>(fn_.num_blocks()));
    Flow seed;
    seed.a = make_ext(0);
    in[0] = seed;
    RegionOut rf;
    sweep(-1, in, rf);
    g_nf_pure_ = rf.ret_a;
    g_exit_seg_ = rf.ret_b;

    // Per-activation silent-crossing budget: sum of (period - 1) over
    // reachable guard sites (guard counters are per-frame).
    uint64_t budget = 0;
    for (int b : cfg_.rpo())
        for (const auto &ins : fn_.blocks[static_cast<size_t>(b)].instrs)
            if (ins.is_probe() && ins.probe == ProbeKind::TqLoopGuard &&
                ins.period >= 1)
                budget = sat_add(budget, ins.period - 1);

    FunctionStretch out;
    out.may_fire = compute_may_fire();
    out.may_not_fire = compute_may_not_fire();

    const Ext slack = g_closed_.valid ? erep(g_closed_, budget) : make_ext(0);
    if (out.may_fire) {
        const Ext eg = echain(g_entry_seg_, slack);
        out.entry_gap = eg.valid ? eg.len : kUnboundedStretch;
        out.entry_witness = eg.wit;
        const Ext xg = echain(slack, g_exit_seg_);
        out.exit_gap = xg.valid ? xg.len : kUnboundedStretch;
    }
    if (g_closed_.valid) {
        const Ext inner = erep(g_closed_, sat_add(budget, 1));
        out.internal = inner.len;
        out.internal_witness = inner.wit;
    }
    if (out.may_not_fire) {
        Ext thr = g_nf_pure_;
        if (g_entry_seg_.valid && g_exit_seg_.valid)
            emax(thr, echain(echain(g_entry_seg_, slack), g_exit_seg_));
        out.through = thr.valid ? thr.len : kUnboundedStretch;
    }
    return out;
}

// ---------------------------------------------------------------------
// Structural and shape checks.

bool
structural_check(const Module &m, std::vector<Diag> &diags)
{
    bool ok = true;
    auto err = [&](std::string code, std::string msg, int fi, int bi,
                   int ii) {
        add_diag(diags, Severity::Error, std::move(code), std::move(msg), fi,
                 bi, ii);
        ok = false;
    };
    if (m.functions.empty()) {
        err("empty-module", "module has no functions", -1, -1, -1);
        return false;
    }
    for (size_t fi = 0; fi < m.functions.size(); ++fi) {
        const Function &fn = m.functions[fi];
        const int f = static_cast<int>(fi);
        if (fn.blocks.empty()) {
            err("empty-function", "function has no blocks", f, -1, -1);
            continue;
        }
        const int n = fn.num_blocks();
        for (int bi = 0; bi < n; ++bi) {
            const Block &blk = fn.blocks[static_cast<size_t>(bi)];
            const Terminator &t = blk.term;
            auto bad = [&](int x) { return x < 0 || x >= n; };
            if (t.kind == Terminator::Kind::Jump && bad(t.target))
                err("bad-branch-target", "jump target out of range", f, bi,
                    -1);
            if (t.kind == Terminator::Kind::Branch) {
                if (bad(t.target) || bad(t.target_else))
                    err("bad-branch-target", "branch target out of range", f,
                        bi, -1);
                if (t.model.kind == BranchModel::Kind::TripCount &&
                    t.model.trip_count == 0)
                    err("trip-count-zero",
                        "trip count 0 underflows the executor's counter", f,
                        bi, -1);
            }
            for (size_t ii = 0; ii < blk.instrs.size(); ++ii) {
                const Instr &ins = blk.instrs[ii];
                const int i = static_cast<int>(ii);
                if (ins.op == Op::Probe && ins.probe == ProbeKind::None)
                    err("probe-kind-none",
                        "Probe instruction with kind None aborts the "
                        "executor",
                        f, bi, i);
                if (ins.op != Op::Probe && ins.probe != ProbeKind::None)
                    add_diag(diags, Severity::Warning,
                             "probe-field-on-nonprobe",
                             "non-probe instruction carries a probe kind "
                             "(ignored at run time)",
                             f, bi, i);
                if (ins.op == Op::Call) {
                    if (ins.callee >= static_cast<int>(m.functions.size()))
                        err("bad-callee", "callee index out of range", f, bi,
                            i);
                    if (ins.callee < 0 && ins.ext_cost < 0)
                        err("negative-ext-cost",
                            "external call with negative cost", f, bi, i);
                }
                if (ins.op == Op::Probe &&
                    ins.probe == ProbeKind::TqLoopGuard && ins.period == 0)
                    err("guard-period-zero",
                        "loop guard period 0 divides by zero in the "
                        "executor",
                        f, bi, i);
            }
        }
    }
    return ok;
}

/** CFG-shape checks; false when the function cannot be analyzed. */
bool
check_function_shape(const Module &m, int fi, const Cfg &cfg,
                     std::vector<Diag> &diags)
{
    const Function &fn = m.functions[static_cast<size_t>(fi)];
    bool good = true;

    // Reducibility: every retreating RPO edge must be a back edge to a
    // dominating header; anything else defeats natural-loop reasoning.
    std::vector<int> pos(static_cast<size_t>(fn.num_blocks()), -1);
    for (size_t i = 0; i < cfg.rpo().size(); ++i)
        pos[static_cast<size_t>(cfg.rpo()[i])] = static_cast<int>(i);
    for (int u : cfg.rpo()) {
        for (int s : cfg.succs(u)) {
            if (pos[static_cast<size_t>(s)] <= pos[static_cast<size_t>(u)] &&
                !cfg.dominates(s, u)) {
                add_diag(diags, Severity::Error, "irreducible-cfg",
                         "retreating edge to b" + std::to_string(s) +
                             " is not a back edge to a dominating header",
                         fi, u, -1);
                good = false;
            }
        }
    }

    for (size_t li = 0; li < cfg.loops().size(); ++li) {
        const LoopInfo &loop = cfg.loops()[li];
        // Side entries defeat the loop-atom collapse.
        for (int b = 0; b < fn.num_blocks(); ++b) {
            if (!loop.contains(b) || b == loop.header)
                continue;
            for (int p : cfg.preds(b)) {
                if (cfg.reachable(p) && !loop.contains(p)) {
                    add_diag(diags, Severity::Error, "loop-side-entry",
                             "edge from b" + std::to_string(p) +
                                 " enters the loop headed by b" +
                                 std::to_string(loop.header) +
                                 " bypassing its header",
                             fi, b, -1);
                    good = false;
                }
            }
        }
        // Advisory: recorded loop facts vs the latch's actual model.
        const auto &facts =
            fn.blocks[static_cast<size_t>(loop.header)].loop_facts;
        if (facts.static_trip) {
            for (int u : loop.latches) {
                const Terminator &t = fn.blocks[static_cast<size_t>(u)].term;
                if (t.kind == Terminator::Kind::Branch &&
                    t.model.kind == BranchModel::Kind::TripCount &&
                    t.target == loop.header &&
                    t.model.trip_count != *facts.static_trip)
                    add_diag(diags, Severity::Warning, "loop-facts-mismatch",
                             "loop_facts.static_trip says " +
                                 std::to_string(*facts.static_trip) +
                                 " but the latch trip count is " +
                                 std::to_string(t.model.trip_count),
                             fi, loop.header, -1);
            }
        }
    }

    // Advisory: a loop guard outside any loop is almost certainly a
    // misplaced probe (legal, but it fires every `period` activations).
    for (int b = 0; b < fn.num_blocks(); ++b) {
        if (!cfg.reachable(b) || cfg.innermost_loop_of(b) >= 0)
            continue;
        const Block &blk = fn.blocks[static_cast<size_t>(b)];
        for (size_t ii = 0; ii < blk.instrs.size(); ++ii) {
            const Instr &ins = blk.instrs[ii];
            if (ins.is_probe() && ins.probe == ProbeKind::TqLoopGuard &&
                ins.period > 1)
                add_diag(diags, Severity::Warning, "guard-outside-loop",
                         "loop guard placed outside any natural loop", fi, b,
                         static_cast<int>(ii));
        }
    }
    return good;
}

// ---------------------------------------------------------------------
// Call graph, SCCs, module driver.

std::vector<std::vector<int>>
call_edges(const Module &m)
{
    std::vector<std::vector<int>> adj(m.functions.size());
    for (size_t fi = 0; fi < m.functions.size(); ++fi) {
        for (const auto &blk : m.functions[fi].blocks)
            for (const auto &ins : blk.instrs)
                if (ins.op == Op::Call && ins.callee >= 0 &&
                    std::find(adj[fi].begin(), adj[fi].end(), ins.callee) ==
                        adj[fi].end())
                    adj[fi].push_back(ins.callee);
    }
    return adj;
}

/** Tarjan SCCs, emitted callee-first (reverse topological order). */
struct Tarjan
{
    const std::vector<std::vector<int>> &adj;
    std::vector<int> index, low, stck;
    std::vector<char> on;
    int counter = 0;
    std::vector<std::vector<int>> sccs;

    explicit Tarjan(const std::vector<std::vector<int>> &a)
        : adj(a), index(a.size(), -1), low(a.size(), 0), on(a.size(), 0)
    {
        for (size_t v = 0; v < a.size(); ++v)
            if (index[v] < 0)
                dfs(static_cast<int>(v));
    }

    void
    dfs(int v)
    {
        const size_t vi = static_cast<size_t>(v);
        index[vi] = low[vi] = counter++;
        stck.push_back(v);
        on[vi] = 1;
        for (int w : adj[vi]) {
            const size_t wi = static_cast<size_t>(w);
            if (index[wi] < 0) {
                dfs(w);
                low[vi] = std::min(low[vi], low[wi]);
            } else if (on[wi]) {
                low[vi] = std::min(low[vi], index[wi]);
            }
        }
        if (low[vi] == index[vi]) {
            std::vector<int> scc;
            int w;
            do {
                w = stck.back();
                stck.pop_back();
                on[static_cast<size_t>(w)] = 0;
                scc.push_back(w);
            } while (w != v);
            sccs.push_back(std::move(scc));
        }
    }
};

std::string
fmt_len(uint64_t v)
{
    return v == kUnboundedStretch ? "unbounded" : std::to_string(v);
}

/**
 * Name the block of a witness that dominates the bound: the Block step
 * feeding the largest Repeat marker (the window spends most of its
 * length looping there), or the first Block step of a repeat-free
 * path. Returns {block, extra-iterations}; block -1 when the witness
 * carries no block step.
 */
std::pair<int, uint64_t>
witness_hotspot(const Witness &w)
{
    int best_block = -1;
    uint64_t best_count = 0;
    for (size_t i = 0; i < w.steps.size(); ++i) {
        const auto &s = w.steps[i];
        if (s.kind != Witness::Kind::Repeat || s.count <= best_count)
            continue;
        for (size_t j = i; j-- > 0;)
            if (w.steps[j].kind == Witness::Kind::Block) {
                best_block = w.steps[j].block;
                best_count = s.count;
                break;
            }
    }
    if (best_block >= 0)
        return {best_block, best_count};
    for (const auto &s : w.steps)
        if (s.kind == Witness::Kind::Block)
            return {s.block, 0};
    return {-1, 0};
}

// ---------------------------------------------------------------------
// Module driver: one straight pass over the structural check, the
// per-function shapes, the SCCs callee-first and the aggregate windows,
// emitting diags in that order.

struct ModuleAnalysis
{
    const Module &m;
    const VerifyConfig &cfg;

    std::vector<Cfg> cfgs;
    std::vector<char> bad;   ///< per-fn: shape check failed -> top
    std::vector<char> reach; ///< per-fn: reachable from entry
    std::vector<std::vector<int>> adj; ///< call graph (dedup'd edges)
    bool instrumented = false;

    VerifyResult res;

    ModuleAnalysis(const Module &mod, const VerifyConfig &vcfg)
        : m(mod), cfg(vcfg)
    {
    }

    void
    run()
    {
        res.functions.assign(m.functions.size(), FunctionStretch{});
        if (!structural_check(m, res.diags)) {
            for (auto &f : res.functions)
                f = top_summary();
            res.max_stretch = m.functions.empty() ? 0 : kUnboundedStretch;
            res.ok = false;
            return;
        }

        const size_t nf = m.functions.size();
        cfgs.reserve(nf);
        for (const auto &fn : m.functions)
            cfgs.emplace_back(fn);

        bad.assign(nf, 0);
        for (size_t fi = 0; fi < nf; ++fi)
            bad[fi] = !check_function_shape(m, static_cast<int>(fi),
                                            cfgs[fi], res.diags);

        adj = call_edges(m);
        reach.assign(nf, 0);
        std::deque<int> work{0};
        reach[0] = 1;
        while (!work.empty()) {
            const int v = work.front();
            work.pop_front();
            for (int w : adj[static_cast<size_t>(v)])
                if (!reach[static_cast<size_t>(w)]) {
                    reach[static_cast<size_t>(w)] = 1;
                    work.push_back(w);
                }
        }

        instrumented = m.probe_count() > 0;

        const Tarjan tarjan(adj);
        for (const std::vector<int> &scc : tarjan.sccs)
            run_scc(scc);
        aggregate();
    }

    FunctionStretch
    analyze(int fi, std::vector<Diag> &diags)
    {
        const size_t f = static_cast<size_t>(fi);
        if (bad[f])
            return top_summary();
        return FnAnalyzer(m, fi, cfgs[f], res.functions,
                          reach[f] && instrumented, diags)
            .run();
    }

    void
    run_scc(const std::vector<int> &scc)
    {
        std::vector<Diag> &diags = res.diags;
        const bool self_recursive =
            scc.size() == 1 &&
            std::find(adj[static_cast<size_t>(scc[0])].begin(),
                      adj[static_cast<size_t>(scc[0])].end(),
                      scc[0]) != adj[static_cast<size_t>(scc[0])].end();
        if (scc.size() == 1 && !self_recursive) {
            res.functions[static_cast<size_t>(scc[0])] =
                analyze(scc[0], diags);
            return;
        }
        // Recursive SCC: least fixpoint from bottom, widened to top if
        // it fails to converge. Either way the result is conservative.
        std::string names;
        for (int fi : scc)
            names += (names.empty() ? "" : ", ") +
                     m.functions[static_cast<size_t>(fi)].name;
        add_diag(diags, Severity::Warning, "recursion",
                 "recursive call cycle {" + names +
                     "}: stretch bounds are solved by fixpoint and may be "
                     "conservative",
                 scc[0], -1, -1);
        for (int fi : scc)
            res.functions[static_cast<size_t>(fi)] = FunctionStretch{};
        bool converged = false;
        std::vector<Diag> scratch;
        for (int round = 0; round < 40 && !converged; ++round) {
            converged = true;
            for (int fi : scc) {
                scratch.clear();
                FunctionStretch s = analyze(fi, scratch);
                if (!summary_equal(s,
                                   res.functions[static_cast<size_t>(fi)]))
                    converged = false;
                res.functions[static_cast<size_t>(fi)] = std::move(s);
            }
        }
        if (!converged) {
            add_diag(diags, Severity::Warning, "recursion-widened",
                     "recursive cycle {" + names +
                         "} did not converge; widening to unbounded",
                     scc[0], -1, -1);
            for (int fi : scc)
                res.functions[static_cast<size_t>(fi)] = top_summary();
        } else {
            for (int fi : scc)
                res.functions[static_cast<size_t>(fi)] =
                    analyze(fi, diags);
        }
    }

    void
    aggregate()
    {
        // Windows fully inside any reachable activation, plus the entry
        // function's leading / trailing / silent whole-run windows (the
        // executor counts stretch from program start).
        const size_t nf = m.functions.size();
        auto consider = [&](uint64_t v, int fi, const Witness &w) {
            if (res.worst_function < 0 || v > res.max_stretch) {
                res.max_stretch = v;
                res.worst_function = fi;
                res.worst_witness = w;
            }
        };
        for (size_t fi = 0; fi < nf; ++fi)
            if (reach[fi])
                consider(res.functions[fi].internal, static_cast<int>(fi),
                         res.functions[fi].internal_witness);
        const FunctionStretch &entry = res.functions[0];
        if (entry.may_fire) {
            consider(entry.entry_gap, 0, entry.entry_witness);
            consider(entry.exit_gap, 0, Witness{});
        }
        if (entry.may_not_fire)
            consider(entry.through, 0, Witness{});

        if (instrumented && res.max_stretch == kUnboundedStretch &&
            !res.has_errors())
            add_diag(res.diags, Severity::Error, "unbounded-stretch",
                     "instrumented module has no finite probe-free "
                     "stretch bound",
                     res.worst_function, -1, -1, res.worst_witness);
        if (cfg.fail_above != 0 && res.max_stretch > cfg.fail_above) {
            std::string msg = "proven stretch bound " +
                              fmt_len(res.max_stretch) +
                              " exceeds the configured limit " +
                              std::to_string(cfg.fail_above);
            const auto [hot_block, hot_count] =
                witness_hotspot(res.worst_witness);
            if (hot_block >= 0 && res.worst_function >= 0) {
                const std::string loc =
                    m.functions[static_cast<size_t>(res.worst_function)]
                        .name +
                    ":b" + std::to_string(hot_block);
                if (hot_count > 0)
                    msg += "; worst window loops through " + loc + " (x" +
                           std::to_string(hot_count) +
                           " more iterations)";
                else
                    msg += "; worst window runs through " + loc;
            }
            add_diag(res.diags, Severity::Error, "bound-exceeded",
                     std::move(msg), res.worst_function, -1, -1,
                     res.worst_witness);
        }

        res.ok = !res.has_errors();
    }
};

} // namespace

VerifyResult
verify_module(const Module &m, const VerifyConfig &cfg)
{
    ModuleAnalysis a(m, cfg);
    a.run();
    return std::move(a.res);
}

// ---------------------------------------------------------------------
// Rendering.

namespace {

std::string
loc_str(const Module &m, int fn, int block, int instr)
{
    std::string s;
    if (fn >= 0 && fn < static_cast<int>(m.functions.size()))
        s += m.functions[static_cast<size_t>(fn)].name;
    else
        s += "<module>";
    if (block >= 0)
        s += ":b" + std::to_string(block);
    if (instr >= 0)
        s += "#" + std::to_string(instr);
    return s;
}

void
render_witness(std::string &out, const Witness &w, const Module &m)
{
    for (const auto &s : w.steps) {
        switch (s.kind) {
          case Witness::Kind::Block:
            out += " -> " + loc_str(m, s.fn, s.block, -1);
            break;
          case Witness::Kind::Firing:
            out += " => fire@" + loc_str(m, s.fn, s.block, s.instr);
            break;
          case Witness::Kind::EnterCall:
            out += " -> call@" + loc_str(m, s.fn, s.block, s.instr);
            break;
          case Witness::Kind::Repeat:
            out += " (x" +
                   (s.count == kUnboundedStretch ? std::string("inf")
                                                 : std::to_string(s.count)) +
                   " more)";
            break;
          case Witness::Kind::Truncated:
            out += " ...";
            break;
        }
    }
}

const char *
severity_str(Severity s)
{
    switch (s) {
      case Severity::Note: return "note";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    return "?";
}

} // namespace

std::string
to_string(const Diag &d, const Module &m)
{
    std::string s = severity_str(d.severity);
    s += " [" + d.code + "] " + loc_str(m, d.fn, d.block, d.instr) + ": " +
         d.message;
    if (!d.witness.empty()) {
        s += "\n  witness:";
        render_witness(s, d.witness, m);
    }
    return s;
}

std::string
report(const VerifyResult &r, const Module &m)
{
    std::string s = "verify: ";
    s += r.ok ? "OK" : "FAIL";
    s += "  max_stretch=" + fmt_len(r.max_stretch);
    if (r.worst_function >= 0)
        s += "  worst=" + loc_str(m, r.worst_function, -1, -1);
    s += "\n";
    for (size_t fi = 0; fi < r.functions.size() && fi < m.functions.size();
         ++fi) {
        const FunctionStretch &f = r.functions[fi];
        s += "  fn " + m.functions[fi].name + ": fire=" +
             (f.may_fire ? "y" : "n") +
             " silent=" + (f.may_not_fire ? "y" : "n") +
             " entry=" + fmt_len(f.entry_gap) +
             " exit=" + fmt_len(f.exit_gap) +
             " through=" + fmt_len(f.through) +
             " internal=" + fmt_len(f.internal) + "\n";
    }
    if (!r.worst_witness.empty()) {
        s += "  worst path:";
        render_witness(s, r.worst_witness, m);
        s += "\n";
    }
    for (const auto &d : r.diags)
        s += to_string(d, m) + "\n";
    return s;
}

} // namespace tq::compiler
