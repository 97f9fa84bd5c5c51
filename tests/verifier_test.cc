/**
 * @file
 * Unit tests for the static probe-bound verifier: exactness on
 * deterministic shapes, soundness against the timing executor,
 * structural diagnostics, and rejection of broken placements
 * (ISSUE acceptance: a stripped loop guard must be rejected with a
 * witness naming the offending loop).
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "compiler/builder.h"
#include "compiler/cfg.h"
#include "compiler/exec.h"
#include "compiler/passes.h"
#include "compiler/verifier.h"
#include "progs/programs.h"

namespace tq::compiler {
namespace {

/** Build a module from one function. */
Module
one_fn(Function f)
{
    Module m;
    m.name = "t";
    m.functions.push_back(std::move(f));
    return m;
}

ExecConfig
exec_cfg(uint64_t seed = 7)
{
    ExecConfig e;
    e.seed = seed;
    return e;
}

TEST(Verifier, StraightLineExact)
{
    // 10 instrs, clock probe, 7 instrs: windows are exactly 10 (entry)
    // and 7 (exit); max_stretch must equal 10.
    FunctionBuilder fb("main");
    const int b = fb.add_block();
    fb.ops(b, Op::IAlu, 10);
    Function f = fb.build();
    f.blocks[0].instrs.push_back(Instr::make_probe(ProbeKind::TqClock));
    for (int i = 0; i < 7; ++i)
        f.blocks[0].instrs.push_back(Instr::make(Op::IAlu));
    f.blocks[0].term = Terminator::ret();
    const Module m = one_fn(std::move(f));

    const VerifyResult r = verify_module(m);
    ASSERT_TRUE(r.ok) << report(r, m);
    EXPECT_EQ(r.max_stretch, 10u);
    EXPECT_EQ(r.functions[0].entry_gap, 10u);
    EXPECT_EQ(r.functions[0].exit_gap, 7u);
    EXPECT_TRUE(r.functions[0].may_fire);
    EXPECT_FALSE(r.functions[0].may_not_fire);

    const ExecResult er = execute(m, exec_cfg());
    EXPECT_LE(er.max_stretch_instrs, r.max_stretch);
    EXPECT_EQ(er.max_stretch_instrs, r.max_stretch);
}

TEST(Verifier, GuardedLoopExactCrossIteration)
{
    // for (trips=100) { 6 instrs; guard(period=8) }: the guard fires
    // every 8 iterations, so the worst probe-free window is exactly
    // 8 iterations * 6 instrs = 48 plus entry/exit tails of 2 / 3.
    FunctionBuilder fb("main");
    const int e = fb.add_block();
    const int h = fb.add_block();
    const int x = fb.add_block();
    fb.ops(e, Op::IAlu, 2).jump(e, h);
    fb.ops(h, Op::IAlu, 6);
    fb.latch(h, h, x, 100);
    fb.ops(x, Op::IAlu, 3).ret(x);
    Function f = fb.build();
    f.blocks[1].instrs.push_back(
        Instr::loop_guard(8, LoopGadget::Counter, 6));
    const Module m = one_fn(std::move(f));

    const VerifyResult r = verify_module(m);
    ASSERT_TRUE(r.ok) << report(r, m);
    // internal = period * body = 8 * 6 = 48.
    EXPECT_EQ(r.functions[0].internal, 48u);
    // entry gap: 2 + 8 iterations before the first firing = 2 + 48.
    EXPECT_EQ(r.functions[0].entry_gap, 50u);
    EXPECT_EQ(r.max_stretch, 50u);
    EXPECT_FALSE(r.worst_witness.empty());

    const ExecResult er = execute(m, exec_cfg());
    EXPECT_LE(er.max_stretch_instrs, r.max_stretch);
    // Deterministic loop: the bound is achieved exactly.
    EXPECT_EQ(er.max_stretch_instrs, r.max_stretch);
}

TEST(Verifier, StrippedGuardRejectedWithWitness)
{
    // The acceptance-criteria mutation: instrument a looped program
    // with the TQ pass, then strip a loop guard. The verifier must
    // reject with an unbounded-loop error whose witness names the
    // offending loop's blocks.
    FunctionBuilder fb("main");
    const int e = fb.add_block();
    const int h = fb.add_block();
    const int x = fb.add_block();
    // Entry exceeds the bound so the pass also places straight-line
    // clock probes: the module stays instrumented after the strip.
    fb.ops(e, Op::IAlu, 300).jump(e, h);
    fb.mix(h, 40, 4, 2);
    fb.branch(h, h, x, 0.99); // unknown trip count -> guard required
    fb.ops(x, Op::IAlu, 2).ret(x);
    Module m = one_fn(fb.build());

    PassConfig pcfg;
    pcfg.bound = 200;
    run_tq_pass(m, pcfg);
    ASSERT_TRUE(verify_module(m).ok);

    // Strip every loop guard (the broken placement).
    int header = -1;
    for (auto &blk : m.functions[0].blocks) {
        auto &is = blk.instrs;
        for (size_t i = 0; i < is.size(); ++i)
            if (is[i].is_probe() && is[i].probe == ProbeKind::TqLoopGuard)
                header = 1;
        is.erase(std::remove_if(is.begin(), is.end(),
                                [](const Instr &ins) {
                                    return ins.is_probe() &&
                                           ins.probe ==
                                               ProbeKind::TqLoopGuard;
                                }),
                 is.end());
    }
    ASSERT_EQ(header, 1) << "pass should have inserted a guard";

    const VerifyResult r = verify_module(m);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.max_stretch, kUnboundedStretch);
    bool found = false;
    for (const auto &d : r.diags) {
        if (d.code != "unbounded-loop")
            continue;
        found = true;
        EXPECT_EQ(d.severity, Severity::Error);
        EXPECT_EQ(d.fn, 0);
        EXPECT_EQ(d.block, h) << "diag must name the offending loop header";
        // The witness walks the guard-free cycle through the header.
        bool names_loop = false;
        for (const auto &s : d.witness.steps)
            if (s.kind == Witness::Kind::Block && s.block == h)
                names_loop = true;
        EXPECT_TRUE(names_loop);
    }
    EXPECT_TRUE(found) << report(r, m);
}

TEST(Verifier, CallCompositionSoundAndTight)
{
    // callee: 5 instrs, probe, 4 instrs. caller: 3 instrs, call, 6
    // instrs, ret. Windows: 3 + (1 + 5) = 9 entry, 4 + 6 = 10 exit.
    FunctionBuilder cb("callee");
    const int cb0 = cb.add_block();
    cb.ops(cb0, Op::IAlu, 5);
    Function cf = cb.build();
    cf.blocks[0].instrs.push_back(Instr::make_probe(ProbeKind::TqClock));
    for (int i = 0; i < 4; ++i)
        cf.blocks[0].instrs.push_back(Instr::make(Op::IAlu));
    cf.blocks[0].term = Terminator::ret();

    FunctionBuilder mb("main");
    const int mb0 = mb.add_block();
    mb.ops(mb0, Op::IAlu, 3).call(mb0, 1).ops(mb0, Op::IAlu, 6).ret(mb0);

    Module m;
    m.functions.push_back(mb.build());
    m.functions.push_back(std::move(cf));

    const VerifyResult r = verify_module(m);
    ASSERT_TRUE(r.ok) << report(r, m);
    EXPECT_EQ(r.functions[1].entry_gap, 5u);
    EXPECT_EQ(r.functions[1].exit_gap, 4u);
    EXPECT_FALSE(r.functions[1].may_not_fire);
    EXPECT_EQ(r.functions[0].entry_gap, 9u);  // 3 + call(1) + 5
    EXPECT_EQ(r.functions[0].exit_gap, 10u);  // 4 + 6
    EXPECT_EQ(r.max_stretch, 10u);

    const ExecResult er = execute(m, exec_cfg());
    EXPECT_EQ(er.max_stretch_instrs, r.max_stretch);
}

TEST(Verifier, ExternalCallChargedInExecutorUnits)
{
    // Executor charges floor(ext_cost / ialu) stretch for an external
    // call; the verifier must use the same units, not kExtCallInstrs.
    FunctionBuilder fb("main");
    const int b = fb.add_block();
    fb.ops(b, Op::IAlu, 2).ext_call(b, 500.0).ops(b, Op::IAlu, 1).ret(b);
    Module m = one_fn(fb.build());
    m.functions[0].blocks[0].instrs.insert(
        m.functions[0].blocks[0].instrs.begin(),
        Instr::make_probe(ProbeKind::TqClock));

    const VerifyResult r = verify_module(m);
    ASSERT_TRUE(r.ok) << report(r, m);
    const ExecResult er = execute(m, exec_cfg());
    EXPECT_LE(er.max_stretch_instrs, r.max_stretch);
    // 2 + 1 (call) + 500/ialu + 1, with CostModel{}.ialu cycles per IAlu.
    const uint64_t ext = static_cast<uint64_t>(500.0 / CostModel{}.ialu);
    EXPECT_EQ(r.max_stretch, 2u + 1u + ext + 1u);
}

TEST(Verifier, StructuralDiagnostics)
{
    // Bad branch target.
    {
        Module m;
        m.functions.emplace_back();
        m.functions[0].name = "f";
        m.functions[0].blocks.emplace_back();
        m.functions[0].blocks[0].term = Terminator::jump(7);
        const VerifyResult r = verify_module(m);
        EXPECT_FALSE(r.ok);
        ASSERT_FALSE(r.diags.empty());
        EXPECT_EQ(r.diags[0].code, "bad-branch-target");
    }
    // Guard with period 0 (executor divide-by-zero).
    {
        FunctionBuilder fb("f");
        const int b = fb.add_block();
        fb.ops(b, Op::IAlu, 1).ret(b);
        Module m = one_fn(fb.build());
        m.functions[0].blocks[0].instrs.push_back(
            Instr::loop_guard(0, LoopGadget::Counter, 1));
        const VerifyResult r = verify_module(m);
        EXPECT_FALSE(r.ok);
        bool found = false;
        for (const auto &d : r.diags)
            found |= d.code == "guard-period-zero";
        EXPECT_TRUE(found);
    }
    // Probe instruction with kind None (executor CHECK-fails).
    {
        FunctionBuilder fb("f");
        const int b = fb.add_block();
        fb.ops(b, Op::IAlu, 1).ret(b);
        Module m = one_fn(fb.build());
        m.functions[0].blocks[0].instrs.push_back(
            Instr::make_probe(ProbeKind::None));
        const VerifyResult r = verify_module(m);
        EXPECT_FALSE(r.ok);
        bool found = false;
        for (const auto &d : r.diags)
            found |= d.code == "probe-kind-none";
        EXPECT_TRUE(found);
    }
    // Trip count 0 underflows the executor's counter.
    {
        FunctionBuilder fb("f");
        const int h = fb.add_block();
        const int x = fb.add_block();
        fb.ops(h, Op::IAlu, 1).latch(h, h, x, 0);
        fb.ret(x);
        const Module m = one_fn(fb.build());
        const VerifyResult r = verify_module(m);
        EXPECT_FALSE(r.ok);
        bool found = false;
        for (const auto &d : r.diags)
            found |= d.code == "trip-count-zero";
        EXPECT_TRUE(found);
    }
}

TEST(Verifier, RecursionWarnsAndStaysSound)
{
    // f calls itself behind a probe; the fixpoint must warn and the
    // published bound must still dominate the executor's observation.
    FunctionBuilder fb("rec");
    const int b0 = fb.add_block();
    const int b1 = fb.add_block();
    const int b2 = fb.add_block();
    fb.ops(b0, Op::IAlu, 3).branch(b0, b1, b2, 0.3);
    fb.ops(b1, Op::IAlu, 2);
    Function f = fb.build();
    f.blocks[1].instrs.push_back(Instr::make_probe(ProbeKind::TqClock));
    f.blocks[1].instrs.push_back(Instr::call(0));
    f.blocks[1].term = Terminator::jump(b2);
    f.blocks[2].instrs.push_back(Instr::make(Op::IAlu));
    f.blocks[2].term = Terminator::ret();
    const Module m = one_fn(std::move(f));

    const VerifyResult r = verify_module(m);
    bool warned = false;
    for (const auto &d : r.diags)
        warned |= d.code == "recursion" || d.code == "recursion-widened";
    EXPECT_TRUE(warned);

    const ExecResult er = execute(m, exec_cfg(3));
    EXPECT_LE(er.max_stretch_instrs, r.max_stretch);
}

TEST(Verifier, UninstrumentedModuleHasNoObligation)
{
    // No probes: nothing to verify. through == whole-program weight for
    // trip-bounded programs, and no errors are raised.
    FunctionBuilder fb("main");
    const int h = fb.add_block();
    const int x = fb.add_block();
    fb.ops(h, Op::IAlu, 5).latch(h, h, x, 10);
    fb.ops(x, Op::IAlu, 2).ret(x);
    const Module m = one_fn(fb.build());
    const VerifyResult r = verify_module(m);
    EXPECT_TRUE(r.ok) << report(r, m);
    EXPECT_FALSE(r.functions[0].may_fire);
    EXPECT_TRUE(r.functions[0].may_not_fire);
    EXPECT_EQ(r.functions[0].through, 5u * 10u + 2u);
    const ExecResult er = execute(m, exec_cfg());
    EXPECT_EQ(er.max_stretch_instrs, r.max_stretch);
}

TEST(Verifier, FailAboveThreshold)
{
    FunctionBuilder fb("main");
    const int b = fb.add_block();
    fb.ops(b, Op::IAlu, 100).ret(b);
    Module m = one_fn(fb.build());
    m.functions[0].blocks[0].instrs.push_back(
        Instr::make_probe(ProbeKind::TqClock));

    VerifyConfig vc;
    vc.fail_above = 50;
    const VerifyResult r = verify_module(m, vc);
    EXPECT_FALSE(r.ok);
    bool found = false;
    for (const auto &d : r.diags)
        found |= d.code == "bound-exceeded";
    EXPECT_TRUE(found);

    vc.fail_above = 200;
    EXPECT_TRUE(verify_module(m, vc).ok);
}

TEST(Verifier, BoundExceededNamesTheHotLoop)
{
    // The budget diagnostic must say *where* the budget blows, not
    // just that it does: the block feeding the witness's dominant
    // Repeat marker, with the iteration count. Message pinned.
    FunctionBuilder fb("main");
    const int e = fb.add_block();
    const int h = fb.add_block();
    const int x = fb.add_block();
    fb.ops(e, Op::IAlu, 2).jump(e, h);
    fb.ops(h, Op::IAlu, 6);
    fb.latch(h, h, x, 100);
    fb.ops(x, Op::IAlu, 3).ret(x);
    Function f = fb.build();
    f.blocks[1].instrs.push_back(
        Instr::loop_guard(8, LoopGadget::Counter, 6));
    const Module m = one_fn(std::move(f));

    VerifyConfig vc;
    vc.fail_above = 40; // proven bound is 50
    const VerifyResult r = verify_module(m, vc);
    EXPECT_FALSE(r.ok);
    std::string msg;
    for (const auto &d : r.diags)
        if (d.code == "bound-exceeded")
            msg = d.message;
    EXPECT_EQ(msg,
              "proven stretch bound 50 exceeds the configured limit 40; "
              "worst window loops through main:b1 (x6 more iterations)");
}

TEST(Verifier, BoundExceededNamesStraightLineBlock)
{
    // Repeat-free worst path: the diagnostic names the first block of
    // the witness instead of a loop.
    FunctionBuilder fb("main");
    const int b = fb.add_block();
    fb.ops(b, Op::IAlu, 100).ret(b);
    Module m = one_fn(fb.build());
    m.functions[0].blocks[0].instrs.push_back(
        Instr::make_probe(ProbeKind::TqClock));

    VerifyConfig vc;
    vc.fail_above = 50;
    const VerifyResult r = verify_module(m, vc);
    EXPECT_FALSE(r.ok);
    std::string msg;
    for (const auto &d : r.diags)
        if (d.code == "bound-exceeded")
            msg = d.message;
    EXPECT_EQ(msg,
              "proven stretch bound 100 exceeds the configured limit 50; "
              "worst window runs through main:b0");
}

// --------------------------------------------------------------------
// Witness replay: re-derive the proven stretch from the reconstructed
// path alone. A witness is only evidence if its block sequence is CFG-
// consistent and its weights re-add to the claimed bound.

/** Real (non-probe) instructions of block @p b before index @p upto
 *  (-1 = the whole block). */
uint64_t
block_real_weight(const Module &m, int fn, int b, int upto)
{
    const auto &instrs = m.functions[static_cast<size_t>(fn)]
                             .blocks[static_cast<size_t>(b)]
                             .instrs;
    uint64_t w = 0;
    for (size_t i = 0; i < instrs.size(); ++i) {
        if (upto >= 0 && static_cast<int>(i) >= upto)
            break;
        w += !instrs[i].is_probe();
    }
    return w;
}

/**
 * Replay @p w through the semantics the executor implements: walk the
 * steps, charging each Block step its real-instruction weight (up to
 * the next Firing when it sits in the same block), and expanding each
 * Repeat marker by re-walking the segment between the previous two
 * Firing steps of the same site `count` more times. Verifies CFG
 * adjacency of consecutive Block steps along the way. Call-free,
 * untruncated witnesses only (crafted shapes).
 */
uint64_t
replay_witness(const Module &m, const Witness &w)
{
    const auto &steps = w.steps;
    uint64_t total = 0;
    int prev_block_fn = -1;
    int prev_block = -1;

    auto step_weight = [&](size_t i) -> uint64_t {
        const auto &s = steps[i];
        if (s.kind != Witness::Kind::Block)
            return 0;
        int upto = -1;
        if (i + 1 < steps.size() &&
            steps[i + 1].kind == Witness::Kind::Firing &&
            steps[i + 1].block == s.block && steps[i + 1].fn == s.fn)
            upto = steps[i + 1].instr;
        return block_real_weight(m, s.fn, s.block, upto);
    };

    for (size_t i = 0; i < steps.size(); ++i) {
        const auto &s = steps[i];
        EXPECT_NE(s.kind, Witness::Kind::EnterCall)
            << "replay does not model calls";
        EXPECT_NE(s.kind, Witness::Kind::Truncated);
        if (s.kind == Witness::Kind::Block) {
            if (prev_block >= 0 && s.fn == prev_block_fn) {
                const Cfg cfg(
                    m.functions[static_cast<size_t>(s.fn)]);
                const auto &succs = cfg.succs(prev_block);
                EXPECT_NE(std::find(succs.begin(), succs.end(), s.block),
                          succs.end())
                    << "witness jumps b" << prev_block << " -> b"
                    << s.block;
            }
            prev_block_fn = s.fn;
            prev_block = s.block;
            total += step_weight(i);
        } else if (s.kind == Witness::Kind::Repeat) {
            // The repeating unit is the step segment between the two
            // most recent firings of the same probe site.
            size_t j2 = i;
            while (j2-- > 0)
                if (steps[j2].kind == Witness::Kind::Firing)
                    break;
            size_t j1 = j2;
            while (j1-- > 0)
                if (steps[j1].kind == Witness::Kind::Firing &&
                    steps[j1].fn == steps[j2].fn &&
                    steps[j1].block == steps[j2].block &&
                    steps[j1].instr == steps[j2].instr)
                    break;
            uint64_t unit = 0;
            for (size_t k = j1 + 1; k <= j2; ++k)
                unit += step_weight(k);
            total += s.count * unit;
        }
    }
    return total;
}

TEST(Verifier, WitnessReplayStraightLine)
{
    FunctionBuilder fb("main");
    const int b = fb.add_block();
    fb.ops(b, Op::IAlu, 10);
    Function f = fb.build();
    f.blocks[0].instrs.push_back(Instr::make_probe(ProbeKind::TqClock));
    for (int i = 0; i < 7; ++i)
        f.blocks[0].instrs.push_back(Instr::make(Op::IAlu));
    f.blocks[0].term = Terminator::ret();
    const Module m = one_fn(std::move(f));

    const VerifyResult r = verify_module(m);
    ASSERT_TRUE(r.ok) << report(r, m);
    ASSERT_FALSE(r.worst_witness.empty());
    EXPECT_EQ(replay_witness(m, r.worst_witness), r.max_stretch);
    EXPECT_EQ(execute(m, exec_cfg()).max_stretch_instrs, r.max_stretch);
}

TEST(Verifier, WitnessReplayBranchyPath)
{
    // Diamond: entry(2) -> {then(5) | else(9)} -> join(probe, 4).
    // The worst path takes the heavy arm: replayed weight must be
    // exactly 2 + 9 = 11 and the adjacency checks must accept the
    // branch edges.
    FunctionBuilder fb("main");
    const int e = fb.add_block();
    const int t = fb.add_block();
    const int el = fb.add_block();
    const int j = fb.add_block();
    fb.ops(e, Op::IAlu, 2).branch(e, t, el, 0.5);
    fb.ops(t, Op::IAlu, 5).jump(t, j);
    fb.ops(el, Op::IAlu, 9).jump(el, j);
    fb.ops(j, Op::IAlu, 4).ret(j);
    Function f = fb.build();
    f.blocks[3].instrs.insert(f.blocks[3].instrs.begin(),
                              Instr::make_probe(ProbeKind::TqClock));
    const Module m = one_fn(std::move(f));

    const VerifyResult r = verify_module(m);
    ASSERT_TRUE(r.ok) << report(r, m);
    EXPECT_EQ(r.max_stretch, 11u);
    EXPECT_EQ(replay_witness(m, r.worst_witness), r.max_stretch);
    const ExecResult er = execute(m, exec_cfg());
    EXPECT_LE(er.max_stretch_instrs, r.max_stretch);
}

TEST(Verifier, WitnessReplayGuardedLoopCrossIteration)
{
    // The cross-iteration shape: the witness compresses 8 guarded
    // iterations into a Repeat marker; expansion must re-add to both
    // the entry bound (50) and the internal window (48), and the
    // executor must realize the bound exactly.
    FunctionBuilder fb("main");
    const int e = fb.add_block();
    const int h = fb.add_block();
    const int x = fb.add_block();
    fb.ops(e, Op::IAlu, 2).jump(e, h);
    fb.ops(h, Op::IAlu, 6);
    fb.latch(h, h, x, 100);
    fb.ops(x, Op::IAlu, 3).ret(x);
    Function f = fb.build();
    f.blocks[1].instrs.push_back(
        Instr::loop_guard(8, LoopGadget::Counter, 6));
    const Module m = one_fn(std::move(f));

    const VerifyResult r = verify_module(m);
    ASSERT_TRUE(r.ok) << report(r, m);
    EXPECT_EQ(r.max_stretch, 50u);
    EXPECT_EQ(replay_witness(m, r.worst_witness), 50u);
    EXPECT_EQ(replay_witness(m, r.functions[0].internal_witness), 48u);
    EXPECT_EQ(execute(m, exec_cfg()).max_stretch_instrs, r.max_stretch);
}

TEST(Verifier, AllProgramsAllPassesBoundSweep)
{
    // The tentpole obligation: verify_module proves a finite bound for
    // every built-in workload under all three passes across a bound
    // sweep, and the executor never exceeds it.
    for (const int bound : {100, 400, 1600}) {
        PassConfig pcfg;
        pcfg.bound = bound;
        for (const auto &name : progs::program_names()) {
            for (int tech = 0; tech < 3; ++tech) {
                Module m = progs::make_program(name);
                if (tech == 0)
                    run_tq_pass(m, pcfg);
                else if (tech == 1)
                    run_ci_pass(m, pcfg);
                else
                    run_ci_cycles_pass(m, pcfg);
                const VerifyResult r = verify_module(m);
                ASSERT_TRUE(r.ok)
                    << name << " tech=" << tech << " bound=" << bound
                    << "\n"
                    << report(r, m);
                ASSERT_NE(r.max_stretch, kUnboundedStretch) << name;
                ExecConfig ecfg = exec_cfg(11);
                const ExecResult er = execute(m, ecfg);
                ASSERT_LE(er.max_stretch_instrs, r.max_stretch)
                    << name << " tech=" << tech << " bound=" << bound;
            }
        }
    }
}

} // namespace
} // namespace tq::compiler
