/**
 * @file
 * Unit tests for the verify-guided placement optimizer: deletion of
 * provably redundant probes, exact rollback when a move breaks the
 * proof, loop hoisting, CI increment folding, the never-loosen default
 * target, and the optimizer's reported bound re-proving from scratch.
 * The whole-program acceptance sweep
 * (fewer probes at an unchanged-or-tighter proven bound on >= 15 of
 * the Table-3 programs) is pinned here too.
 */
#include <gtest/gtest.h>

#include "compiler/builder.h"
#include "compiler/exec.h"
#include "compiler/optimizer.h"
#include "compiler/passes.h"
#include "compiler/verifier.h"
#include "progs/programs.h"

namespace tq::compiler {
namespace {

Module
one_fn(Function f)
{
    Module m;
    m.name = "t";
    m.functions.push_back(std::move(f));
    return m;
}

/** 10 instrs | clock | 10 instrs | clock | 10 instrs. Proven bound 10. */
Module
two_probe_line()
{
    FunctionBuilder fb("main");
    const int b = fb.add_block();
    fb.ops(b, Op::IAlu, 10);
    Function f = fb.build();
    f.blocks[0].instrs.push_back(Instr::make_probe(ProbeKind::TqClock));
    for (int i = 0; i < 10; ++i)
        f.blocks[0].instrs.push_back(Instr::make(Op::IAlu));
    f.blocks[0].instrs.push_back(Instr::make_probe(ProbeKind::TqClock));
    for (int i = 0; i < 10; ++i)
        f.blocks[0].instrs.push_back(Instr::make(Op::IAlu));
    f.blocks[0].term = Terminator::ret();
    return one_fn(std::move(f));
}

void
expect_same_module(const Module &a, const Module &b)
{
    ASSERT_EQ(a.functions.size(), b.functions.size());
    for (size_t fi = 0; fi < a.functions.size(); ++fi) {
        const Function &fa = a.functions[fi];
        const Function &fb = b.functions[fi];
        ASSERT_EQ(fa.blocks.size(), fb.blocks.size());
        for (size_t bi = 0; bi < fa.blocks.size(); ++bi) {
            const Block &ba = fa.blocks[bi];
            const Block &bb = fb.blocks[bi];
            ASSERT_EQ(ba.instrs.size(), bb.instrs.size())
                << "fn " << fi << " block " << bi;
            for (size_t ii = 0; ii < ba.instrs.size(); ++ii) {
                EXPECT_EQ(ba.instrs[ii].op, bb.instrs[ii].op);
                EXPECT_EQ(ba.instrs[ii].probe, bb.instrs[ii].probe);
                EXPECT_EQ(ba.instrs[ii].ci_increment,
                          bb.instrs[ii].ci_increment);
                EXPECT_EQ(ba.instrs[ii].period, bb.instrs[ii].period);
            }
        }
    }
}

TEST(Optimizer, DefaultTargetNeverLoosens)
{
    // target_bound = 0 means "this placement's own proven bound" (10
    // here): deleting either probe would widen a window to 21, so
    // every move must roll back and the module must be untouched.
    Module m = two_probe_line();
    const Module before = m;

    const OptimizerResult r = optimize_placement(m);
    EXPECT_TRUE(r.ok);
    EXPECT_FALSE(r.changed);
    EXPECT_EQ(r.target, 10u);
    EXPECT_EQ(r.initial_bound, 10u);
    EXPECT_EQ(r.final_bound, 10u);
    EXPECT_EQ(r.final_probes, 2);
    EXPECT_GT(r.attempted, 0);
    EXPECT_EQ(r.attempted, r.rolled_back);
    expect_same_module(m, before);
}

TEST(Optimizer, DeletesProvablyRedundantProbes)
{
    // With a 50-instruction target the whole 30-instruction program
    // fits in one silent window: both probes are redundant.
    Module m = two_probe_line();
    OptimizerConfig cfg;
    cfg.target_bound = 50;

    const OptimizerResult r = optimize_placement(m, cfg);
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(r.changed);
    EXPECT_EQ(r.deleted, 2);
    EXPECT_EQ(r.final_probes, 0);
    EXPECT_EQ(m.probe_count(), 0);
    EXPECT_EQ(r.final_bound, 30u);

    ExecConfig ecfg;
    ecfg.seed = 7;
    const ExecResult er = execute(m, ecfg);
    EXPECT_LE(er.max_stretch_instrs, r.final_bound);
}

TEST(Optimizer, UnachievableBudgetFailsAndLeavesModuleUntouched)
{
    Module m = two_probe_line();
    const Module before = m;
    OptimizerConfig cfg;
    cfg.target_bound = 5; // tighter than the placement can prove

    const OptimizerResult r = optimize_placement(m, cfg);
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.changed);
    EXPECT_EQ(r.initial_bound, 10u);
    EXPECT_EQ(r.final_bound, 10u);
    expect_same_module(m, before);
}

TEST(Optimizer, GuardDeletionUsesTripCountKnowledge)
{
    // entry(2) -> loop(10 trips x 6 instrs, guard period 8) ->
    // exit(clock + 3 instrs). The guard caps the proven bound at ~50,
    // but the trip count is static: without the guard the loop is a
    // silent 60-instruction straight shot to the exit clock (bound
    // 62). At target 63 the optimizer can prove the guard away but
    // must keep the clock (deleting it too would mean a silent
    // 65-instruction run).
    FunctionBuilder fb("main");
    const int e = fb.add_block();
    const int h = fb.add_block();
    const int x = fb.add_block();
    fb.ops(e, Op::IAlu, 2).jump(e, h);
    fb.ops(h, Op::IAlu, 6);
    fb.latch(h, h, x, 10);
    fb.ops(x, Op::IAlu, 3).ret(x);
    Function f = fb.build();
    f.blocks[1].instrs.push_back(
        Instr::loop_guard(8, LoopGadget::Counter, 6));
    f.blocks[2].instrs.insert(f.blocks[2].instrs.begin(),
                              Instr::make_probe(ProbeKind::TqClock));
    Module m = one_fn(std::move(f));

    OptimizerConfig cfg;
    cfg.target_bound = 63;
    const OptimizerResult r = optimize_placement(m, cfg);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.deleted, 1);
    EXPECT_EQ(r.final_probes, 1);
    EXPECT_EQ(r.final_bound, 62u);

    ExecConfig ecfg;
    ecfg.seed = 7;
    const ExecResult er = execute(m, ecfg);
    EXPECT_LE(er.max_stretch_instrs, r.final_bound);
}

TEST(Optimizer, BudgetBelowInitialBoundReachedByDescent)
{
    // Same shape as GuardDeletionUsesTripCountKnowledge but with a
    // period-64 guard: M = 63 inflates the initial proven bound far
    // above the loop's real 62-instruction silent shot, so a budget of
    // 100 is unreachable by the input placement and only reachable by
    // descending through the guard deletion that shrinks M. The
    // 50-instruction exit tail keeps the clock load-bearing: deleting
    // it too would be a silent 112-instruction whole run > 100.
    FunctionBuilder fb("main");
    const int e = fb.add_block();
    const int h = fb.add_block();
    const int x = fb.add_block();
    fb.ops(e, Op::IAlu, 2).jump(e, h);
    fb.ops(h, Op::IAlu, 6);
    fb.latch(h, h, x, 10);
    fb.ops(x, Op::IAlu, 50).ret(x);
    Function f = fb.build();
    f.blocks[1].instrs.push_back(
        Instr::loop_guard(64, LoopGadget::Counter, 6));
    f.blocks[2].instrs.insert(f.blocks[2].instrs.begin(),
                              Instr::make_probe(ProbeKind::TqClock));
    Module m = one_fn(std::move(f));

    OptimizerConfig cfg;
    cfg.target_bound = 100;
    const OptimizerResult r = optimize_placement(m, cfg);
    EXPECT_TRUE(r.ok);
    EXPECT_GT(r.initial_bound, 100u);
    EXPECT_EQ(r.final_bound, 62u);
    EXPECT_EQ(r.final_probes, 1);

    ExecConfig ecfg;
    ecfg.seed = 7;
    const ExecResult er = execute(m, ecfg);
    EXPECT_LE(er.max_stretch_instrs, r.final_bound);
}

TEST(Optimizer, MissedBudgetAfterDescentRestoresTheModule)
{
    // Descent gets the same module down to 62 (guard gone), but 30 is
    // below anything the move set can prove — deleting the last clock
    // makes the whole run a silent 65-instruction shot, which is not a
    // tightening move. All-or-nothing: the module comes back
    // byte-exact, including the guard descent already deleted.
    FunctionBuilder fb("main");
    const int e = fb.add_block();
    const int h = fb.add_block();
    const int x = fb.add_block();
    fb.ops(e, Op::IAlu, 2).jump(e, h);
    fb.ops(h, Op::IAlu, 6);
    fb.latch(h, h, x, 10);
    fb.ops(x, Op::IAlu, 3).ret(x);
    Function f = fb.build();
    f.blocks[1].instrs.push_back(
        Instr::loop_guard(64, LoopGadget::Counter, 6));
    f.blocks[2].instrs.insert(f.blocks[2].instrs.begin(),
                              Instr::make_probe(ProbeKind::TqClock));
    Module m = one_fn(std::move(f));
    const Module before = m;

    OptimizerConfig cfg;
    cfg.target_bound = 30;
    const OptimizerResult r = optimize_placement(m, cfg);
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.changed);
    EXPECT_EQ(r.deleted, 0);
    EXPECT_EQ(r.final_bound, r.initial_bound);
    EXPECT_EQ(r.final_probes, r.initial_probes);
    expect_same_module(m, before);
}

TEST(Optimizer, HoistMovesClockOutOfLoop)
{
    // A clock probe inside a guarded loop body fires every iteration;
    // hoisted to the loop's unique exit it fires once per activation
    // while the guard keeps the loop bounded.
    FunctionBuilder fb("main");
    const int e = fb.add_block();
    const int h = fb.add_block();
    const int x = fb.add_block();
    fb.ops(e, Op::IAlu, 2).jump(e, h);
    fb.ops(h, Op::IAlu, 6);
    fb.latch(h, h, x, 100);
    fb.ops(x, Op::IAlu, 3).ret(x);
    Function f = fb.build();
    f.blocks[1].instrs.push_back(Instr::make_probe(ProbeKind::TqClock));
    f.blocks[1].instrs.push_back(
        Instr::loop_guard(8, LoopGadget::Counter, 6));
    Module m = one_fn(std::move(f));

    ExecConfig ecfg;
    ecfg.seed = 7;
    const uint64_t hits_before = execute(m, ecfg).probe_sites_hit;

    OptimizerConfig cfg;
    cfg.target_bound = 100;
    cfg.enable_delete = false; // isolate the hoist move
    const OptimizerResult r = optimize_placement(m, cfg);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.hoisted, 1);
    ASSERT_EQ(r.moves.size(), 1u);
    EXPECT_EQ(r.moves[0].kind, OptMove::Kind::Hoist);
    EXPECT_EQ(r.moves[0].dest_block, x);
    // The probe landed at the front of the exit block...
    ASSERT_FALSE(m.functions[0].blocks[2].instrs.empty());
    EXPECT_EQ(m.functions[0].blocks[2].instrs[0].probe,
              ProbeKind::TqClock);
    // ...and probe executions collapsed: the clock's 100 per-iteration
    // hits become 1, leaving only the guard's periodic firings.
    const ExecResult er = execute(m, ecfg);
    EXPECT_LT(er.probe_sites_hit, hits_before / 4);
    EXPECT_LE(er.max_stretch_instrs, r.final_bound);
}

TEST(Optimizer, CiIncrementFoldsIntoDownstreamProbe)
{
    // b0: 10 instrs + CI(10) -> b1: 600 instrs + CI(600) -> b2: 5
    // instrs. At target 610 the first probe is redundant (the entry
    // window grows to exactly 610) but its chain count must fold into
    // the survivor; the second probe must stay (deleting it too would
    // leave a silent 615-instruction run).
    FunctionBuilder fb("main");
    const int b0 = fb.add_block();
    const int b1 = fb.add_block();
    const int b2 = fb.add_block();
    fb.ops(b0, Op::IAlu, 10).jump(b0, b1);
    fb.ops(b1, Op::IAlu, 600).jump(b1, b2);
    fb.ops(b2, Op::IAlu, 5).ret(b2);
    Function f = fb.build();
    f.blocks[0].instrs.push_back(
        Instr::make_probe(ProbeKind::CiCounter, 10));
    f.blocks[1].instrs.push_back(
        Instr::make_probe(ProbeKind::CiCounter, 600));
    Module m = one_fn(std::move(f));

    OptimizerConfig cfg;
    cfg.target_bound = 610;
    const OptimizerResult r = optimize_placement(m, cfg);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.deleted, 1);
    EXPECT_EQ(r.final_probes, 1);
    ASSERT_FALSE(m.functions[0].blocks[1].instrs.empty());
    const Instr &survivor = m.functions[0].blocks[1].instrs.back();
    ASSERT_EQ(survivor.probe, ProbeKind::CiCounter);
    EXPECT_EQ(survivor.ci_increment, 610u);
}

TEST(Optimizer, AllProgramsShedProbesAtProvenBounds)
{
    // The PR acceptance sweep: across the Table-3 programs, the
    // optimizer must keep every proof intact (never loosen, dynamic
    // stretch within the proven bound) and shed probes on >= 15.
    int improved = 0;
    int total = 0;
    for (const auto &name : tq::progs::program_names()) {
        Module m = tq::progs::make_program(name);
        PassConfig pcfg;
        pcfg.bound = 400;
        run_tq_pass(m, pcfg);
        const int before = m.probe_count();

        const OptimizerResult r = optimize_placement(m);
        ASSERT_TRUE(r.ok) << name;
        EXPECT_LE(r.final_bound, r.initial_bound) << name;
        EXPECT_LE(r.final_probes, before) << name;

        const VerifyResult vr = verify_module(m);
        EXPECT_TRUE(vr.ok) << name << "\n" << report(vr, m);
        EXPECT_EQ(vr.max_stretch, r.final_bound) << name;

        ExecConfig ecfg;
        ecfg.quantum_cycles = 4200;
        ecfg.seed = 11;
        const ExecResult er = execute(m, ecfg);
        EXPECT_LE(er.max_stretch_instrs, r.final_bound) << name;

        ++total;
        improved += r.final_probes < before;
    }
    EXPECT_GE(improved, 15) << "of " << total << " programs";
}

TEST(Optimizer, CiPlacementsStayVerifiedAfterOptimize)
{
    // CI placements carry far more probes; the optimizer must hold
    // the same contract there (spot-checked — the fuzz suite covers
    // random shapes).
    for (const auto &name : {"fft", "barnes", "histogram", "canneal"}) {
        Module m = tq::progs::make_program(name);
        PassConfig pcfg;
        pcfg.bound = 400;
        run_ci_pass(m, pcfg);
        const int before = m.probe_count();

        const OptimizerResult r = optimize_placement(m);
        ASSERT_TRUE(r.ok) << name;
        EXPECT_LE(r.final_bound, r.initial_bound) << name;
        EXPECT_LE(r.final_probes, before) << name;
        const VerifyResult vr = verify_module(m);
        EXPECT_TRUE(vr.ok) << name;
        // Only CI placements take the fold-undo rollback, so this is
        // where a stale cached result would show.
        EXPECT_EQ(vr.max_stretch, r.final_bound) << name;
    }
}

} // namespace
} // namespace tq::compiler
