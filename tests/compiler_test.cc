/**
 * @file
 * Tests for the mini-IR, CFG analyses, instrumentation passes, and timing
 * executor: loop detection on crafted graphs, placement-bound invariants,
 * probe-count comparisons between techniques, and executor semantics.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "compiler/builder.h"
#include "compiler/cfg.h"
#include "compiler/exec.h"
#include "compiler/passes.h"
#include "compiler/report.h"
#include "compiler/verifier.h"

namespace tq::compiler {
namespace {

/** Straight-line function: entry -> mid -> exit, `n` IAlu per block. */
Module
straightline(int n)
{
    FunctionBuilder fb("straight");
    const int a = fb.add_block();
    const int b = fb.add_block();
    const int c = fb.add_block();
    fb.ops(a, Op::IAlu, n).jump(a, b);
    fb.ops(b, Op::IAlu, n).jump(b, c);
    fb.ops(c, Op::IAlu, n).ret(c);
    Module m;
    m.name = "straight";
    m.functions.push_back(fb.build());
    return m;
}

/** Diamond: entry branches to two sides that rejoin. */
Module
diamond(int left_n, int right_n)
{
    FunctionBuilder fb("diamond");
    const int a = fb.add_block();
    const int l = fb.add_block();
    const int r = fb.add_block();
    const int j = fb.add_block();
    fb.ops(a, Op::IAlu, 2).branch(a, l, r, 0.5);
    fb.ops(l, Op::IAlu, left_n).jump(l, j);
    fb.ops(r, Op::IAlu, right_n).jump(r, j);
    fb.ops(j, Op::IAlu, 2).ret(j);
    Module m;
    m.name = "diamond";
    m.functions.push_back(fb.build());
    return m;
}

/** Single self-loop with a known/unknown trip count. */
Module
simple_loop(uint64_t trips, bool known, bool induction, int body_n)
{
    FunctionBuilder fb("loop");
    const int a = fb.add_block();
    const int l = fb.add_block();
    const int e = fb.add_block();
    fb.ops(a, Op::IAlu, 1).jump(a, l);
    fb.ops(l, Op::IAlu, body_n);
    fb.latch(l, l, e, trips);
    fb.loop_facts(l, known ? std::optional<uint64_t>(trips) : std::nullopt,
                  induction);
    fb.ops(e, Op::IAlu, 1).ret(e);
    Module m;
    m.name = "loop";
    m.functions.push_back(fb.build());
    return m;
}

// ---------------------------------------------------------------- CFG --

TEST(Cfg, StraightLineOrderAndDominators)
{
    Module m = straightline(3);
    Cfg cfg(m.entry());
    EXPECT_EQ(cfg.rpo(), (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(cfg.idom(1), 0);
    EXPECT_EQ(cfg.idom(2), 1);
    EXPECT_TRUE(cfg.dominates(0, 2));
    EXPECT_FALSE(cfg.dominates(2, 0));
    EXPECT_TRUE(cfg.loops().empty());
}

TEST(Cfg, DiamondJoinDominatedByEntryOnly)
{
    Module m = diamond(3, 5);
    Cfg cfg(m.entry());
    EXPECT_EQ(cfg.idom(3), 0) << "join dominated by the fork, not a side";
    EXPECT_TRUE(cfg.dominates(0, 3));
    EXPECT_FALSE(cfg.dominates(1, 3));
    EXPECT_TRUE(cfg.loops().empty());
}

TEST(Cfg, DetectsSelfLoop)
{
    Module m = simple_loop(10, false, false, 4);
    Cfg cfg(m.entry());
    ASSERT_EQ(cfg.loops().size(), 1u);
    const LoopInfo &loop = cfg.loops()[0];
    EXPECT_EQ(loop.header, 1);
    EXPECT_EQ(loop.latches, (std::vector<int>{1}));
    EXPECT_TRUE(loop.contains(1));
    EXPECT_FALSE(loop.contains(0));
    EXPECT_EQ(loop.depth, 1);
    EXPECT_EQ(cfg.loop_with_header(1), 0);
}

TEST(Cfg, DetectsNestedLoopsInnermostFirst)
{
    // bb0 -> bb1 (outer header) -> bb2 (inner self loop) -> bb3 (outer
    // latch) -> bb1 / bb4.
    FunctionBuilder fb("nest");
    const int b0 = fb.add_block();
    const int b1 = fb.add_block();
    const int b2 = fb.add_block();
    const int b3 = fb.add_block();
    const int b4 = fb.add_block();
    fb.jump(b0, b1);
    fb.ops(b1, Op::IAlu, 1).jump(b1, b2);
    fb.ops(b2, Op::IAlu, 2).latch(b2, b2, b3, 5);
    fb.ops(b3, Op::IAlu, 1).latch(b3, b1, b4, 7);
    fb.ret(b4);
    Module m;
    m.functions.push_back(fb.build());
    Cfg cfg(m.entry());
    ASSERT_EQ(cfg.loops().size(), 2u);
    // Innermost first: the self-loop at bb2 (depth 2) precedes the outer.
    EXPECT_EQ(cfg.loops()[0].header, b2);
    EXPECT_EQ(cfg.loops()[0].depth, 2);
    EXPECT_EQ(cfg.loops()[1].header, b1);
    EXPECT_EQ(cfg.loops()[1].depth, 1);
    EXPECT_EQ(cfg.loops()[0].parent, 1);
    EXPECT_EQ(cfg.innermost_loop_of(b2), 0);
    EXPECT_EQ(cfg.innermost_loop_of(b3), 1);
    EXPECT_TRUE(cfg.loops()[1].contains(b2));
}

TEST(Cfg, UnreachableBlocksExcluded)
{
    FunctionBuilder fb("unreach");
    const int a = fb.add_block();
    const int dead = fb.add_block();
    fb.ops(a, Op::IAlu, 1).ret(a);
    fb.ops(dead, Op::IAlu, 1).ret(dead);
    Module m;
    m.functions.push_back(fb.build());
    Cfg cfg(m.entry());
    EXPECT_TRUE(cfg.reachable(a));
    EXPECT_FALSE(cfg.reachable(dead));
}

// -------------------------------------------------------------- passes --

TEST(TqPass, StraightLineRespectsBound)
{
    Module m = straightline(50); // 150 instructions total
    PassConfig cfg;
    cfg.bound = 40;
    run_tq_pass(m, cfg);
    const StretchFacts facts = analyze_stretch(m.entry(), cfg, {});
    EXPECT_TRUE(facts.has_probes);
    EXPECT_LE(facts.max_gap, cfg.bound);
    EXPECT_GE(m.entry().probe_count(), 3); // 150/40 ~ 4 probes
}

TEST(TqPass, ShortFunctionGetsNoProbes)
{
    Module m = straightline(5); // 15 instructions < bound
    PassConfig cfg;
    cfg.bound = 100;
    const auto summaries = run_tq_pass(m, cfg);
    EXPECT_EQ(m.entry().probe_count(), 0);
    EXPECT_FALSE(summaries[0].has_probes);
    EXPECT_EQ(summaries[0].entry_gap, 15);
}

TEST(TqPass, DiamondBoundsLongestSide)
{
    Module m = diamond(100, 5);
    PassConfig cfg;
    cfg.bound = 60;
    run_tq_pass(m, cfg);
    const StretchFacts facts = analyze_stretch(m.entry(), cfg, {});
    EXPECT_LE(facts.max_gap, cfg.bound);
    // The short side plus join must not need a probe.
    EXPECT_EQ(m.entry().blocks[2].instrs.size(), 5u);
}

TEST(TqPass, SkipsSmallStaticLoop)
{
    Module m = simple_loop(8, /*known=*/true, true, 4); // 8*4 = 32 <= bound
    PassConfig cfg;
    cfg.bound = 100;
    run_tq_pass(m, cfg);
    EXPECT_EQ(m.entry().probe_count(), 0)
        << "statically small loops are left uninstrumented";
}

TEST(TqPass, GuardsUnknownTripLoop)
{
    Module m = simple_loop(1000, /*known=*/false, false, 4);
    PassConfig cfg;
    cfg.bound = 100;
    run_tq_pass(m, cfg);
    // Exactly one loop-guard probe at the latch; no dense probing.
    int guards = 0;
    for (const auto &b : m.entry().blocks)
        for (const auto &i : b.instrs)
            if (i.probe == ProbeKind::TqLoopGuard)
                ++guards;
    EXPECT_EQ(guards, 1);
    EXPECT_EQ(m.entry().probe_count(), 1);
}

TEST(TqPass, GuardPeriodSpreadsBoundOverIterations)
{
    Module m = simple_loop(100000, false, false, 5);
    PassConfig cfg;
    cfg.bound = 100;
    run_tq_pass(m, cfg);
    const Instr *guard = nullptr;
    for (const auto &b : m.entry().blocks)
        for (const auto &i : b.instrs)
            if (i.probe == ProbeKind::TqLoopGuard)
                guard = &i;
    ASSERT_NE(guard, nullptr);
    // body stretch is ~5-6 instructions -> period ~ bound / stretch.
    EXPECT_GE(guard->period, 10u);
    EXPECT_LE(guard->period, 25u);
    EXPECT_GE(guard->stretch_hint, 5u);
}

TEST(TqPass, SelfLoopUsesCloningGadget)
{
    Module m = simple_loop(5000, false, /*induction=*/false, 4);
    PassConfig cfg;
    cfg.bound = 80;
    run_tq_pass(m, cfg);
    for (const auto &b : m.entry().blocks)
        for (const auto &i : b.instrs)
            if (i.probe == ProbeKind::TqLoopGuard) {
                EXPECT_EQ(i.gadget, LoopGadget::Cloned);
            }
}

TEST(TqPass, InductionVariablePreferredOverCounter)
{
    // Two-block loop (not a self loop) with an induction variable.
    FunctionBuilder fb("ind");
    const int a = fb.add_block();
    const int h = fb.add_block();
    const int l = fb.add_block();
    const int e = fb.add_block();
    fb.jump(a, h);
    fb.ops(h, Op::IAlu, 3).jump(h, l);
    fb.ops(l, Op::IAlu, 3).latch(l, h, e, 5000);
    fb.loop_facts(h, std::nullopt, true);
    fb.ret(e);
    Module m;
    m.functions.push_back(fb.build());
    PassConfig cfg;
    cfg.bound = 80;
    run_tq_pass(m, cfg);
    int guards = 0;
    for (const auto &b : m.entry().blocks)
        for (const auto &i : b.instrs)
            if (i.probe == ProbeKind::TqLoopGuard) {
                ++guards;
                EXPECT_EQ(i.gadget, LoopGadget::Induction);
            }
    EXPECT_EQ(guards, 1);
}

TEST(TqPass, DenseLoopBodyGetsIntraBodyProbes)
{
    // Body longer than the bound: straight-line probes must appear inside.
    Module m = simple_loop(50, false, false, 300);
    PassConfig cfg;
    cfg.bound = 100;
    run_tq_pass(m, cfg);
    int clock_probes = 0;
    for (const auto &i : m.entry().blocks[1].instrs)
        clock_probes += i.probe == ProbeKind::TqClock;
    EXPECT_GE(clock_probes, 2) << "300-instr body needs ~3 probes";
}

TEST(TqPass, CallToInstrumentedCalleeUsesSummary)
{
    // callee: long straight-line (gets probes); caller calls it twice.
    FunctionBuilder callee("callee");
    const int cb = callee.add_block();
    callee.ops(cb, Op::IAlu, 500).ret(cb);

    FunctionBuilder caller("caller");
    const int b = caller.add_block();
    caller.ops(b, Op::IAlu, 5);
    caller.call(b, 1);
    caller.ops(b, Op::IAlu, 5);
    caller.call(b, 1);
    caller.ops(b, Op::IAlu, 5);
    caller.ret(b);

    Module m;
    m.functions.push_back(caller.build());
    m.functions.push_back(callee.build());
    PassConfig cfg;
    cfg.bound = 100;
    const auto summaries = run_tq_pass(m, cfg);
    EXPECT_TRUE(summaries[1].has_probes);
    EXPECT_LE(summaries[1].entry_gap, cfg.bound);
    EXPECT_LE(summaries[1].exit_gap, cfg.bound);
    // The callee handles its own probing; the caller conservatively
    // probes at call boundaries (the callee's entry/exit gaps are at the
    // bound, so any caller-side instructions overflow it), but must not
    // probe densely: at most one probe around each call plus slack.
    EXPECT_LE(m.functions[0].probe_count(), 4);
    const StretchFacts caller_facts =
        analyze_stretch(m.functions[0], cfg, summaries);
    // Probe-free stretches in the caller stay within bound plus one
    // callee residual (the documented conservative guarantee).
    EXPECT_LE(caller_facts.max_gap, 2 * cfg.bound + 2);
}

TEST(TqPass, ExternalCallChargedCost)
{
    FunctionBuilder fb("ext");
    const int b = fb.add_block();
    for (int i = 0; i < 10; ++i) {
        fb.ops(b, Op::IAlu, 2);
        fb.ext_call(b, 100);
    }
    fb.ret(b);
    Module m;
    m.functions.push_back(fb.build());
    PassConfig cfg;
    cfg.bound = 60;
    cfg.ext_call_instrs = 25;
    run_tq_pass(m, cfg);
    // Each (2 + 1 + 25) = 28-instr step; bound 60 -> probe every ~2 steps.
    EXPECT_GE(m.entry().probe_count(), 4);
}

TEST(CiPass, ProbesEveryBlockWithoutMerging)
{
    Module m = diamond(10, 10);
    PassConfig cfg;
    cfg.ci_merge_chains = false;
    run_ci_pass(m, cfg);
    // One CiCounter probe per (reachable) block.
    for (const auto &b : m.entry().blocks) {
        int probes = 0;
        uint32_t inc = 0;
        for (const auto &i : b.instrs)
            if (i.probe == ProbeKind::CiCounter) {
                ++probes;
                inc = i.ci_increment;
            }
        EXPECT_EQ(probes, 1);
        EXPECT_EQ(inc, static_cast<uint32_t>(b.real_instr_count()));
    }
}

TEST(CiPass, ChainMergingReducesProbes)
{
    Module unmerged = straightline(10);
    Module merged = straightline(10);
    PassConfig no_merge;
    no_merge.ci_merge_chains = false;
    PassConfig with_merge;
    with_merge.ci_merge_chains = true;
    run_ci_pass(unmerged, no_merge);
    run_ci_pass(merged, with_merge);
    EXPECT_EQ(unmerged.entry().probe_count(), 3);
    EXPECT_EQ(merged.entry().probe_count(), 1)
        << "a straight-line chain collapses to one probe";
    // Total counted instructions must be preserved by merging.
    uint32_t total = 0;
    for (const auto &b : merged.entry().blocks)
        for (const auto &i : b.instrs)
            if (i.probe == ProbeKind::CiCounter)
                total += i.ci_increment;
    EXPECT_EQ(total, 30u);
}

TEST(Passes, TqInsertsFarFewerProbesThanCiOnBranchyCode)
{
    // The headline structural claim (paper section 3.1): CI must probe
    // at basic-block granularity, TQ probes sparsely.
    FunctionBuilder fb("branchy");
    const int entry = fb.add_block();
    int prev = entry;
    fb.ops(entry, Op::IAlu, 2);
    for (int d = 0; d < 20; ++d) {
        const int l = fb.add_block();
        const int r = fb.add_block();
        const int j = fb.add_block();
        fb.branch(prev, l, r, 0.5);
        fb.ops(l, Op::IAlu, 3).jump(l, j);
        fb.ops(r, Op::IAlu, 4).jump(r, j);
        fb.ops(j, Op::IAlu, 1);
        prev = j;
    }
    fb.ret(prev);
    Module base;
    base.functions.push_back(fb.build());

    Module ci = base;
    Module tq_mod = base;
    PassConfig cfg;
    cfg.bound = 60;
    run_ci_pass(ci, cfg);
    run_tq_pass(tq_mod, cfg);
    const int ci_probes = ci.probe_count();
    const int tq_probes = tq_mod.probe_count();
    EXPECT_GT(ci_probes, 5 * std::max(tq_probes, 1))
        << "CI=" << ci_probes << " TQ=" << tq_probes;
}

// ------------------------------------------------------------ executor --

TEST(Exec, StraightLineCycleCount)
{
    Module m = straightline(10);
    ExecConfig cfg;
    cfg.cost.load_miss_rate = 0; // deterministic
    const ExecResult r = execute(m, cfg);
    EXPECT_EQ(r.real_instrs, 30u);
    EXPECT_DOUBLE_EQ(r.total_cycles, 30.0 * cfg.cost.ialu);
    EXPECT_EQ(r.yields, 0u);
    EXPECT_DOUBLE_EQ(r.overhead(), 0.0);
}

TEST(Exec, TripCountLoopRunsExactIterations)
{
    Module m = simple_loop(100, false, false, 7);
    ExecConfig cfg;
    const ExecResult r = execute(m, cfg);
    // 1 (pre) + 100*7 (body) + 1 (post)
    EXPECT_EQ(r.real_instrs, 702u);
}

TEST(Exec, NestedTripCountsMultiply)
{
    FunctionBuilder fb("nest");
    const int b0 = fb.add_block();
    const int outer = fb.add_block();
    const int inner = fb.add_block();
    const int olatch = fb.add_block();
    const int exit = fb.add_block();
    fb.jump(b0, outer);
    fb.jump(outer, inner);
    fb.ops(inner, Op::IAlu, 1).latch(inner, inner, olatch, 10);
    fb.latch(olatch, outer, exit, 5);
    fb.ret(exit);
    Module m;
    m.functions.push_back(fb.build());
    const ExecResult r = execute(m, ExecConfig{});
    EXPECT_EQ(r.real_instrs, 50u) << "10 inner x 5 outer";
}

TEST(Exec, BernoulliBranchFrequency)
{
    // Loop 10000 times; each iteration takes a 0.3-probability branch
    // with 1 extra instruction on the taken side.
    FunctionBuilder fb("bern");
    const int b0 = fb.add_block();
    const int h = fb.add_block();
    const int t = fb.add_block();
    const int l = fb.add_block();
    const int e = fb.add_block();
    fb.jump(b0, h);
    fb.ops(h, Op::IAlu, 1).branch(h, t, l, 0.3);
    fb.ops(t, Op::IAlu, 1).jump(t, l);
    fb.latch(l, h, e, 10000);
    fb.ret(e);
    Module m;
    m.functions.push_back(fb.build());
    const ExecResult r = execute(m, ExecConfig{});
    const double taken =
        static_cast<double>(r.real_instrs) - 10000; // extra instrs
    EXPECT_NEAR(taken / 10000, 0.3, 0.03);
}

TEST(Exec, LoadMissesRaiseCycles)
{
    FunctionBuilder fb("loads");
    const int b = fb.add_block();
    fb.ops(b, Op::Load, 10000).ret(b);
    Module m;
    m.functions.push_back(fb.build());
    ExecConfig cfg;
    cfg.cost.load_miss_rate = 0.1;
    const ExecResult r = execute(m, cfg);
    const double expected =
        10000 * (0.9 * cfg.cost.load_hit + 0.1 * cfg.cost.load_miss);
    EXPECT_NEAR(r.total_cycles, expected, expected * 0.1);
}

TEST(Exec, CallsExecuteCalleeInstrs)
{
    FunctionBuilder callee("callee");
    const int cb = callee.add_block();
    callee.ops(cb, Op::IAlu, 9).ret(cb);
    FunctionBuilder caller("caller");
    const int b = caller.add_block();
    caller.call(b, 1).call(b, 1).ret(b);
    Module m;
    m.functions.push_back(caller.build());
    m.functions.push_back(callee.build());
    const ExecResult r = execute(m, ExecConfig{});
    EXPECT_EQ(r.real_instrs, 2u * 9 + 2 /*call instrs*/);
}

TEST(Exec, TqProbesYieldNearQuantum)
{
    Module m = simple_loop(200000, false, false, 5);
    PassConfig pcfg;
    pcfg.bound = 100;
    run_tq_pass(m, pcfg);
    ExecConfig cfg;
    cfg.quantum_cycles = 4200; // 2us at 2.1GHz
    const ExecResult r = execute(m, cfg);
    EXPECT_GT(r.yields, 100u);
    // MAE well under the quantum: probes fire every <=100 instrs.
    EXPECT_LT(r.yield_mae_cycles, 0.25 * cfg.quantum_cycles);
    // Placement invariant, statically proven: the verifier computes the
    // exact worst-case probe-free stretch and execution must honor it.
    const VerifyResult vr = verify_module(m);
    ASSERT_TRUE(vr.ok) << report(vr, m);
    ASSERT_NE(vr.max_stretch, kUnboundedStretch);
    EXPECT_LE(r.max_stretch_instrs, vr.max_stretch);
}

TEST(Exec, CiYieldTimingSuffersFromVariableLatency)
{
    // With variable load latency, CI's instruction-count translation
    // must show a larger MAE than TQ's clock probes on the same program.
    auto build = [] {
        FunctionBuilder fb("var");
        const int b0 = fb.add_block();
        const int l = fb.add_block();
        const int e = fb.add_block();
        fb.jump(b0, l);
        fb.ops(l, Op::IAlu, 3).ops(l, Op::Load, 3);
        fb.latch(l, l, e, 300000);
        fb.loop_facts(l, std::nullopt, false);
        fb.ret(e);
        Module m;
        m.functions.push_back(fb.build());
        return m;
    };
    PassConfig pcfg;
    pcfg.bound = 120;
    ExecConfig cfg;
    cfg.quantum_cycles = 4200;
    cfg.cost.load_miss_rate = 0.05;

    Module tq_mod = build();
    run_tq_pass(tq_mod, pcfg);
    const ExecResult tq_res = execute(tq_mod, cfg);

    Module ci_mod = build();
    run_ci_pass(ci_mod, pcfg);
    const ExecResult ci_res = execute(ci_mod, cfg);

    ASSERT_GT(tq_res.yields, 50u);
    ASSERT_GT(ci_res.yields, 50u);
    EXPECT_LT(tq_res.yield_mae_cycles, ci_res.yield_mae_cycles)
        << "physical clock must out-time instruction counting";
}

TEST(Report, CompareTechniquesProducesAllMetrics)
{
    Module m = simple_loop(100000, false, false, 6);
    PassConfig pcfg;
    pcfg.bound = 100;
    ExecConfig cfg;
    cfg.quantum_cycles = 4200;
    const ComparisonRow row = compare_techniques(m, pcfg, cfg);
    EXPECT_EQ(row.workload, "loop");
    EXPECT_GT(row.ci.static_probes, 0);
    EXPECT_GT(row.tq.static_probes, 0);
    EXPECT_GT(row.ci.overhead, 0.0);
    EXPECT_GT(row.tq.overhead, 0.0);
    EXPECT_GT(row.ci.yields, 0u);
    EXPECT_GT(row.tq.yields, 0u);
    // CI-Cycles costs at least as much as CI (same placement + clock).
    EXPECT_GE(row.ci_cycles.overhead, row.ci.overhead * 0.99);
}

} // namespace
} // namespace tq::compiler
