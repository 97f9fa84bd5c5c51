/**
 * @file
 * Differential fuzz test: verifier vs executor on randomized CFGs.
 *
 * A seeded, deterministic generator produces multi-function modules
 * (sequences, diamonds, TripCount and Bernoulli loops, internal and
 * external calls). Each module is instrumented with all three passes
 * at a rotating bound sweep, statically verified, and executed; the
 * property under test is the paper's placement invariant itself:
 *
 *     dynamic max_stretch_instrs  <=  static verified bound
 *
 * A violation in either direction is a real bug — in the pass, the
 * verifier, or the executor (ISSUE 4 acceptance criterion: >= 1000
 * seeds).
 */
#include <gtest/gtest.h>

#include "common/rng.h"
#include "compiler/builder.h"
#include "compiler/exec.h"
#include "compiler/optimizer.h"
#include "compiler/passes.h"
#include "compiler/verifier.h"

namespace tq::compiler {
namespace {

/** Structured random module: entry f0 may call f1..fn-1 (acyclic). */
class FuzzModuleBuilder
{
  public:
    explicit FuzzModuleBuilder(uint64_t seed) : rng_(seed) {}

    Module
    build()
    {
        Module m;
        m.name = "fuzz";
        const int nfuncs = 1 + static_cast<int>(rng_.below(3));
        m.functions.resize(static_cast<size_t>(nfuncs));
        // Callees first, so call targets always point at already-built
        // higher-indexed functions (keeps the call graph acyclic).
        for (int fi = nfuncs - 1; fi >= 0; --fi)
            m.functions[static_cast<size_t>(fi)] =
                build_function(fi, nfuncs);
        validate(m);
        return m;
    }

  private:
    Function
    build_function(int fi, int nfuncs)
    {
        std::string name = "f";
        name += std::to_string(fi);
        fb_ = FunctionBuilder(name);
        fi_ = fi;
        nfuncs_ = nfuncs;
        int cur = fb_.add_block();
        fb_.ops(cur, Op::IAlu, 1 + static_cast<int>(rng_.below(6)));
        const int fragments = 2 + static_cast<int>(rng_.below(4));
        for (int i = 0; i < fragments; ++i)
            cur = emit_fragment(cur, 0);
        fb_.ret(cur);
        return fb_.build();
    }

    int
    emit_fragment(int from, int depth)
    {
        const uint64_t kind = rng_.below(depth >= 2 ? 3 : 4);
        switch (kind) {
          case 0: { // straight-line block, sometimes with calls
            const int b = fb_.add_block();
            fb_.jump(from, b);
            emit_ops(b, 1 + rng_.below(30));
            if (fi_ + 1 < nfuncs_ && rng_.bernoulli(0.35))
                fb_.call(b, fi_ + 1 + static_cast<int>(rng_.below(
                                    static_cast<uint64_t>(nfuncs_ - fi_ -
                                                          1))));
            if (rng_.bernoulli(0.15))
                fb_.ext_call(b, rng_.uniform(5.0, 300.0));
            return b;
          }
          case 1: { // diamond
            const int l = fb_.add_block();
            const int r = fb_.add_block();
            const int j = fb_.add_block();
            fb_.branch(from, l, r, rng_.uniform(0.1, 0.9));
            emit_ops(l, 1 + rng_.below(25));
            fb_.jump(l, j);
            emit_ops(r, 1 + rng_.below(25));
            fb_.jump(r, j);
            fb_.ops(j, Op::IAlu, 1);
            return j;
          }
          case 2: { // loop (TripCount or Bernoulli latch)
            const int header = fb_.add_block();
            fb_.jump(from, header);
            emit_ops(header, 1 + rng_.below(10));
            int tail = header;
            if (rng_.bernoulli(0.45))
                tail = emit_fragment(header, depth + 1);
            const int latch = fb_.add_block();
            fb_.jump(tail, latch);
            emit_ops(latch, 1 + rng_.below(5));
            const int exit = fb_.add_block();
            if (rng_.bernoulli(0.8)) {
                const uint64_t trips =
                    1 + rng_.below(depth == 0 ? 40 : 12);
                fb_.latch(latch, header, exit, trips);
                fb_.loop_facts(header,
                               rng_.bernoulli(0.35)
                                   ? std::optional<uint64_t>(trips)
                                   : std::nullopt,
                               rng_.bernoulli(0.5));
            } else {
                // Bernoulli latch: trip count unknowable statically.
                fb_.branch(latch, header, exit, rng_.uniform(0.3, 0.85));
                fb_.loop_facts(header, std::nullopt, rng_.bernoulli(0.5));
            }
            return exit;
          }
          default: { // call-only block
            const int b = fb_.add_block();
            fb_.jump(from, b);
            fb_.ops(b, Op::IAlu, 1 + static_cast<int>(rng_.below(4)));
            if (fi_ + 1 < nfuncs_)
                fb_.call(b, fi_ + 1 + static_cast<int>(rng_.below(
                                    static_cast<uint64_t>(nfuncs_ - fi_ -
                                                          1))));
            else
                fb_.ext_call(b, rng_.uniform(10.0, 200.0));
            return b;
          }
        }
    }

    void
    emit_ops(int b, uint64_t n)
    {
        for (uint64_t i = 0; i < n; ++i) {
            const uint64_t k = rng_.below(10);
            if (k < 6)
                fb_.ops(b, Op::IAlu, 1);
            else if (k < 8)
                fb_.ops(b, Op::Load, 1);
            else if (k < 9)
                fb_.ops(b, Op::Store, 1);
            else
                fb_.ops(b, Op::FMul, 1);
        }
    }

    Rng rng_;
    FunctionBuilder fb_{"f"};
    int fi_ = 0;
    int nfuncs_ = 1;
};

constexpr int kSeeds = 1024;
constexpr int kBounds[] = {100, 400, 1600};

TEST(VerifierFuzz, StaticBoundDominatesDynamicStretch)
{
    int executed = 0;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        const Module base = FuzzModuleBuilder(seed).build();
        PassConfig pcfg;
        pcfg.bound = kBounds[seed % 3];

        for (int tech = 0; tech < 3; ++tech) {
            Module m = base;
            if (tech == 0)
                run_tq_pass(m, pcfg);
            else if (tech == 1)
                run_ci_pass(m, pcfg);
            else
                run_ci_cycles_pass(m, pcfg);

            const VerifyResult vr = verify_module(m);
            ASSERT_TRUE(vr.ok) << "seed " << seed << " tech " << tech
                               << " bound " << pcfg.bound << "\n"
                               << report(vr, m);
            ASSERT_NE(vr.max_stretch, kUnboundedStretch)
                << "seed " << seed << " tech " << tech;

            // Execution dominates the runtime cost: always run TQ, and
            // sample the CI variants (their placement is denser and
            // structurally simpler).
            if (tech == 0 || seed % 8 == 0) {
                ExecConfig ecfg;
                ecfg.seed = seed * 3 + static_cast<uint64_t>(tech);
                const ExecResult er = execute(m, ecfg);
                ASSERT_LE(er.max_stretch_instrs, vr.max_stretch)
                    << "placement invariant violated: seed " << seed
                    << " tech " << tech << " bound " << pcfg.bound << "\n"
                    << report(vr, m);
                ++executed;
            }
        }
    }
    // Sanity: the loop really exercised the differential property.
    EXPECT_GE(executed, kSeeds);
}

TEST(VerifierFuzz, OptimizerPreservesInvariantOverMoveSequences)
{
    // Differential fuzz for the placement optimizer: over the same
    // >= 1024 random CFGs, run the verify-guided refinement after
    // each pass and require (a) the optimizer's accept loop agreed
    // end to end, (b) the proven bound never loosened, (c) probes
    // never increased, and (d) the executor still respects the final
    // proven bound — i.e. every greedy move sequence the optimizer
    // chose is sound, not just the ones the unit tests craft.
    int executed = 0;
    int changed = 0;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        const Module base = FuzzModuleBuilder(seed).build();
        PassConfig pcfg;
        pcfg.bound = kBounds[seed % 3];

        for (int tech = 0; tech < 3; ++tech) {
            // Execution dominates runtime, as above: TQ always, CI
            // variants sampled.
            if (tech != 0 && seed % 8 != 0)
                continue;
            Module m = base;
            if (tech == 0)
                run_tq_pass(m, pcfg);
            else if (tech == 1)
                run_ci_pass(m, pcfg);
            else
                run_ci_cycles_pass(m, pcfg);
            const int probes_before = m.probe_count();

            const OptimizerResult opt = optimize_placement(m);
            ASSERT_TRUE(opt.ok) << "seed " << seed << " tech " << tech;
            ASSERT_LE(opt.final_bound, opt.initial_bound)
                << "seed " << seed << " tech " << tech;
            ASSERT_LE(opt.final_probes, probes_before)
                << "seed " << seed << " tech " << tech;

            const VerifyResult vr = verify_module(m);
            ASSERT_TRUE(vr.ok) << "seed " << seed << " tech " << tech
                               << "\n"
                               << report(vr, m);
            ASSERT_EQ(vr.max_stretch, opt.final_bound)
                << "seed " << seed << " tech " << tech;

            ExecConfig ecfg;
            ecfg.seed = seed * 5 + static_cast<uint64_t>(tech);
            const ExecResult er = execute(m, ecfg);
            ASSERT_LE(er.max_stretch_instrs, vr.max_stretch)
                << "optimized placement invariant violated: seed "
                << seed << " tech " << tech << " bound " << pcfg.bound
                << "\n"
                << report(vr, m);
            ++executed;
            changed += opt.changed;
        }
    }
    EXPECT_GE(executed, kSeeds);
    // The optimizer must actually be exercising moves, not vacuously
    // passing on untouched modules.
    EXPECT_GE(changed, kSeeds / 8);
}

TEST(VerifierFuzz, VerifierDeterministic)
{
    const Module base = FuzzModuleBuilder(42).build();
    Module m = base;
    run_tq_pass(m, PassConfig{});
    const VerifyResult a = verify_module(m);
    const VerifyResult b = verify_module(m);
    EXPECT_EQ(a.max_stretch, b.max_stretch);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.diags.size(), b.diags.size());
}

} // namespace
} // namespace tq::compiler
