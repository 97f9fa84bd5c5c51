/**
 * @file
 * Umbrella-header test: core/tq.h must be self-contained and expose the
 * whole public API; plus death tests for documented misuse (internal
 * invariant violations abort via TQ_CHECK).
 */
#include <gtest/gtest.h>

#include "core/tq.h"

namespace tq {
namespace {

TEST(Core, VersionConstants)
{
    EXPECT_EQ(kVersionMajor, 1);
    EXPECT_GE(kVersionMinor, 0);
    EXPECT_GE(kVersionPatch, 0);
}

TEST(Core, UmbrellaExposesEveryModule)
{
    // One symbol per module: if this compiles and links, the umbrella
    // header is complete.
    [[maybe_unused]] runtime::RuntimeConfig rt_cfg;
    [[maybe_unused]] sim::TwoLevelConfig sim_cfg;
    [[maybe_unused]] compiler::PassConfig pass_cfg;
    [[maybe_unused]] cache::ChaseConfig chase_cfg;
    [[maybe_unused]] net::LoadGenConfig lg_cfg;
    Rng rng(1);
    EXPECT_GT(workload_table::exp1()->mean(), 0.0);
    EXPECT_GE(rdcycles(), 0u);
    SpscRing<int> ring(4);
    EXPECT_TRUE(ring.push(1));
    workloads::MiniKV kv(1, 8);
    kv.put(1, "x");
    EXPECT_EQ(kv.size(), 1u);
}

using CoreDeathTest = ::testing::Test;

TEST(CoreDeathTest, ResumingFinishedCoroutineAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Coroutine co([](Coroutine &) {});
    co.resume();
    ASSERT_TRUE(co.done());
    EXPECT_DEATH(co.resume(), "check failed");
}

TEST(CoreDeathTest, YieldOutsideCoroutineAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Coroutine co([](Coroutine &) {});
    EXPECT_DEATH(co.yield(), "check failed");
}

TEST(CoreDeathTest, ExpiredProbeWithoutBoundYieldAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            probe_state() = ProbeState{}; // no call_the_yield bound
            arm_quantum(0);
            tq_probe();
        },
        "check failed");
}

TEST(CoreDeathTest, MixtureRequiresComponents)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(MixtureDist dist({}), "check failed");
}

} // namespace
} // namespace tq
