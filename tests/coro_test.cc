/**
 * @file
 * Tests for the stackful coroutine library: lifecycle, yielding from deep
 * call frames, nesting and the yield misuse check, interleaving many
 * coroutines, stack allocation, and cross-thread handoff of suspended
 * coroutines.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "coro/coroutine.h"
#include "coro/stack.h"

namespace tq {
namespace {

TEST(Stack, AllocatesUsableRegion)
{
    Stack s(16 * 1024);
    EXPECT_GE(s.size(), 16u * 1024);
    // Touch the whole usable region.
    auto *p = static_cast<volatile char *>(s.base());
    for (size_t i = 0; i < s.size(); i += 512)
        p[i] = static_cast<char>(i);
}

TEST(Coroutine, RunsToCompletionWithoutYield)
{
    int state = 0;
    Coroutine co([&](Coroutine &) { state = 42; });
    EXPECT_FALSE(co.done());
    co.resume();
    EXPECT_TRUE(co.done());
    EXPECT_EQ(state, 42);
}

TEST(Coroutine, YieldSuspendsAndResumeContinues)
{
    std::vector<int> trace;
    Coroutine co([&](Coroutine &self) {
        trace.push_back(1);
        self.yield();
        trace.push_back(3);
        self.yield();
        trace.push_back(5);
    });
    co.resume();
    trace.push_back(2);
    co.resume();
    trace.push_back(4);
    EXPECT_FALSE(co.done());
    co.resume();
    EXPECT_TRUE(co.done());
    EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

/// Yielding must work from arbitrarily deep call frames — the property
/// forced multitasking depends on (probes live inside application code).
void
deep_yield(Coroutine &self, int depth, std::vector<int> &trace)
{
    if (depth == 0) {
        trace.push_back(depth);
        self.yield();
        trace.push_back(-depth - 1);
        return;
    }
    trace.push_back(depth);
    deep_yield(self, depth - 1, trace);
    trace.push_back(-depth - 1);
}

TEST(Coroutine, YieldsFromDeepCallStack)
{
    std::vector<int> trace;
    Coroutine co([&](Coroutine &self) { deep_yield(self, 20, trace); });
    co.resume();
    EXPECT_EQ(trace.size(), 21u); // suspended at depth 0
    EXPECT_EQ(trace.back(), 0);
    co.resume();
    EXPECT_TRUE(co.done());
    EXPECT_EQ(trace.size(), 42u);
    EXPECT_EQ(trace.back(), -21);
}

TEST(Coroutine, LocalVariablesSurviveYield)
{
    std::string out;
    Coroutine co([&](Coroutine &self) {
        std::string local = "abc";
        uint64_t x = 123456789;
        self.yield();
        local += "def";
        x *= 2;
        self.yield();
        out = local + std::to_string(x);
    });
    co.resume();
    co.resume();
    co.resume();
    EXPECT_EQ(out, "abcdef246913578");
}

TEST(Coroutine, NestedCoroutinesReturnToTheirResumer)
{
    std::vector<int> trace;
    Coroutine inner([&](Coroutine &self) {
        trace.push_back(2);
        self.yield();
        trace.push_back(6);
    });
    Coroutine outer([&](Coroutine &self) {
        trace.push_back(1);
        inner.resume(); // runs inner on top of outer
        trace.push_back(3);
        self.yield();
        trace.push_back(5);
    });
    outer.resume();
    trace.push_back(4);
    outer.resume();
    EXPECT_TRUE(outer.done());
    EXPECT_FALSE(inner.done());
    inner.resume();
    EXPECT_TRUE(inner.done());
    EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(CoroutineDeathTest, YieldOfTheOuterCoroutineFromANestedOneAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            Coroutine *outer_ptr = nullptr;
            Coroutine inner([&](Coroutine &) { outer_ptr->yield(); });
            Coroutine outer([&](Coroutine &) { inner.resume(); });
            outer_ptr = &outer;
            outer.resume();
        },
        "check failed");
}

TEST(Coroutine, ManyCoroutinesInterleaveRoundRobin)
{
    // Emulates a worker's PS queue: N task coroutines resumed in turn.
    constexpr int kTasks = 8;
    constexpr int kSteps = 50;
    std::vector<int> progress(kTasks, 0);
    std::vector<std::unique_ptr<Coroutine>> tasks;
    for (int t = 0; t < kTasks; ++t) {
        tasks.push_back(std::make_unique<Coroutine>(
            [&progress, t](Coroutine &self) {
                for (int s = 0; s < kSteps; ++s) {
                    ++progress[t];
                    self.yield();
                }
            }));
    }
    int active = kTasks;
    int rounds = 0;
    while (active > 0) {
        for (auto &task : tasks) {
            if (!task->done())
                task->resume();
        }
        active = 0;
        for (auto &task : tasks)
            active += !task->done();
        ++rounds;
        ASSERT_LT(rounds, kSteps + 3);
        // Round-robin resumption => all runnable tasks have equal progress.
        for (int t = 1; t < kTasks; ++t)
            ASSERT_EQ(progress[t], progress[0]);
    }
    for (int t = 0; t < kTasks; ++t)
        EXPECT_EQ(progress[t], kSteps);
}

TEST(Coroutine, SuspendedCoroutineCanMigrateThreads)
{
    // Two-level scheduling keeps a job on one core, but the library itself
    // must allow a suspended context to be resumed elsewhere (used by the
    // work-stealing baseline).
    Coroutine co([](Coroutine &self) {
        self.yield();
        self.yield();
    });
    co.resume(); // started on this thread
    std::thread other([&] {
        co.resume();
        EXPECT_FALSE(co.done());
    });
    other.join();
    co.resume();
    EXPECT_TRUE(co.done());
}

TEST(Coroutine, AbandonedSuspendedCoroutineIsSafeToDestroy)
{
    auto co = std::make_unique<Coroutine>([](Coroutine &self) {
        for (;;)
            self.yield();
    });
    co->resume();
    EXPECT_FALSE(co->done());
    co.reset(); // destroy while suspended; must not crash or leak stack
}

TEST(Coroutine, FloatingPointStateSurvivesSwitches)
{
    double result = 0;
    Coroutine co([&](Coroutine &self) {
        double acc = 1.0;
        for (int i = 1; i <= 10; ++i) {
            acc = acc * 1.5 + static_cast<double>(i) / 3.0;
            self.yield();
        }
        result = acc;
    });
    // Interleave FP work on the main context to perturb FP registers.
    double main_acc = 2.0;
    while (!co.done()) {
        co.resume();
        main_acc = main_acc * 0.99 + 0.5;
    }
    // Reference computed without interleaving.
    double ref = 1.0;
    for (int i = 1; i <= 10; ++i)
        ref = ref * 1.5 + static_cast<double>(i) / 3.0;
    EXPECT_DOUBLE_EQ(result, ref);
    EXPECT_GT(main_acc, 0.0);
}

} // namespace
} // namespace tq
