/**
 * @file
 * Fault-injection tests: stop()/drain() must terminate — within the
 * drain deadline, with honest accounting — under every fault the
 * injector can arm (stalled collector, frozen stages, ring-full bursts,
 * randomized yields).
 *
 * The pure-logic tests (deterministic yield pattern, site names) and
 * the stalled-collector scenario run in every build. Scenarios that
 * need the hot-path hooks compiled in skip themselves unless the tree
 * was configured with -DTQ_FAULT_INJECTION=ON (tq::fault::kEnabled).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/dist.h"
#include "common/units.h"
#include "fault/fault.h"
#include "net/loadgen.h"
#include "net/runtime_server.h"
#include "runtime/runtime.h"

namespace tq {
namespace {

using fault::FaultInjector;
using fault::Site;

runtime::Request
make_req(uint64_t id, uint64_t payload = 0)
{
    runtime::Request req;
    req.id = id;
    req.gen_cycles = rdcycles();
    req.payload = payload;
    return req;
}

/** Every scenario starts and ends with a disarmed injector. */
class FaultTest : public ::testing::Test
{
  protected:
    void SetUp() override { FaultInjector::instance().reset(); }
    void TearDown() override { FaultInjector::instance().reset(); }
};

TEST(FaultInjectorLogic, YieldsAtIsDeterministicAndSeeded)
{
    constexpr uint64_t kVisits = 100'000;
    constexpr uint64_t kEvery = 8;
    uint64_t hits = 0;
    for (uint64_t v = 0; v < kVisits; ++v) {
        const bool y = FaultInjector::yields_at(42, kEvery, v);
        // Deterministic: the same (seed, n, visit) always agrees.
        ASSERT_EQ(y, FaultInjector::yields_at(42, kEvery, v));
        hits += y ? 1 : 0;
    }
    // Roughly one visit in kEvery (generous 2x band — it is a hash,
    // not a counter).
    EXPECT_GT(hits, kVisits / kEvery / 2);
    EXPECT_LT(hits, kVisits / kEvery * 2);

    // Different seeds give different patterns.
    bool differs = false;
    for (uint64_t v = 0; v < 256 && !differs; ++v)
        differs = FaultInjector::yields_at(1, kEvery, v) !=
                  FaultInjector::yields_at(2, kEvery, v);
    EXPECT_TRUE(differs);
}

TEST(FaultInjectorLogic, SiteNamesAreDistinct)
{
    std::set<std::string> names;
    for (int s = 0; s < static_cast<int>(Site::kCount); ++s) {
        const char *name = fault::site_name(static_cast<Site>(s));
        ASSERT_NE(name, nullptr);
        EXPECT_FALSE(std::string(name).empty());
        names.insert(name);
    }
    EXPECT_EQ(names.size(), static_cast<size_t>(Site::kCount));
}

// A collector that never drains the TX rings must not wedge shutdown:
// drain() returns at its deadline and every accepted job is either
// delivered, dropped (counted), or abandoned (counted). Runs in every
// build — the fault here is the test simply not collecting.
TEST_F(FaultTest, StalledCollectorStopTerminates)
{
    runtime::RuntimeConfig cfg;
    cfg.num_workers = 2;
    cfg.ring_capacity = 8;
    cfg.work = runtime::WorkPolicy::Fcfs;
    runtime::Runtime rt(cfg, [](const runtime::Request &req) {
        return req.payload;
    });
    rt.start();

    uint64_t accepted = 0;
    for (uint64_t i = 0; i < 64; ++i) {
        for (int attempt = 0; attempt < 1000; ++attempt) {
            if (rt.submit(make_req(i))) {
                ++accepted;
                break;
            }
            std::this_thread::yield();
        }
    }
    ASSERT_GT(accepted, 8u);

    const auto t0 = std::chrono::steady_clock::now();
    rt.drain(/*deadline_sec=*/0.3);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_LT(elapsed, 30.0); // far above the deadline; "returns at all"
    EXPECT_EQ(rt.lifecycle(), runtime::Lifecycle::Stopped);

    std::vector<runtime::Response> leftovers;
    rt.drain_responses(leftovers);
    EXPECT_EQ(leftovers.size() + rt.dropped_responses() +
                  rt.abandoned_jobs(),
              accepted);
}

// A frozen worker models a thread the OS stopped scheduling: drain()
// must escalate at the deadline, release the freeze, and join.
TEST_F(FaultTest, FrozenWorkerStopWithinDeadline)
{
    if (!fault::kEnabled)
        GTEST_SKIP() << "hook sites compiled out (TQ_FAULT_INJECTION=OFF)";

    FaultInjector::instance().freeze(Site::WorkerPoll);

    runtime::RuntimeConfig cfg;
    cfg.num_workers = 1;
    cfg.work = runtime::WorkPolicy::Fcfs;
    runtime::Runtime rt(cfg, [](const runtime::Request &req) {
        return req.payload;
    });
    rt.start();
    for (uint64_t i = 0; i < 16; ++i)
        rt.submit(make_req(i));
    // Give the dispatcher a moment to forward into the frozen worker.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    const auto t0 = std::chrono::steady_clock::now();
    const bool clean = rt.drain(0.3);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_LT(elapsed, 30.0);
    EXPECT_EQ(rt.lifecycle(), runtime::Lifecycle::Stopped);
    // The worker never ran a job: drain cannot have been clean, and the
    // forwarded jobs must show up as abandoned rather than vanish.
    EXPECT_FALSE(clean);
    EXPECT_GT(rt.abandoned_jobs(), 0u);
    EXPECT_GT(FaultInjector::instance().visits(Site::WorkerPoll), 0u);
}

// A frozen dispatcher: nothing is ever forwarded. drain() escalates,
// the dispatcher wakes into the force-stop phase, and the queued
// requests are counted abandoned.
TEST_F(FaultTest, FrozenDispatcherCountsQueuedAsAbandoned)
{
    if (!fault::kEnabled)
        GTEST_SKIP() << "hook sites compiled out (TQ_FAULT_INJECTION=OFF)";

    FaultInjector::instance().freeze(Site::DispatcherPoll);

    runtime::RuntimeConfig cfg;
    cfg.num_workers = 2;
    cfg.work = runtime::WorkPolicy::Fcfs;
    runtime::Runtime rt(cfg, [](const runtime::Request &req) {
        return req.payload;
    });
    rt.start();
    uint64_t accepted = 0;
    for (uint64_t i = 0; i < 32; ++i)
        accepted += rt.submit(make_req(i)) ? 1 : 0;
    ASSERT_GT(accepted, 0u);

    EXPECT_FALSE(rt.drain(0.2));
    EXPECT_EQ(rt.lifecycle(), runtime::Lifecycle::Stopped);
    EXPECT_EQ(rt.abandoned_jobs(), accepted);
    std::vector<runtime::Response> none;
    EXPECT_EQ(rt.drain_responses(none), 0u);
}

// A stalled (slow, but not dead) worker: drain with a roomy deadline
// still completes every queued job before joining.
TEST_F(FaultTest, StalledWorkerDrainStillCompletes)
{
    if (!fault::kEnabled)
        GTEST_SKIP() << "hook sites compiled out (TQ_FAULT_INJECTION=OFF)";

    FaultInjector::instance().stall(Site::WorkerSlice, 200.0); // 200us/job

    runtime::RuntimeConfig cfg;
    cfg.num_workers = 1;
    cfg.work = runtime::WorkPolicy::Fcfs;
    runtime::Runtime rt(cfg, [](const runtime::Request &req) {
        return req.payload + 1;
    });
    rt.start();
    constexpr uint64_t kJobs = 32;
    for (uint64_t i = 0; i < kJobs; ++i)
        ASSERT_TRUE(rt.submit(make_req(i, i)));

    EXPECT_TRUE(rt.drain(30.0));
    std::vector<runtime::Response> responses;
    rt.drain_responses(responses);
    EXPECT_EQ(responses.size(), kJobs);
    EXPECT_EQ(rt.abandoned_jobs(), 0u);
    EXPECT_EQ(rt.dropped_responses(), 0u);
    EXPECT_GT(FaultInjector::instance().visits(Site::WorkerSlice), 0u);
}

// Ring-full burst: a heavy per-completion stall backs up the tiny TX
// ring while the dispatcher keeps pushing. The blocked pushes wait
// until the forced stop, then become counted drops: never an unbounded
// block.
TEST_F(FaultTest, RingFullBurstDropsAreBoundedAndCounted)
{
    if (!fault::kEnabled)
        GTEST_SKIP() << "hook sites compiled out (TQ_FAULT_INJECTION=OFF)";

    FaultInjector::instance().stall(Site::WorkerComplete, 100.0);

    runtime::RuntimeConfig cfg;
    cfg.num_workers = 1;
    cfg.ring_capacity = 4;
    cfg.work = runtime::WorkPolicy::Fcfs;
    runtime::Runtime rt(cfg, [](const runtime::Request &req) {
        return req.payload;
    });
    rt.start();

    uint64_t accepted = 0;
    for (uint64_t i = 0; i < 64; ++i) {
        for (int attempt = 0; attempt < 1000; ++attempt) {
            if (rt.submit(make_req(i))) {
                ++accepted;
                break;
            }
            std::this_thread::yield();
        }
    }
    ASSERT_GT(accepted, 4u);
    rt.drain(/*deadline_sec=*/0.5);
    EXPECT_EQ(rt.lifecycle(), runtime::Lifecycle::Stopped);

    std::vector<runtime::Response> leftovers;
    rt.drain_responses(leftovers);
    EXPECT_EQ(leftovers.size() + rt.dropped_responses() +
                  rt.abandoned_jobs(),
              accepted);
}

// Regression (backpressure attribution): a forced stop that finds the
// worker blocked on its full TX ring charges each job to exactly one
// fate. A job that ran is delivered or, when its push was still
// blocked, dropped (dropped_responses); a job that never finished is
// abandoned (abandoned_jobs). One job can never be both.
TEST_F(FaultTest, RingFullBurstChargesDropsNotAbandons)
{
    if (!fault::kEnabled)
        GTEST_SKIP() << "hook sites compiled out (TQ_FAULT_INJECTION=OFF)";

    FaultInjector::instance().stall(Site::WorkerComplete, 100.0);

    runtime::RuntimeConfig cfg;
    cfg.num_workers = 1;
    cfg.ring_capacity = 4;
    cfg.work = runtime::WorkPolicy::Fcfs;
    runtime::Runtime rt(cfg, [](const runtime::Request &req) {
        return req.payload;
    });
    rt.start();

    // Nobody collects, so the worker fills the 4-slot TX ring and then
    // waits on it; the jobs behind it back up in its tasks, its
    // dispatch ring and RX.
    constexpr uint64_t kJobs = 32;
    uint64_t accepted = 0;
    for (uint64_t i = 0; i < kJobs; ++i) {
        for (int attempt = 0; attempt < 1000; ++attempt) {
            if (rt.submit(make_req(i))) {
                ++accepted;
                break;
            }
            std::this_thread::yield();
        }
    }
    // While running, a full ring only waits: however long the worker
    // spins on it, nothing is dropped or abandoned before a forced stop.
    constexpr uint64_t kSpins = 1000;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (rt.tx_ring_full_spins() < kSpins &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    ASSERT_GE(rt.tx_ring_full_spins(), kSpins) << "the worker never blocked";
    EXPECT_EQ(rt.dropped_responses(), 0u);
    EXPECT_EQ(rt.abandoned_jobs(), 0u);
    // Blocked, the worker finishes nothing more until the forced stop,
    // which adds the one job whose push it drops.
    const std::atomic<uint64_t> &finished = rt.worker(0).stats_line().finished;
    ASSERT_GT(accepted, finished.load() + 1)
        << "some accepted jobs must be left unfinished";

    // Nothing drains the TX ring, so the deadline expires and the stop
    // is forced.
    EXPECT_FALSE(rt.drain(/*deadline_sec=*/0.2));
    EXPECT_EQ(rt.lifecycle(), runtime::Lifecycle::Stopped);

    std::vector<runtime::Response> delivered;
    rt.drain_responses(delivered);
    // Disjoint attribution: finished jobs are delivered or dropped, the
    // rest are abandoned, and the partition is exact.
    EXPECT_EQ(finished.load(), delivered.size() + rt.dropped_responses());
    EXPECT_EQ(rt.abandoned_jobs(), accepted - finished.load());
    EXPECT_GT(rt.dropped_responses(), 0u);
    EXPECT_GT(rt.abandoned_jobs(), 0u);
}

// Chaos under open-loop load: seeded yields at every fault site,
// including the load generator's send and collect sites, while a
// Poisson schedule drives the runtime. Accounting must stay
// conservation-exact end to end.
TEST_F(FaultTest, ChaosUnderPoissonLoadRoundTrips)
{
    if (!fault::kEnabled)
        GTEST_SKIP() << "hook sites compiled out (TQ_FAULT_INJECTION=OFF)";

    auto &inj = FaultInjector::instance();
    inj.seed(99);
    for (int s = 0; s < static_cast<int>(Site::kCount); ++s)
        inj.yield_every(static_cast<Site>(s), 4);

    runtime::RuntimeConfig cfg;
    cfg.num_workers = 2;
    runtime::Runtime rt(cfg, [](const runtime::Request &req) {
        return req.payload;
    });
    rt.start();
    net::RuntimeServer server(rt);

    FixedDist dist(us(1), "spin");
    net::LoadGenConfig lg;
    lg.rate_mrps = 0.02;
    lg.duration_sec = 0.1;
    lg.seed = 5;
    const net::ClientStats stats = net::run_open_loop(
        server, dist, net::spin_request_factory(), lg);

    EXPECT_TRUE(rt.drain(30.0));
    EXPECT_GT(stats.submitted, 100u);
    EXPECT_EQ(stats.completed, stats.submitted);
    EXPECT_EQ(stats.timed_out, 0u);
    EXPECT_EQ(rt.abandoned_jobs(), 0u);
    EXPECT_EQ(rt.dropped_responses(), 0u);
    EXPECT_GT(inj.visits(Site::LoadgenSend), 0u);
    EXPECT_GT(inj.visits(Site::LoadgenCollect), 0u);
}

// Seeded chaos everywhere: deterministic yields at every site shake
// thread interleavings, yet a collected run still round-trips every
// job and drains clean.
TEST_F(FaultTest, RandomYieldChaosRoundTrips)
{
    if (!fault::kEnabled)
        GTEST_SKIP() << "hook sites compiled out (TQ_FAULT_INJECTION=OFF)";

    auto &inj = FaultInjector::instance();
    inj.seed(1234);
    for (int s = 0; s < static_cast<int>(Site::kCount); ++s)
        inj.yield_every(static_cast<Site>(s), 4);

    runtime::RuntimeConfig cfg;
    cfg.num_workers = 2;
    cfg.work = runtime::WorkPolicy::Fcfs;
    runtime::Runtime rt(cfg, [](const runtime::Request &req) {
        return req.payload * 3;
    });
    rt.start();

    constexpr uint64_t kJobs = 200;
    std::vector<runtime::Response> responses;
    uint64_t submitted = 0;
    while (submitted < kJobs || responses.size() < kJobs) {
        if (submitted < kJobs && rt.submit(make_req(submitted, submitted)))
            ++submitted;
        rt.drain_responses(responses);
    }
    EXPECT_TRUE(rt.drain(30.0));
    rt.drain_responses(responses);
    EXPECT_EQ(responses.size(), kJobs);
    for (const auto &r : responses)
        EXPECT_EQ(r.result, r.id * 3);
    EXPECT_EQ(rt.abandoned_jobs(), 0u);
    EXPECT_EQ(rt.dropped_responses(), 0u);
    EXPECT_GT(inj.visits(Site::DispatcherPoll), 0u);
    EXPECT_GT(inj.visits(Site::WorkerPoll), 0u);
}

} // namespace
} // namespace tq
