/**
 * @file
 * Tests for the workload substrates: MiniKV correctness against a
 * std::map oracle, probed preemptability of GET/SCAN, trace hooks,
 * TPC-C transaction semantics, mix ratios and duration ordering, and
 * the calibrated spinner.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "common/cycles.h"
#include "coro/coroutine.h"
#include "probe/probe.h"
#include "workloads/minikv.h"
#include "workloads/spin.h"
#include "workloads/tpcc.h"

namespace tq::workloads {
namespace {

void
reset_probe_state()
{
    probe_state() = ProbeState{};
}

// -------------------------------------------------------------- MiniKV --

TEST(MiniKV, PutGetRoundTrip)
{
    reset_probe_state();
    MiniKV kv(1, 16);
    kv.put(42, "hello");
    std::string v;
    ASSERT_TRUE(kv.get(42, &v));
    EXPECT_EQ(v.substr(0, 5), "hello");
    EXPECT_FALSE(kv.get(43, &v));
    EXPECT_EQ(kv.size(), 1u);
}

TEST(MiniKV, OverwriteKeepsSingleEntry)
{
    reset_probe_state();
    MiniKV kv(1, 8);
    kv.put(7, "aaaa");
    kv.put(7, "bbbb");
    EXPECT_EQ(kv.size(), 1u);
    std::string v;
    ASSERT_TRUE(kv.get(7, &v));
    EXPECT_EQ(v.substr(0, 4), "bbbb");
}

TEST(MiniKV, MatchesMapOracleOnRandomOps)
{
    reset_probe_state();
    MiniKV kv(3, 8);
    std::map<uint64_t, char> oracle;
    Rng rng(99);
    for (int i = 0; i < 5000; ++i) {
        const uint64_t key = rng.below(800);
        if (rng.bernoulli(0.6)) {
            const char tag = static_cast<char>('a' + rng.below(26));
            kv.put(key, std::string(1, tag) + "xxx");
            oracle[key] = tag;
        } else {
            std::string v;
            const bool found = kv.get(key, &v);
            const auto it = oracle.find(key);
            ASSERT_EQ(found, it != oracle.end()) << "key " << key;
            if (found) {
                ASSERT_EQ(v[0], it->second);
            }
        }
    }
    EXPECT_EQ(kv.size(), oracle.size());
}

TEST(MiniKV, ScanVisitsKeysInOrder)
{
    reset_probe_state();
    MiniKV kv(5, 8);
    kv.load_sequential(1000);
    uint64_t checksum = 0;
    EXPECT_EQ(kv.scan(100, 50, &checksum), 50u);
    EXPECT_NE(checksum, 0u);
    // Scan starting past the end visits nothing.
    EXPECT_EQ(kv.scan(5000, 10, &checksum), 0u);
    // Scan clipped at the tail.
    EXPECT_EQ(kv.scan(990, 100, &checksum), 10u);
}

TEST(MiniKV, TraceHookRecordsAccesses)
{
    reset_probe_state();
    MiniKV kv(7, 16);
    kv.load_sequential(200);
    std::vector<uint64_t> trace;
    kv.set_trace(&trace);
    std::string v;
    kv.get(100, &v);
    const size_t get_len = trace.size();
    EXPECT_GT(get_len, 3u) << "descent must touch several nodes";
    kv.scan(0, 100, nullptr);
    EXPECT_GT(trace.size(), get_len + 150) << "scan touches ~2/entry";
    kv.set_trace(nullptr);
    const size_t frozen = trace.size();
    kv.get(5, &v);
    EXPECT_EQ(trace.size(), frozen);
}

TEST(MiniKV, ScanIsPreemptableViaProbes)
{
    reset_probe_state();
    MiniKV kv(9, 64);
    kv.load_sequential(20000);
    uint64_t checksum = 0;
    int yields = 0;
    static thread_local Coroutine *self_ptr;
    Coroutine job([&](Coroutine &self) {
        self_ptr = &self;
        kv.scan(0, 20000, &checksum);
    });
    bind_yield([](void *) { self_ptr->yield(); }, nullptr);
    while (!job.done()) {
        arm_quantum(ns_to_cycles(5000)); // 5us quanta
        job.resume();
        ++yields;
        ASSERT_LT(yields, 1'000'000);
    }
    disarm_quantum();
    EXPECT_GT(yields, 5) << "a 20k-entry scan must span many quanta";
    EXPECT_NE(checksum, 0u);
}

TEST(MiniKV, GetCompletesWithinOneModestQuantum)
{
    reset_probe_state();
    MiniKV kv(11, 64);
    kv.load_sequential(100000);
    // GET is a ~us-class job: with a 100us quantum it must not yield.
    int yields = 0;
    bind_yield([](void *arg) { ++*static_cast<int *>(arg); }, &yields);
    arm_quantum(ns_to_cycles(100000));
    std::string v;
    kv.get(54321, &v);
    disarm_quantum();
    EXPECT_EQ(yields, 0);
}

/** Probe firings: every probe yields, and the yield re-expires the
 *  quantum so the next probe fires too. */
int g_firings = 0;

void
count_firing(void *)
{
    ++g_firings;
    arm_quantum_from(0, 0);
}

/** Steps of the descent to @p key: each step touches one node, and a
 *  level change also touches per-operation state inside the store. */
size_t
descent_steps(MiniKV &kv, uint64_t key)
{
    std::vector<uint64_t> trace;
    kv.set_trace(&trace);
    kv.scan(key, 0, nullptr);
    kv.set_trace(nullptr);
    const uint64_t lo = reinterpret_cast<uint64_t>(&kv);
    return static_cast<size_t>(
        std::count_if(trace.begin(), trace.end(), [&](uint64_t a) {
            return a < lo || a >= lo + sizeof kv;
        }));
}

/** Firings of an operation with @p steps descent steps and @p entries
 *  SCAN entries under minikv.cc's placement: a probe fires before any
 *  step (17 instructions) or entry (95) that would take the stretch
 *  since the last probe past 400. */
int
placed_firings(size_t steps, size_t entries)
{
    int budget = 400;
    int firings = 0;
    const auto spend = [&](int cost) {
        if (budget < cost) {
            ++firings;
            budget = 400;
        }
        budget -= cost;
    };
    for (size_t i = 0; i < steps; ++i)
        spend(17);
    for (size_t i = 0; i < entries; ++i)
        spend(95);
    return firings;
}

TEST(MiniKV, ProbeSpacingIsPinned)
{
    // A descent probes every 23rd step and a SCAN every 4th entry, from
    // one budget, and a GET once more after its value copy.
    EXPECT_EQ(placed_firings(23, 0), 0);
    EXPECT_EQ(placed_firings(24, 0), 1);
    EXPECT_EQ(placed_firings(0, 2000), 2000 / 4 - 1);
    EXPECT_EQ(placed_firings(23, 4), 1);
    reset_probe_state();
    MiniKV kv(13, 100);
    kv.load_sequential(1 << 16);
    bind_yield(count_firing, nullptr);
    Rng rng(21);
    size_t long_descents = 0;
    for (int i = 0; i < 200; ++i) {
        const uint64_t key = rng.below((1 << 16) - 2000);
        const size_t steps = descent_steps(kv, key);
        long_descents += placed_firings(steps, 0) > 0;

        g_firings = 0;
        arm_quantum_from(0, 0);
        uint64_t checksum = 0;
        ASSERT_EQ(kv.scan(key, 2000, &checksum), 2000u);
        EXPECT_EQ(g_firings, placed_firings(steps, 2000)) << "key " << key;

        g_firings = 0;
        arm_quantum_from(0, 0);
        std::string v;
        ASSERT_TRUE(kv.get(key, &v));
        EXPECT_EQ(g_firings, placed_firings(steps, 0) + 1) << "key " << key;
    }
    disarm_quantum();
    EXPECT_GT(long_descents, 0u) << "no descent reached a probe";
}

TEST(MiniKV, BulkLoadMatchesPutLoad)
{
    reset_probe_state();
    const size_t n = 5000;
    MiniKV bulk(17, 100);
    bulk.load_sequential(n);
    MiniKV put(17, 100);
    std::string value(100, 'v');
    for (size_t i = 0; i < n; ++i) {
        value[0] = static_cast<char>('a' + i % 26);
        put.put(i, value);
    }
    ASSERT_EQ(bulk.size(), put.size());
    uint64_t bulk_sum = 0;
    uint64_t put_sum = 0;
    EXPECT_EQ(bulk.scan(0, n, &bulk_sum), n);
    EXPECT_EQ(put.scan(0, n, &put_sum), n);
    EXPECT_EQ(bulk_sum, put_sum);
    // Equal trace lengths for the same GETs: same descent paths, so the
    // same tower heights.
    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
        const uint64_t key = rng.below(n + 10);
        std::vector<uint64_t> bulk_trace;
        std::vector<uint64_t> put_trace;
        std::string bulk_v;
        std::string put_v;
        bulk.set_trace(&bulk_trace);
        put.set_trace(&put_trace);
        ASSERT_EQ(bulk.get(key, &bulk_v), put.get(key, &put_v));
        bulk.set_trace(nullptr);
        put.set_trace(nullptr);
        EXPECT_EQ(bulk_v, put_v) << "key " << key;
        EXPECT_EQ(bulk_trace.size(), put_trace.size()) << "key " << key;
    }
}

// ---------------------------------------------------------------- TPCC --

TEST(Tpcc, MixMatchesTable1)
{
    Rng rng(1);
    std::vector<int> counts(5, 0);
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        ++counts[static_cast<size_t>(sample_tpcc_mix(rng))];
    EXPECT_NEAR(counts[0] / double(n), 0.44, 0.01); // Payment
    EXPECT_NEAR(counts[1] / double(n), 0.04, 0.005); // OrderStatus
    EXPECT_NEAR(counts[2] / double(n), 0.44, 0.01); // NewOrder
    EXPECT_NEAR(counts[3] / double(n), 0.04, 0.005); // Delivery
    EXPECT_NEAR(counts[4] / double(n), 0.04, 0.005); // StockLevel
}

TEST(Tpcc, TransactionsCommitAndCount)
{
    reset_probe_state();
    disarm_quantum();
    TpccEmulator db(1);
    Rng rng(2);
    for (int i = 0; i < 50; ++i)
        db.run(sample_tpcc_mix(rng), rng);
    uint64_t total = 0;
    for (uint64_t c : db.committed())
        total += c;
    EXPECT_EQ(total, 50u);
}

TEST(Tpcc, NewOrderGrowsAndDeliveryShrinksOpenOrders)
{
    reset_probe_state();
    disarm_quantum();
    TpccEmulator db(1);
    Rng rng(3);
    const size_t before = db.open_orders();
    for (int i = 0; i < 20; ++i)
        db.run(TpccTxn::NewOrder, rng);
    EXPECT_EQ(db.open_orders(), before + 20);
    db.run(TpccTxn::Delivery, rng);
    EXPECT_EQ(db.open_orders(), before + 20 - TpccEmulator::kDistricts);
}

TEST(Tpcc, DurationOrderingTracksTable1)
{
    // Table 1 ordering: Payment ~ OrderStatus < NewOrder < Delivery <
    // StockLevel. Measure medians of real executions.
    reset_probe_state();
    disarm_quantum();
    TpccEmulator db(1);
    Rng rng(4);
    auto median_cost = [&](TpccTxn t) {
        std::vector<double> xs;
        for (int i = 0; i < 31; ++i) {
            const Cycles a = rdcycles();
            db.run(t, rng);
            xs.push_back(static_cast<double>(rdcycles() - a));
        }
        std::sort(xs.begin(), xs.end());
        return xs[xs.size() / 2];
    };
    const double payment = median_cost(TpccTxn::Payment);
    const double neworder = median_cost(TpccTxn::NewOrder);
    const double delivery = median_cost(TpccTxn::Delivery);
    const double stocklevel = median_cost(TpccTxn::StockLevel);
    EXPECT_LT(payment * 2, neworder);
    EXPECT_LT(neworder * 2.5, delivery);
    EXPECT_LT(delivery, stocklevel * 1.3);
    // Roughly Table-1 proportions: NewOrder/Payment ~ 3.5, allow 2..6.
    EXPECT_GT(neworder / payment, 2.0);
    EXPECT_LT(neworder / payment, 6.5);
}

TEST(Tpcc, TransactionsArePreemptable)
{
    reset_probe_state();
    TpccEmulator db(1);
    Rng rng(5);
    static thread_local Coroutine *self_ptr;
    int quanta = 0;
    Coroutine job([&](Coroutine &self) {
        self_ptr = &self;
        db.run(TpccTxn::StockLevel, rng); // the ~100us class
    });
    bind_yield([](void *) { self_ptr->yield(); }, nullptr);
    while (!job.done()) {
        arm_quantum(ns_to_cycles(2000)); // 2us quanta
        job.resume();
        ++quanta;
        ASSERT_LT(quanta, 1'000'000);
    }
    disarm_quantum();
    EXPECT_GT(quanta, 3);
}

// ---------------------------------------------------------------- spin --

TEST(Spin, DurationApproximatelyHonored)
{
    reset_probe_state();
    disarm_quantum();
    cycles_per_ns(); // warm the one-time clock calibration
    for (double target_us : {1.0, 5.0, 20.0}) {
        // Median of several runs: wall time can exceed consumed time when
        // the OS preempts the test (the host's cores are shared).
        std::vector<double> runs;
        for (int i = 0; i < 9; ++i) {
            const Cycles t0 = rdcycles();
            spin_for(us(target_us));
            runs.push_back(cycles_to_ns(rdcycles() - t0) / 1000.0);
        }
        std::sort(runs.begin(), runs.end());
        const double elapsed_us = runs[runs.size() / 2];
        EXPECT_GE(elapsed_us, target_us * 0.9) << target_us;
        EXPECT_LE(elapsed_us, target_us * 2 + 2) << target_us;
    }
}

TEST(Spin, PreemptableAndAccountsOnlyConsumedTime)
{
    reset_probe_state();
    static thread_local Coroutine *self_ptr;
    Coroutine job([&](Coroutine &self) {
        self_ptr = &self;
        spin_for(us(100));
    });
    bind_yield([](void *) { self_ptr->yield(); }, nullptr);
    int quanta = 0;
    double running_ns = 0;
    while (!job.done()) {
        arm_quantum(ns_to_cycles(5000));
        const Cycles t0 = rdcycles();
        job.resume();
        running_ns += cycles_to_ns(rdcycles() - t0);
        ++quanta;
        ASSERT_LT(quanta, 100000);
    }
    disarm_quantum();
    EXPECT_GE(quanta, 10) << "100us of work across 5us quanta";
    EXPECT_GE(running_ns, 90'000.0);
}

TEST(Spin, ProgressesWhenEveryProbeYields)
{
    // A zero quantum makes every probe yield: each chunk of work must
    // still count, or the job never finishes.
    reset_probe_state();
    Coroutine job([](Coroutine &) { spin_for(us(5)); });
    bind_yield([](void *c) { static_cast<Coroutine *>(c)->yield(); }, &job);
    int resumes = 0;
    while (!job.done()) {
        arm_quantum(0);
        job.resume();
        ++resumes;
        ASSERT_LT(resumes, 100000);
    }
    disarm_quantum();
}

// ---------------------------------------------------------- ZipfKeyGen --

TEST(ZipfKeyGen, ScrambleIsABijectionOnTheKeyspace)
{
    const uint64_t n = 1024;
    ZipfKeyGen gen(n, 0.99);
    std::vector<bool> seen(n, false);
    for (uint64_t rank = 0; rank < n; ++rank) {
        const uint64_t key = gen.scramble(rank);
        ASSERT_LT(key, n);
        ASSERT_FALSE(seen[key]) << "rank " << rank << " collides";
        seen[key] = true;
    }
}

TEST(ZipfKeyGen, HotKeysDominateAndHitLoadedStore)
{
    const uint64_t n = 4096;
    ZipfKeyGen gen(n, 0.99);
    MiniKV kv(3, 64);
    kv.load_sequential(n);
    Rng rng(41);
    std::map<uint64_t, uint64_t> counts;
    const int samples = 50000;
    for (int i = 0; i < samples; ++i) {
        const uint64_t key = gen.sample_key(rng);
        ASSERT_LT(key, n);
        ++counts[key];
        if (i < 200) { // every sampled key must exist in the store
            EXPECT_TRUE(kv.get(key, nullptr)) << key;
        }
    }
    // The hottest key is rank 0's stable image and towers over the
    // median key (YCSB-style skew at s = 0.99).
    const uint64_t hottest = counts[gen.scramble(0)];
    EXPECT_NEAR(static_cast<double>(hottest) / samples,
                gen.dist().pmf(0), 0.25 * gen.dist().pmf(0));
    uint64_t above_mean = 0;
    for (const auto &[key, c] : counts)
        above_mean += c > samples / n;
    // Skew: far fewer than half the touched keys sit above the mean.
    EXPECT_LT(above_mean, counts.size() / 2);
}

} // namespace
} // namespace tq::workloads
