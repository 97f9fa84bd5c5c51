/**
 * @file
 * Cross-module integration tests:
 *
 *  - MiniKV served by the real TQ runtime: scans preempted via the
 *    store's own probe sites, GETs overtake in-flight scans.
 *  - TPC-C on the runtime with per-worker shards.
 *  - The compiler -> simulator pipeline of the breakdown study: CI
 *    overhead measured on instrumented IR degrades simulated capacity.
 */
#include <gtest/gtest.h>

#include <memory>

#include "compiler/report.h"
#include "net/runtime_server.h"
#include "probe/probe.h"
#include "progs/programs.h"
#include "runtime/runtime.h"
#include "sim/sweep.h"
#include "sim/two_level.h"
#include "workloads/minikv.h"
#include "workloads/spin.h"
#include "workloads/tpcc.h"

namespace tq {
namespace {

using runtime::Request;
using runtime::Response;
using runtime::Runtime;
using runtime::RuntimeConfig;

std::vector<Response>
run_requests(Runtime &rt, const std::vector<Request> &reqs,
             double timeout_sec = 120.0)
{
    for (const auto &r : reqs)
        while (!rt.submit(r))
            std::this_thread::yield();
    std::vector<Response> responses;
    const Cycles deadline = rdcycles() + ns_to_cycles(timeout_sec * 1e9);
    while (responses.size() < reqs.size() && rdcycles() < deadline) {
        rt.drain_responses(responses);
        std::this_thread::yield();
    }
    return responses;
}

workloads::MiniKV &
kv_shard()
{
    // The shard loads lazily inside a probed context. Suspending a
    // coroutine mid-initialization of a thread_local would let another
    // task re-enter the initializer — exactly the reentrancy hazard the
    // paper flags (section 6) — so initialization is a critical section.
    thread_local auto kv = [] {
        PreemptGuard guard;
        auto fresh = std::make_unique<workloads::MiniKV>(3, 64);
        fresh->load_sequential(30'000);
        return fresh;
    }();
    return *kv;
}

TEST(Integration, MiniKvGetsOvertakeScansOnRealRuntime)
{
    RuntimeConfig cfg;
    cfg.num_workers = 1;
    cfg.quantum_us = 2.0;
    Runtime rt(cfg, [](const Request &req) {
        uint64_t checksum = 0;
        if (req.job_class == 1) {
            kv_shard().scan(0, 30'000, &checksum); // multi-ms scan
        } else {
            std::string v;
            kv_shard().get(req.payload % 30'000, &v);
            checksum = v.empty() ? 0 : static_cast<uint64_t>(v[0]);
        }
        return checksum;
    });
    rt.start();

    std::vector<Request> reqs;
    Request scan;
    scan.id = 999;
    scan.gen_cycles = rdcycles();
    scan.job_class = 1;
    reqs.push_back(scan);
    for (uint64_t i = 0; i < 10; ++i) {
        Request get;
        get.id = i;
        get.gen_cycles = rdcycles();
        get.job_class = 0;
        get.payload = i * 977;
        reqs.push_back(get);
    }
    const auto responses = run_requests(rt, reqs);
    ASSERT_EQ(responses.size(), reqs.size());

    Cycles scan_done = 0;
    Cycles last_get = 0;
    for (const auto &r : responses) {
        if (r.id == 999) {
            scan_done = r.done_cycles;
            EXPECT_NE(r.result, 0u) << "scan checksum must be real";
        } else {
            last_get = std::max(last_get, r.done_cycles);
        }
    }
    EXPECT_LT(last_get, scan_done)
        << "GETs must preempt the in-flight SCAN via MiniKV's own probes";
    rt.stop();
}

workloads::TpccEmulator &
tpcc_shard()
{
    // See kv_shard(): no yielding while the thread_local constructs.
    thread_local auto db = [] {
        PreemptGuard guard;
        return std::make_unique<workloads::TpccEmulator>(11);
    }();
    return *db;
}

TEST(Integration, TpccTransactionsOnRealRuntime)
{
    RuntimeConfig cfg;
    cfg.num_workers = 2;
    cfg.quantum_us = 2.0;
    Runtime rt(cfg, [](const Request &req) {
        Rng rng(req.payload);
        return tpcc_shard().run(
            static_cast<workloads::TpccTxn>(req.job_class), rng);
    });
    rt.start();

    Rng rng(5);
    std::vector<Request> reqs;
    for (uint64_t i = 0; i < 100; ++i) {
        Request r;
        r.id = i;
        r.gen_cycles = rdcycles();
        r.job_class = static_cast<int>(workloads::sample_tpcc_mix(rng));
        r.payload = i;
        reqs.push_back(r);
    }
    const auto responses = run_requests(rt, reqs);
    EXPECT_EQ(responses.size(), reqs.size());
    rt.stop();
}

TEST(Integration, MeasuredCiOverheadDegradesSimulatedCapacity)
{
    // The fig11/12 pipeline: instrument the rocksdb-get IR with CI,
    // measure its probing overhead, feed it into the cluster simulator,
    // and confirm the capacity ordering TQ > TQ-IC the paper reports.
    compiler::PassConfig pcfg;
    pcfg.bound = 120;
    compiler::ExecConfig ecfg;
    ecfg.quantum_cycles = 2.0 * 1e3 * ecfg.cost.cycles_per_ns;
    const auto m = progs::make_rocksdb_get();
    const auto ci = compiler::measure_technique(
        m, compiler::ProbeKind::CiCounter, pcfg, ecfg);
    const auto tq_pass = compiler::measure_technique(
        m, compiler::ProbeKind::TqClock, pcfg, ecfg);
    ASSERT_GT(ci.overhead, tq_pass.overhead);
    ASSERT_GT(ci.overhead, 0.1) << "CI on branchy KV code is expensive";

    auto dist = workload_table::rocksdb(0.005);
    sim::TwoLevelConfig base;
    base.duration = ms(20);
    auto capacity = [&](double probe_frac) {
        sim::TwoLevelConfig cfg = base;
        cfg.probe_overhead_frac = probe_frac;
        return sim::max_rate_under_slo(
            [&](double rate) {
                return sim::run_two_level(cfg, *dist, rate);
            },
            sim::class_sojourn_slo("GET", us(50)), mrps(0.2), mrps(3.5),
            7);
    };
    const double cap_tq = capacity(tq_pass.overhead);
    const double cap_ci = capacity(ci.overhead);
    EXPECT_LT(cap_ci, cap_tq)
        << "TQ-IC must sustain less load (paper: ~62% of TQ)";
    EXPECT_GT(cap_ci, 0.0);
}

// Arrival parity: a seeded Poisson schedule must produce the identical
// arrival-time sequence through the real runtime's load generator and
// through the discrete-event simulator — same seed, same rate, same
// draw interleave, compared to the last bit.
TEST(Integration, PoissonArrivalSequenceIdenticalAcrossRuntimeAndSim)
{
    constexpr double kRateMrps = 0.02;
    constexpr double kDurationSec = 0.05;
    constexpr uint64_t kSeed = 7;

    std::vector<double> send_trace;
    {
        RuntimeConfig cfg;
        cfg.num_workers = 2;
        Runtime rt(cfg, [](const Request &req) {
            workloads::spin_for(static_cast<double>(req.payload));
            return req.id;
        });
        rt.start();
        net::RuntimeServer server(rt);
        FixedDist dist(us(1), "spin");
        net::LoadGenConfig lg;
        lg.rate_mrps = kRateMrps;
        lg.duration_sec = kDurationSec;
        lg.seed = kSeed;
        lg.send_trace = &send_trace;
        const net::ClientStats stats = net::run_open_loop(
            server, dist, net::spin_request_factory(), lg);
        rt.stop();
        EXPECT_EQ(stats.completed, stats.submitted);
        EXPECT_EQ(stats.send_failures, 0u);
    }

    std::vector<double> sim_trace;
    {
        FixedDist dist(us(1), "spin");
        sim::TwoLevelConfig cfg;
        cfg.duration = kDurationSec * 1e9;
        cfg.seed = kSeed;
        cfg.arrival_trace = &sim_trace;
        const sim::SimResult r =
            sim::run_two_level(cfg, dist, mrps(kRateMrps));
        EXPECT_FALSE(r.saturated); // a drop would skip a service draw
    }

    ASSERT_GT(send_trace.size(), 100u);
    ASSERT_EQ(send_trace.size(), sim_trace.size());
    for (size_t i = 0; i < send_trace.size(); ++i)
        ASSERT_DOUBLE_EQ(send_trace[i], sim_trace[i]);
}

TEST(Integration, PerClassEffectiveQuantumOrderingMatchesSim)
{
    // The sim mirrors the runtime's per-class quanta (DESIGN.md §4i):
    // with {2us, 0.5us} budgets on a bimodal mix, both must record a
    // larger mean granted slice for class 0 than class 1. The runtime
    // measures armed budgets in cycles and the sim measures granted
    // slices in simulated ns, so the parity claim is the *ordering*
    // (and both being in their configured ballpark), not the values.
    // Longs kept short-ish: at a 0.5us quantum each long is ~80 slices,
    // and sanitizer builds inflate per-slice switch cost ~100x.
    constexpr double kShortUs = 1.0, kLongUs = 40.0;

    double sim_eff0 = 0, sim_eff1 = 0;
    {
        MixtureDist dist({{"Short", us(kShortUs), 0.9},
                          {"Long", us(kLongUs), 0.1}});
        sim::TwoLevelConfig cfg;
        cfg.duration = ms(30);
        cfg.seed = 42;
        cfg.class_quantum = {us(2), us(0.5)};
        cfg.deficit_clamp = us(8);
        cfg.starvation_promote_after = 128;
        const sim::SimResult r = sim::run_two_level(cfg, dist, mrps(0.5));
        ASSERT_FALSE(r.saturated);
        ASSERT_EQ(r.class_effective_quantum.size(), 2u);
        sim_eff0 = r.class_effective_quantum[0];
        sim_eff1 = r.class_effective_quantum[1];
    }

    double rt_eff0 = 0, rt_eff1 = 0;
    {
        RuntimeConfig cfg;
        cfg.num_workers = 2;
        cfg.class_quantum_us = {2.0, 0.5};
        Runtime rt(cfg, [](const Request &req) {
            workloads::spin_for(static_cast<double>(req.payload));
            return req.id;
        });
        rt.start();
        std::vector<Request> reqs;
        for (uint64_t i = 0; i < 60; ++i) {
            Request r;
            r.id = i;
            r.gen_cycles = rdcycles();
            r.job_class = i % 10 == 0 ? 1 : 0;
            r.payload = static_cast<uint64_t>(
                (r.job_class == 1 ? kLongUs : kShortUs) * 1000.0);
            reqs.push_back(r);
        }
        const auto responses = run_requests(rt, reqs);
        rt.stop();
        ASSERT_EQ(responses.size(), reqs.size());
        uint64_t cycles0 = 0, grants0 = 0, cycles1 = 0, grants1 = 0;
        for (int w = 0; w < cfg.num_workers; ++w) {
            const auto &c0 = rt.worker(w).class_sched(0);
            const auto &c1 = rt.worker(w).class_sched(1);
            cycles0 += c0.granted;
            grants0 += c0.grants;
            cycles1 += c1.granted;
            grants1 += c1.grants;
        }
        ASSERT_GT(grants0, 0u);
        ASSERT_GT(grants1, 0u);
        rt_eff0 = cycles_to_ns(cycles0 / grants0);
        rt_eff1 = cycles_to_ns(cycles1 / grants1);
    }

    // Same ordering on both sides of the mirror.
    EXPECT_GT(sim_eff0, sim_eff1);
    EXPECT_GT(rt_eff0, rt_eff1);
    // Both sides grant class 1 no more than its 0.5us base budget
    // (longs never bank credit) and class 0 at least ~its service
    // demand per grant.
    EXPECT_LE(sim_eff1, us(0.5) * 1.01);
    EXPECT_LE(rt_eff1, us(0.5) * 1.01 + 100.0);
    EXPECT_GE(sim_eff0, us(kShortUs) * 0.9);
    // A short uses about half of class 0's 2us base, so under DRR
    // settlement (DESIGN.md §4i) it finishes inside one grant and leaves
    // its leftover as credit: class 0 never carries debt, and every
    // grant arms at least the base, sanitizer builds included.
    EXPECT_GE(rt_eff0, us(2.0));
}

} // namespace
} // namespace tq
