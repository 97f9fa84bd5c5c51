/**
 * @file
 * Tests for the telemetry layer: stage summaries and their merge across
 * writers, trace-ring overflow semantics, snapshot-while-running races, the
 * Chrome trace exporter (golden file), and end-to-end recording through
 * the real runtime.
 */
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/runtime.h"
#include "telemetry/telemetry.h"
#include "workloads/spin.h"

namespace tq::telemetry {
namespace {

TEST(Summarize, CountsAndExactMean)
{
    Histogram h;
    const uint64_t values[] = {0, 1, 2, 3, 4, 1024, ~uint64_t{0}};
    uint64_t sum = 0;
    for (uint64_t v : values) {
        h.add(v);
        sum += v;
    }
    const StageStats stats = summarize({&h});
    EXPECT_EQ(stats.count, 7u);
    EXPECT_DOUBLE_EQ(stats.mean_ns, cycles_to_ns(sum) / 7.0);
    // 99 % of 7 samples is all 7: the clamped top bucket's midpoint.
    EXPECT_EQ(stats.p99_ns,
              cycles_to_ns(static_cast<Cycles>(
                  static_cast<double>(uint64_t{1} << 39) * std::sqrt(2.0))));
}

TEST(Summarize, EmptyIsZero)
{
    Histogram h;
    for (const StageStats &stats : {summarize({}), summarize({&h, &h})}) {
        EXPECT_EQ(stats.count, 0u);
        EXPECT_EQ(stats.mean_ns, 0.0);
        EXPECT_EQ(stats.p99_ns, 0.0);
    }
}

/** Sum of @p n copies of @p value added to @p h. */
template <typename Hist>
Cycles
add_n(Hist &h, int n, Cycles value)
{
    for (int i = 0; i < n; ++i)
        h.add(value);
    return static_cast<Cycles>(n) * value;
}

/** The p99 a snapshot reports when log2 bucket @p i is the first whose
 *  cumulative count covers 99 % of the samples: the bucket's geometric
 *  midpoint (1 cycle for bucket 0), in ns. */
double
bucket_p99_ns(int i)
{
    const double mid =
        i == 0 ? 1.0
               : static_cast<double>(uint64_t{1} << i) * std::sqrt(2.0);
    return cycles_to_ns(static_cast<Cycles>(mid));
}

/** Exact mean the snapshot derives from a summed cycle total. */
double
mean_ns(Cycles sum, uint64_t count)
{
    return cycles_to_ns(sum) / static_cast<double>(count);
}

std::string
stage_row(const char *name, uint64_t count, double mean, double p99)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s\t%llu\t%.3f\t%.3f\n", name,
                  static_cast<unsigned long long>(count), mean / 1e3,
                  p99 / 1e3);
    return buf;
}

TEST(MetricsRegistry, SnapshotMergesStagesAcrossWritersExactly)
{
    // Fixed samples spread over two workers and the dispatcher. Every
    // stage's count, exact mean and bucket p99 — and the rendered table
    // — must equal what the merge rules give: means from the summed
    // sum/count, p99 at the geometric midpoint of the first bucket
    // covering 99 % of the merged bucket total.
    MetricsRegistry reg(2, 64);
    DispatcherTelemetry &d = reg.dispatcher();
    WorkerTelemetry &w0 = reg.worker(0);
    WorkerTelemetry &w1 = reg.worker(1);

    // dispatch: 150 x 300 (bucket 8), 50 x 3000 (bucket 11) and
    // 2 x 2^20. 99 % of 202 is 200 -> bucket 11.
    Cycles dispatch_sum = add_n(d.dispatch_cycles, 150, 300);
    dispatch_sum += add_n(d.dispatch_cycles, 50, 3000);
    dispatch_sum += add_n(d.dispatch_cycles, 2, Cycles{1} << 20);
    // Value histogram: batch occupancy.
    add_n(d.batch_occupancy, 2, 1);
    add_n(d.batch_occupancy, 1, 3);
    add_n(d.batch_occupancy, 1, 2);

    // queueing: 0 and 1 share bucket 0, which covers 99 of 100.
    Cycles queue_sum = add_n(w0.queue_cycles, 50, 0);
    queue_sum += add_n(w0.queue_cycles, 49, 1);
    queue_sum += add_n(w1.queue_cycles, 1, 70'000);
    // service and sojourn are the union of every worker's ledger-slot
    // histograms. Slot 2 saw no grants, so per_class trims it, but its
    // samples still count in both stages; the per-class samples below
    // join them.
    Cycles service_sum = add_n(w0.class_service[2], 10, 1000);
    service_sum += add_n(w1.class_service[2], 10, 2000);
    Cycles sojourn_sum = add_n(w0.class_sojourn[2], 3, 7);
    sojourn_sum += add_n(w1.class_sojourn[2], 1, 123'456);
    // preempt: worker 1 recorded nothing.
    const Cycles preempt_sum = add_n(w0.preempt_cycles, 3, 40);

    // Per-class instruments: class 0 on both workers, class 1 on one;
    // a sample past 2^39 clamps into the last bucket.
    w0.class_grants[0].store(4);
    w1.class_grants[0].store(2);
    w0.class_granted_cycles[0].store(8000);
    w1.class_granted_cycles[0].store(1000);
    w0.class_deficit[0].store(-5);
    w1.class_deficit[0].store(7);
    Cycles c0_service = add_n(w0.class_service[0], 2, 500);
    c0_service += add_n(w1.class_service[0], 1, 600);
    Cycles c0_sojourn = add_n(w0.class_sojourn[0], 2, 900);
    c0_sojourn += add_n(w1.class_sojourn[0], 1, Cycles{1} << 45);
    w1.class_grants[1].store(3);
    w1.class_granted_cycles[1].store(6000);
    const Cycles c1_service = add_n(w1.class_service[1], 1, 5000);
    const Cycles c1_sojourn = add_n(w1.class_sojourn[1], 1, 5000);

    for (WorkerTelemetry *w : {&w0, &w1}) {
        w->counters.admitted.store(10);
        w->counters.quanta.store(12);
    }

    MetricsSnapshot s = reg.snapshot();
    EXPECT_EQ(s.dispatched, 0u) << "the runtime fills the per-job counts";
    EXPECT_EQ(s.finished, 0u);
    EXPECT_EQ(s.yields, 0u);
    // As Runtime::telemetry_snapshot() does, from its assigned counts
    // and the workers' stats lines.
    s.dispatched = 202;
    s.finished = 20;
    s.yields = 4;
    EXPECT_EQ(s.dispatch_batches, 4u);
    EXPECT_EQ(s.mean_dispatch_batch, 7.0 / 4.0);

    const struct
    {
        const char *name;
        const StageStats &got;
        uint64_t count;
        Cycles sum;
        int p99_bucket;
    } stages[] = {
        {"dispatch", s.dispatch, 202, dispatch_sum, 11},
        {"queueing", s.queueing, 100, queue_sum, 0},
        // 99 % of 24 is 24 -> bucket 12 (class 1's 5000).
        {"service", s.service, 24, service_sum + c0_service + c1_service,
         12},
        {"preempt", s.preempt, 3, preempt_sum, 5},
        // 99 % of 8 is 8 -> class 0's clamped 2^45 in bucket 39.
        {"sojourn", s.sojourn, 8, sojourn_sum + c0_sojourn + c1_sojourn,
         39},
    };
    std::string table = "stage\tcount\tmean_us\tp99_us\n";
    for (const auto &st : stages) {
        SCOPED_TRACE(st.name);
        EXPECT_EQ(st.got.count, st.count);
        EXPECT_EQ(st.got.mean_ns, mean_ns(st.sum, st.count));
        EXPECT_EQ(st.got.p99_ns, bucket_p99_ns(st.p99_bucket));
        table += stage_row(st.name, st.count, mean_ns(st.sum, st.count),
                           bucket_p99_ns(st.p99_bucket));
    }

    ASSERT_EQ(s.per_class.size(), 2u);
    EXPECT_EQ(s.per_class[0].grants, 6u);
    EXPECT_EQ(s.per_class[0].finished, 3u);
    EXPECT_EQ(s.per_class[0].deficit_cycles, 2);
    EXPECT_EQ(s.per_class[0].mean_granted_us,
              cycles_to_ns(9000) / 6.0 / 1e3);
    EXPECT_EQ(s.per_class[0].service.count, 3u);
    EXPECT_EQ(s.per_class[0].service.mean_ns, mean_ns(c0_service, 3));
    EXPECT_EQ(s.per_class[0].service.p99_ns, bucket_p99_ns(9));
    EXPECT_EQ(s.per_class[0].sojourn.count, 3u);
    EXPECT_EQ(s.per_class[0].sojourn.p99_ns, bucket_p99_ns(39));
    EXPECT_EQ(s.per_class[1].grants, 3u);
    EXPECT_EQ(s.per_class[1].finished, 1u);
    EXPECT_EQ(s.per_class[1].service.mean_ns, mean_ns(c1_service, 1));
    EXPECT_EQ(s.per_class[1].sojourn.p99_ns, bucket_p99_ns(12));
    // The per-class tables read the stage totals' own histograms: with
    // slot 2's 20 service and 4 sojourn samples they add up exactly.
    EXPECT_EQ(s.per_class[0].service.count + s.per_class[1].service.count +
                  20,
              s.service.count);
    EXPECT_EQ(s.per_class[0].sojourn.count + s.per_class[1].sojourn.count +
                  4,
              s.sojourn.count);

    char buf[256];
    std::string classes = "starvation promotions: 0\n"
                          "class\tgrants\tfinished\tgranted_us\t"
                          "deficit_cyc\tservice_us\tsojourn_p99_us\n";
    std::snprintf(buf, sizeof(buf), "0\t6\t3\t%.3f\t2\t%.3f\t%.3f\n",
                  cycles_to_ns(9000) / 6.0 / 1e3,
                  mean_ns(c0_service, 3) / 1e3, bucket_p99_ns(39) / 1e3);
    classes += buf;
    std::snprintf(buf, sizeof(buf), "1\t3\t1\t%.3f\t0\t%.3f\t%.3f\n",
                  cycles_to_ns(6000) / 3.0 / 1e3,
                  mean_ns(c1_service, 1) / 1e3, bucket_p99_ns(12) / 1e3);
    classes += buf;

    EXPECT_EQ(s.to_string(),
              "jobs: dispatched 202, admitted 20, finished 20\n"
              "quanta: 24 (probe yields 4, guard-deferred 0)\n"
              "trace events dropped: 0\n"
              "dispatch batches: 4 (mean occupancy 1.75)\n"
              "backpressure: tx-full spins 0, dispatch-full spins 0, "
              "dropped responses 0, abandoned jobs 0\n" +
                  table + classes);
}

TEST(TraceRing, OverflowDropsInsteadOfBlocking)
{
    TraceRing ring(3, 8);
    ASSERT_EQ(ring.capacity(), 8u);
    for (uint64_t job = 0; job < 20; ++job)
        ring.record(EventKind::QuantumStart, job);
    EXPECT_EQ(ring.dropped(), 12u);

    std::vector<TraceEvent> out;
    EXPECT_EQ(ring.drain(out), 8u);
    ASSERT_EQ(out.size(), 8u);
    for (uint64_t i = 0; i < 8; ++i) {
        EXPECT_EQ(out[i].job, i) << "FIFO order: oldest events survive";
        EXPECT_EQ(out[i].tid, 3u);
        EXPECT_EQ(out[i].kind, EventKind::QuantumStart);
    }

    // After a drain the ring accepts events again.
    ring.record(EventKind::JobFinished, 99);
    out.clear();
    EXPECT_EQ(ring.drain(out), 1u);
    EXPECT_EQ(out[0].job, 99u);
}

TEST(MetricsRegistry, SnapshotWhileRunning)
{
    // One writer per worker slot hammers counters and histograms while
    // the main thread snapshots continuously: snapshots must never
    // tear (decreasing totals) and the final snapshot must be exact.
    constexpr int kWorkers = 2;
    constexpr uint64_t kIters = 200'000;
    MetricsRegistry reg(kWorkers, 64);

    std::atomic<bool> go{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWorkers; ++w) {
        writers.emplace_back([&reg, &go, w] {
            while (!go.load())
                std::this_thread::yield();
            WorkerTelemetry &wt = reg.worker(w);
            for (uint64_t i = 0; i < kIters; ++i) {
                wt.counters.quanta.fetch_add(1, std::memory_order_relaxed);
                wt.counters.guard_deferrals.fetch_add(
                    1, std::memory_order_relaxed);
                wt.queue_cycles.add(i & 0xffff);
                wt.class_service[0].add(i & 0xff);
            }
        });
    }

    go.store(true);
    uint64_t last_quanta = 0;
    uint64_t last_deferrals = 0;
    for (int i = 0; i < 200; ++i) {
        const MetricsSnapshot snap = reg.snapshot();
        EXPECT_GE(snap.quanta, last_quanta);
        EXPECT_GE(snap.guard_deferrals, last_deferrals);
        EXPECT_LE(snap.quanta, kWorkers * kIters);
        last_quanta = snap.quanta;
        last_deferrals = snap.guard_deferrals;
    }
    for (auto &t : writers)
        t.join();

    const MetricsSnapshot fin = reg.snapshot();
    EXPECT_EQ(fin.quanta, kWorkers * kIters);
    EXPECT_EQ(fin.guard_deferrals, kWorkers * kIters);
    EXPECT_EQ(fin.queueing.count, kWorkers * kIters);
    EXPECT_EQ(fin.service.count, kWorkers * kIters);
    EXPECT_FALSE(fin.to_string().empty());
}

TEST(MetricsRegistry, DrainTraceMergesSortedByTimestamp)
{
    MetricsRegistry reg(2, 64);
    // Interleave recording across three rings; rdcycles() stamps give a
    // globally meaningful order on an invariant-TSC host.
    for (uint64_t i = 0; i < 10; ++i) {
        reg.dispatcher().trace.record(EventKind::JobDispatched, i, 0);
        reg.worker(static_cast<int>(i % 2))
            .trace.record(EventKind::QuantumStart, i);
    }
    std::vector<TraceEvent> out;
    EXPECT_EQ(reg.drain_trace(out), 20u);
    for (size_t i = 1; i < out.size(); ++i)
        EXPECT_LE(out[i - 1].tsc, out[i].tsc);
}

std::vector<TraceEvent>
golden_events()
{
    // A fixed two-thread scenario: job 7 is dispatched, runs one full
    // quantum (ended by a probe yield), defers one expiry inside a
    // guard, and finishes in its second quantum.
    const auto ev = [](Cycles tsc, uint64_t job, uint32_t arg,
                       EventKind kind, uint8_t tid) {
        TraceEvent e;
        e.tsc = tsc;
        e.job = job;
        e.arg = arg;
        e.kind = kind;
        e.tid = tid;
        return e;
    };
    return {
        ev(1000, 7, 0, EventKind::JobDispatched, kDispatcherTid),
        ev(1100, 7, 0, EventKind::QuantumStart, 0),
        ev(3100, 7, 0, EventKind::ProbeYield, 0),
        ev(3200, 7, 1, EventKind::QuantumStart, 0),
        ev(4000, 7, 0, EventKind::GuardDeferredYield, 0),
        ev(4200, 7, 0, EventKind::JobFinished, 0),
    };
}

TEST(ChromeTrace, MatchesGoldenFile)
{
    ChromeTraceOptions opts;
    opts.cycles_per_ns = 1.0; // deterministic cycles -> us conversion
    std::ostringstream os;
    write_chrome_trace(os, golden_events(), opts);

    const std::string path =
        std::string(TQ_TEST_DATA_DIR) + "/trace_golden.json";
    std::ifstream golden(path);
    ASSERT_TRUE(golden.is_open()) << "missing golden file " << path;
    std::stringstream expected;
    expected << golden.rdbuf();
    EXPECT_EQ(os.str(), expected.str());
}

TEST(ChromeTrace, EmptyTraceIsValidJson)
{
    std::ostringstream os;
    write_chrome_trace(os, {}, ChromeTraceOptions{1.0});
    EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
    EXPECT_EQ(os.str().back(), '\n');
}

TEST(RuntimeTelemetry, EndToEndSnapshotAndTrace)
{
    constexpr int kJobs = 24;
    runtime::RuntimeConfig cfg;
    cfg.num_workers = 2;
    cfg.quantum_us = 2.0;
    runtime::Runtime rt(cfg, [](const runtime::Request &req) {
        workloads::spin_for(static_cast<double>(req.payload));
        return req.id;
    });
    rt.start();

    for (uint64_t i = 0; i < kJobs; ++i) {
        runtime::Request r;
        r.id = i;
        r.gen_cycles = rdcycles();
        r.payload = 20'000; // 20us: several quanta under PS
        ASSERT_TRUE(rt.submit(r));
    }
    std::vector<runtime::Response> responses;
    while (responses.size() < kJobs) {
        rt.drain_responses(responses);
        std::this_thread::yield();
    }
    rt.stop();

    const MetricsSnapshot snap = rt.telemetry_snapshot();
    std::vector<TraceEvent> events;
    rt.drain_trace(events);

    // The per-job counts and the yields come from the runtime's own
    // counters, so they are true in every build.
    EXPECT_EQ(snap.dispatched, kJobs);
    EXPECT_EQ(snap.finished, kJobs);
    EXPECT_GT(snap.yields, 0u) << "20us jobs at 2us quanta must preempt";
    if (!kEnabled) {
        EXPECT_EQ(events.size(), 0u);
        return;
    }

    EXPECT_EQ(snap.admitted, kJobs);
    EXPECT_GE(snap.quanta, kJobs); // 20us jobs need > 1 quantum each
    EXPECT_EQ(snap.quanta, snap.yields + snap.finished)
        << "every slice ends in a probe yield or a completion";
    EXPECT_EQ(snap.dispatch.count, kJobs);
    EXPECT_EQ(snap.queueing.count, kJobs);
    EXPECT_EQ(snap.service.count, kJobs);
    EXPECT_GT(snap.service.mean_ns, 0.0);
    // The worker records each job's sojourn, so no load generator is
    // needed for a whole stage table.
    EXPECT_EQ(snap.sojourn.count, kJobs);
    EXPECT_GE(snap.sojourn.mean_ns, snap.service.mean_ns);

    int dispatched = 0, starts = 0, yields = 0, finishes = 0;
    for (const TraceEvent &ev : events) {
        switch (ev.kind) {
          case EventKind::JobDispatched:
            ++dispatched;
            EXPECT_EQ(ev.tid, kDispatcherTid);
            break;
          case EventKind::QuantumStart:
            ++starts;
            break;
          case EventKind::ProbeYield:
            ++yields;
            break;
          case EventKind::JobFinished:
            ++finishes;
            break;
          default:
            break;
        }
    }
    EXPECT_EQ(dispatched, kJobs);
    EXPECT_EQ(finishes, kJobs);
    EXPECT_EQ(static_cast<uint64_t>(starts), snap.quanta);
    // The probe marks each yield in the trace; the stats line counts it.
    EXPECT_EQ(static_cast<uint64_t>(yields), snap.yields);
}

} // namespace
} // namespace tq::telemetry
