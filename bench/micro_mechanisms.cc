/**
 * @file
 * Microbenchmarks of TQ's real mechanisms (google-benchmark).
 *
 * These numbers calibrate the simulator's Overheads (DESIGN.md): the
 * coroutine yield cost backs switch_overhead; the probe cost backs the
 * forced-multitasking overhead model; ring and JSQ-scan costs back
 * dispatch_cost. The paper's corresponding claims: stackful coroutine
 * yields in tens of ns (section 3.1), probes cost a partially-hidden
 * RDTSC, and the dispatcher does only per-job work (section 3.2).
 *
 * The BM_Telemetry* group prices the observability layer's hot-path
 * operations; OBSERVABILITY.md quotes these as the per-event overhead
 * budget. Build with -DTQ_TELEMETRY=OFF and compare BM_ProbeNotExpired
 * to bound the probe-cost regression of the always-compiled state.
 */
#include <benchmark/benchmark.h>

#include <vector>

#include "common/cycles.h"
#include "common/dispatch_view.h"
#include "conc/mpmc_queue.h"
#include "conc/spsc_ring.h"
#include "coro/coroutine.h"
#include "probe/probe.h"
#include "runtime/worker_stats.h"
#include "telemetry/telemetry.h"

namespace {

using namespace tq;

void
BM_Rdcycles(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(rdcycles());
}
BENCHMARK(BM_Rdcycles);

void
BM_ProbeNotExpired(benchmark::State &state)
{
    // The fast path every instrumented job pays at each probe site.
    probe_state() = ProbeState{};
    arm_quantum(~Cycles{0} >> 1);
    for (auto _ : state)
        tq_probe();
    disarm_quantum();
}
BENCHMARK(BM_ProbeNotExpired);

void
BM_CoroutineYieldResume(benchmark::State &state)
{
    // One scheduler->task->scheduler round trip (two context switches):
    // the cost of a preemption under forced multitasking.
    Coroutine co([](Coroutine &self) {
        for (;;)
            self.yield();
    });
    for (auto _ : state)
        co.resume();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoroutineYieldResume);

void
BM_CoroutineCreateDestroy(benchmark::State &state)
{
    for (auto _ : state) {
        Coroutine co([](Coroutine &) {});
        co.resume();
        benchmark::DoNotOptimize(co.done());
    }
}
BENCHMARK(BM_CoroutineCreateDestroy);

void
BM_SpscRingPushPop(benchmark::State &state)
{
    SpscRing<uint64_t> ring(1024);
    uint64_t v = 0;
    for (auto _ : state) {
        ring.push(v++);
        benchmark::DoNotOptimize(ring.pop());
    }
}
BENCHMARK(BM_SpscRingPushPop);

void
BM_MpmcQueuePushPop(benchmark::State &state)
{
    MpmcQueue<uint64_t> q(1024);
    uint64_t v = 0;
    for (auto _ : state) {
        q.push(v++);
        benchmark::DoNotOptimize(q.pop());
    }
}
BENCHMARK(BM_MpmcQueuePushPop);

void
BM_RingBatchPushPop(benchmark::State &state)
{
    // Batched SPSC transfer: push_n/pop_n move the whole batch with one
    // index acquire/release pair each. Per-item cost vs the scalar
    // BM_SpscRingPushPop is the batching win; Arg is the batch size
    // (Arg 1 prices the batch-API overhead itself).
    const size_t k = static_cast<size_t>(state.range(0));
    SpscRing<uint64_t> ring(1024);
    std::vector<uint64_t> src(k), dst(k);
    uint64_t v = 0;
    for (size_t i = 0; i < k; ++i)
        src[i] = v++;
    for (auto _ : state) {
        ring.push_n(src.data(), k);
        benchmark::DoNotOptimize(ring.pop_n(dst.data(), k));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(k));
}
BENCHMARK(BM_RingBatchPushPop)->Arg(1)->Arg(8)->Arg(32);

void
BM_RingPopInto(benchmark::State &state)
{
    // In-place scalar pop: no std::optional wrapper on the hot path.
    SpscRing<uint64_t> ring(1024);
    uint64_t v = 0, out = 0;
    for (auto _ : state) {
        ring.push(v++);
        ring.pop_into(out);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingPopInto);

void
BM_MpmcPopN(benchmark::State &state)
{
    // Batched MPMC dequeue: one CAS on the contended cursor per batch
    // (the dispatcher's RX pop). Arg is the batch size.
    const size_t k = static_cast<size_t>(state.range(0));
    MpmcQueue<uint64_t> q(1024);
    std::vector<uint64_t> dst(k);
    uint64_t v = 0;
    for (auto _ : state) {
        for (size_t i = 0; i < k; ++i)
            q.push(v++);
        benchmark::DoNotOptimize(q.pop_n(dst.data(), k));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(k));
}
BENCHMARK(BM_MpmcPopN)->Arg(1)->Arg(8)->Arg(32);

void
BM_JsqPickPacked(benchmark::State &state)
{
    // The packed per-request decision (common/dispatch_view.h), pick +
    // bump. Arg is the worker count: at 16 the lengths are exactly one
    // line, at 64 (fig17's widest sim view) they span four.
    const size_t n = static_cast<size_t>(state.range(0));
    DispatchView view(n);
    for (size_t i = 0; i < n; ++i) {
        view.set_len(i, i % 4);
        view.set_quanta(i, static_cast<uint32_t>(i));
    }
    for (auto _ : state) {
        const int best = view.pick_jsq_msq();
        benchmark::DoNotOptimize(best);
        view.bump_len(static_cast<size_t>(best));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JsqPickPacked)->Arg(16)->Arg(64);

void
BM_DispatchBatchPacked(benchmark::State &state)
{
    // The batched dispatcher's per-request decision (runtime.cc): the
    // 16 shared counter lines are read once per batch into the packed
    // DispatchView; each request then picks and bumps only that view.
    // Arg is the batch size; Arg 1 is the per-request refresh cost.
    const size_t k = static_cast<size_t>(state.range(0));
    constexpr int kWorkers = 16;
    runtime::WorkerStatsLine lines[kWorkers];
    runtime::WorkerStatsReader readers[kWorkers];
    uint64_t assigned[kWorkers] = {};
    DispatchView view(kWorkers);
    for (int i = 0; i < kWorkers; ++i)
        lines[i].finished.store(static_cast<uint32_t>(i * 3));
    for (auto _ : state) {
        // Batch boundary: one pass over the shared lines.
        for (int i = 0; i < kWorkers; ++i) {
            const size_t i_w = static_cast<size_t>(i);
            const uint64_t fin = readers[i].read_finished(lines[i]);
            view.set_len(i_w,
                         assigned[i] > fin ? assigned[i] - fin : 0);
            view.set_quanta(
                i_w,
                runtime::WorkerStatsReader::read_current_quanta(lines[i]));
        }
        // Per-request work: packed pick + saturating bump.
        for (size_t j = 0; j < k; ++j) {
            const int best = view.pick_jsq_msq();
            benchmark::DoNotOptimize(best);
            view.bump_len(static_cast<size_t>(best));
            ++assigned[best];
            lines[best].finished.fetch_add(1, std::memory_order_relaxed);
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(k));
}
BENCHMARK(BM_DispatchBatchPacked)->Arg(1)->Arg(8)->Arg(32);

void
BM_PreemptGuard(benchmark::State &state)
{
    probe_state() = ProbeState{};
    for (auto _ : state) {
        PreemptGuard guard;
        benchmark::DoNotOptimize(&guard);
    }
}
BENCHMARK(BM_PreemptGuard);

void
BM_TelemetryCounterInc(benchmark::State &state)
{
    // One relaxed fetch_add on a cache-line-padded per-worker counter:
    // what a recording site pays besides the branch on telem != nullptr.
    telemetry::WorkerCounters counters;
    for (auto _ : state)
        counters.quanta.fetch_add(1, std::memory_order_relaxed);
    benchmark::DoNotOptimize(
        counters.quanta.load(std::memory_order_relaxed));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryCounterInc);

void
BM_TelemetryHistogramAdd(benchmark::State &state)
{
    // Bucket index (clz) + three relaxed fetch_adds.
    telemetry::CycleHistogram hist;
    uint64_t v = 1;
    for (auto _ : state) {
        hist.add(v);
        v = v * 2862933555777941757ULL + 3037000493ULL; // cheap LCG
    }
    benchmark::DoNotOptimize(hist.count());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryHistogramAdd);

void
BM_TelemetryTraceRecord(benchmark::State &state)
{
    // RDTSC stamp + SPSC push. Sized so the ring never fills: this is
    // the fast-path cost, not the drop path.
    telemetry::TraceRing ring(0, 1 << 20);
    uint64_t job = 0;
    std::vector<telemetry::TraceEvent> sink;
    for (auto _ : state) {
        ring.record(telemetry::EventKind::QuantumStart, job++);
        if ((job & ((1u << 19) - 1)) == 0) { // drain before wrap
            state.PauseTiming();
            sink.clear();
            ring.drain(sink);
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryTraceRecord);

void
BM_TelemetryTraceRecordFull(benchmark::State &state)
{
    // Overflow path: ring stays full, every record drops. Must stay
    // cheap and never block (the runtime keeps running blind).
    telemetry::TraceRing ring(0, 8);
    for (int i = 0; i < 8; ++i)
        ring.record(telemetry::EventKind::QuantumStart, 0);
    for (auto _ : state)
        ring.record(telemetry::EventKind::QuantumStart, 1);
    benchmark::DoNotOptimize(ring.dropped());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryTraceRecordFull);

void
BM_TelemetrySnapshot(benchmark::State &state)
{
    // Full registry snapshot with populated histograms: the cost the
    // *observer* pays, amortised over however often it polls. Workers
    // pay nothing.
    telemetry::MetricsRegistry reg(16, 64);
    for (int w = 0; w < 16; ++w) {
        auto &wt = reg.worker(w);
        for (uint64_t i = 0; i < 1000; ++i) {
            wt.queue_cycles.add(i * 97);
            wt.service_cycles.add(i * 13);
        }
    }
    for (auto _ : state) {
        const telemetry::MetricsSnapshot snap = reg.snapshot();
        benchmark::DoNotOptimize(snap.quanta);
    }
}
BENCHMARK(BM_TelemetrySnapshot);

} // namespace

BENCHMARK_MAIN();
