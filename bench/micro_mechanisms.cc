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

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/cycles.h"
#include "common/dispatch_view.h"
#include "conc/mpmc_queue.h"
#include "conc/spsc_ring.h"
#include "coro/coroutine.h"
#include "probe/probe.h"
#include "runtime/request.h"
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
    DispatchView view(n); // lanes start at 0
    for (size_t i = 0; i < n; ++i) {
        for (size_t len = 0; len < i % 4; ++len)
            view.bump_len(i);
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
    // One owner-only add on a cache-line-padded per-worker counter:
    // what a recording site pays besides the branch on telem != nullptr.
    telemetry::WorkerCounters counters;
    for (auto _ : state) {
        owner_add(counters.quanta, 1);
        benchmark::ClobberMemory();
    }
    benchmark::DoNotOptimize(
        counters.quanta.load(std::memory_order_relaxed));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryCounterInc);

/** Pins the calling thread to @p cpu (no-op when it cannot). */
void
pin_to(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/** Reads the calling thread's CPU set into @p allowed and returns its
 *  first two CPUs (fewer when it has fewer). */
std::vector<int>
first_two_cpus(cpu_set_t &allowed)
{
    CPU_ZERO(&allowed);
    sched_getaffinity(0, sizeof(allowed), &allowed);
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE && cpus.size() < 2; ++c)
        if (CPU_ISSET(c, &allowed))
            cpus.push_back(c);
    return cpus;
}

void
BM_IncAfterPolledStore(benchmark::State &state)
{
    // The mechanism behind owner_add (conc/cacheline.h): a worker
    // publishes to a line another core polls (a ring index, a stats
    // line), then bumps a counter of its own. Arg 0 bumps it with a
    // relaxed fetch_add, which on x86 is a lock-prefixed full barrier:
    // it waits for the published store to win the polled line back.
    // Arg 1 bumps it with owner_add, a plain load and store. Both
    // threads are pinned to distinct CPUs; the poller spins with the
    // runtime's pause.
    cpu_set_t allowed;
    const std::vector<int> cpus = first_two_cpus(allowed);
    if (cpus.size() < 2) {
        state.SkipWithError("needs two CPUs");
        return;
    }
    const bool owner = state.range(0) != 0;
    state.SetLabel(owner ? "owner_add" : "fetch_add");
    PaddedAtomic<uint64_t> polled;
    PaddedAtomic<uint64_t> counter;
    std::atomic<bool> stop{false};
    std::thread poller([&] {
        pin_to(cpus[1]);
        while (!stop.load(std::memory_order_relaxed)) {
            benchmark::DoNotOptimize(
                polled.value.load(std::memory_order_relaxed));
            cpu_relax();
        }
    });
    pin_to(cpus[0]);
    uint64_t i = 0;
    for (auto _ : state) {
        polled.value.store(++i, std::memory_order_release);
        if (owner)
            owner_add(counter.value, 1);
        else
            counter.value.fetch_add(1, std::memory_order_relaxed);
    }
    stop.store(true, std::memory_order_relaxed);
    poller.join();
    sched_setaffinity(0, sizeof(allowed), &allowed);
    benchmark::DoNotOptimize(counter.value.load(std::memory_order_relaxed));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IncAfterPolledStore)->ArgName("owner")->Arg(0)->Arg(1);

void
BM_SpscHandoff(benchmark::State &state)
{
    // One request/response round trip between two pinned threads over
    // the runtime's two SPSC ring types: this thread pushes a Request
    // (the dispatcher's hop), the echo thread pops it and pushes a
    // Response (the worker's TX hop), and this thread pops that. Each
    // hop is a cross-core hand-off on the ring's polled path, which the
    // same-thread BM_SpscRingPushPop cannot see. Both poll with the
    // runtime's pause. Time per iteration is one round trip.
    cpu_set_t allowed;
    const std::vector<int> cpus = first_two_cpus(allowed);
    if (cpus.size() < 2) {
        state.SkipWithError("needs two CPUs");
        return;
    }
    SpscRing<runtime::Request> requests(64);
    SpscRing<runtime::Response> responses(64);
    std::atomic<bool> stop{false};
    std::thread echo([&] {
        pin_to(cpus[1]);
        runtime::Request req;
        while (!stop.load(std::memory_order_relaxed)) {
            if (!requests.pop_into(req)) {
                cpu_relax();
                continue;
            }
            runtime::Response resp;
            resp.id = req.id;
            resp.gen_cycles = req.gen_cycles;
            while (!responses.push(resp))
                cpu_relax();
        }
    });
    pin_to(cpus[0]);
    runtime::Request req;
    runtime::Response resp;
    bool in_order = true;
    for (auto _ : state) {
        ++req.id;
        while (!requests.push(req))
            cpu_relax();
        while (!responses.pop_into(resp))
            cpu_relax();
        in_order &= resp.id == req.id;
    }
    stop.store(true, std::memory_order_relaxed);
    echo.join();
    sched_setaffinity(0, sizeof(allowed), &allowed);
    if (!in_order)
        state.SkipWithError("a response came back out of order");
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpscHandoff)->UseRealTime();

void
BM_TelemetryHistogramAdd(benchmark::State &state)
{
    // Bucket index (clz) + three owner-only adds.
    Histogram hist;
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
            wt.class_service[0].add(i * 13);
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
