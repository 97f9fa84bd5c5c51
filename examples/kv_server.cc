/**
 * @file
 * Example: a MiniKV key-value server on Tiny Quanta (the paper's
 * motivating application, section 5.1).
 *
 * Serves a GET/SCAN mix (0.5% scans, each touching thousands of
 * entries) through the TQ runtime, then through an FCFS configuration
 * of the same runtime, and prints the GET tail latency of both: the
 * classic head-of-line-blocking demonstration, on the real system.
 *
 * Run: ./kv_server [--chaos[=seed]] [trace.json]
 *
 * With a path argument, the PS run's quantum-event trace is exported as
 * Chrome trace_event JSON and the telemetry stage decomposition is
 * printed — the worked example walked through in OBSERVABILITY.md.
 *
 * With --chaos, every fault-injection hook site is armed with seeded
 * deterministic yields plus a per-completion stall, and the PS run
 * reports the backpressure counters afterwards — a quick way to watch
 * the drain/stop machinery absorb a misbehaving datapath. Requires a
 * tree configured with -DTQ_FAULT_INJECTION=ON; otherwise the flag
 * prints a note and runs normally.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "core/tq.h"

using namespace tq;

namespace {

constexpr uint64_t kKeys = 50'000;
constexpr size_t kScanLen = 3'000;

/**
 * Burst demo: one long SCAN (~0.1 ms) enters first, then a wave of
 * GETs, all on a single worker. The robust, host-independent signal is
 * completion *order*: preemptive PS lets every GET overtake the SCAN;
 * FCFS makes every GET wait behind it. (Open-loop latency numbers would
 * mostly measure OS timesharing on a shared host with few cores.)
 */
struct BurstResult
{
    int gets_before_scan = 0;
    int gets_total = 0;
};

/** Arm seeded chaos at every hook site; 0 disarms (plain run). */
uint64_t g_chaos_seed = 0;

void
arm_chaos()
{
    auto &inj = fault::FaultInjector::instance();
    inj.reset();
    inj.seed(g_chaos_seed);
    for (int s = 0; s < static_cast<int>(fault::Site::kCount); ++s)
        inj.yield_every(static_cast<fault::Site>(s), 16);
    // A sluggish response path on top of the yields: every completion
    // stalls before the TX push, so the ring backs up for real.
    inj.stall(fault::Site::WorkerComplete, 5.0);
}

/** Serve the burst from @p kv, which the worker only reads (GET and SCAN
 *  are const), so the store is loaded once, before any runtime starts,
 *  and no job pays for it. */
BurstResult
serve_burst(const workloads::MiniKV &kv, runtime::WorkPolicy policy,
            const char *trace_path = nullptr)
{
    runtime::RuntimeConfig cfg;
    cfg.num_workers = 1;
    cfg.quantum_us = 2.0;
    cfg.work = policy;

    runtime::Runtime rt(cfg, [&kv](const runtime::Request &req) {
        uint64_t checksum = 0;
        if (req.job_class == 0) {
            std::string value;
            kv.get(req.payload % kKeys, &value);
            checksum = value.empty() ? 0 : static_cast<uint64_t>(value[0]);
        } else {
            kv.scan(req.payload % kKeys, kScanLen, &checksum);
        }
        return checksum;
    });
    if (g_chaos_seed != 0)
        arm_chaos();
    rt.start();

    constexpr int kGets = 40;
    auto make = [](uint64_t id, int cls, uint64_t payload) {
        runtime::Request r;
        r.id = id;
        r.gen_cycles = rdcycles();
        r.job_class = cls;
        r.payload = payload;
        return r;
    };
    rt.submit(make(999, 1, 0)); // the scan
    for (uint64_t i = 0; i < kGets; ++i)
        rt.submit(make(i, 0, i * 2654435761u));

    std::vector<runtime::Response> responses;
    while (responses.size() < kGets + 1) {
        rt.drain_responses(responses);
        std::this_thread::yield();
    }
    rt.stop();

    if (g_chaos_seed != 0) {
        std::printf("[chaos seed %llu] backpressure under fault load: "
                    "tx-full spins %llu, dispatch-full spins %llu, "
                    "dropped %llu, abandoned %llu\n",
                    static_cast<unsigned long long>(g_chaos_seed),
                    static_cast<unsigned long long>(rt.tx_ring_full_spins()),
                    static_cast<unsigned long long>(
                        rt.dispatch_ring_full_spins()),
                    static_cast<unsigned long long>(rt.dropped_responses()),
                    static_cast<unsigned long long>(rt.abandoned_jobs()));
        fault::FaultInjector::instance().reset();
    }

    if (trace_path != nullptr) {
        if (!telemetry::kEnabled) {
            std::printf("(telemetry compiled out: -DTQ_TELEMETRY=OFF; no "
                        "trace written)\n");
        } else {
            std::printf("\n%s",
                        rt.telemetry_snapshot().to_string().c_str());
            std::vector<telemetry::TraceEvent> events;
            rt.drain_trace(events);
            std::ofstream out(trace_path);
            telemetry::write_chrome_trace(out, events);
            std::printf("wrote %zu trace events to %s (load in "
                        "chrome://tracing or ui.perfetto.dev)\n\n",
                        events.size(), trace_path);
        }
    }

    Cycles scan_done = 0;
    for (const auto &r : responses)
        if (r.id == 999)
            scan_done = r.done_cycles;
    BurstResult result;
    result.gets_total = kGets;
    for (const auto &r : responses)
        if (r.id != 999 && r.done_cycles < scan_done)
            ++result.gets_before_scan;
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    std::printf("MiniKV on Tiny Quanta: %llu keys; one %zu-entry SCAN "
                "submitted first, then 40 GETs, one worker.\n",
                static_cast<unsigned long long>(kKeys), kScanLen);

    const char *trace_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--chaos", 7) == 0) {
            g_chaos_seed =
                argv[i][7] == '=' ? std::strtoull(argv[i] + 8, nullptr, 10)
                                  : 1;
            if (g_chaos_seed == 0)
                g_chaos_seed = 1;
        } else {
            trace_path = argv[i];
        }
    }
    if (g_chaos_seed != 0 && !fault::kEnabled) {
        std::printf("(--chaos: fault hooks compiled out; configure with "
                    "-DTQ_FAULT_INJECTION=ON. Running without faults.)\n");
        g_chaos_seed = 0;
    }

    workloads::MiniKV kv(42, 100);
    kv.load_sequential(kKeys);
    const BurstResult ps =
        serve_burst(kv, runtime::WorkPolicy::ProcessorSharing, trace_path);
    const BurstResult fcfs = serve_burst(kv, runtime::WorkPolicy::Fcfs);

    std::printf("TQ (PS, 2us quanta): %d / %d GETs completed before the "
                "SCAN\n",
                ps.gets_before_scan, ps.gets_total);
    std::printf("FCFS baseline:       %d / %d GETs completed before the "
                "SCAN\n",
                fcfs.gets_before_scan, fcfs.gets_total);
    std::printf("=> forced multitasking preempts the SCAN inside MiniKV's "
                "own probe sites, so point lookups never wait behind "
                "range scans.\n");
    return 0;
}
