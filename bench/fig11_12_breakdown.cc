/**
 * @file
 * Paper Figures 11-12: breakdown of TQ's performance on the RocksDB
 * 0.5%-SCAN workload. Variants (section 5.4):
 *
 *  - TQ-IC: the instruction-counter instrumentation replaces TQ's pass.
 *    Its probing overhead is *measured live* by instrumenting this
 *    repository's rocksdb-get IR with the CI pass and executing it, and
 *    that inflation factor is applied to job service times.
 *  - TQ-SLOW-YIELD: +1us per coroutine yield.
 *  - TQ-TIMING: inaccurate quanta (1us for GET, 3us for SCAN).
 *  - TQ-RAND / TQ-POWER-TWO: alternative load balancers.
 *  - TQ-FCFS: run-to-completion workers.
 *
 * Expected shape (paper): at a 50us GET latency budget, TQ-IC ~62% of
 * TQ's throughput, TQ-SLOW-YIELD ~81%, TQ-TIMING ~81%, TQ-RAND ~53%,
 * TQ-POWER-TWO similar throughput but higher latency, TQ-FCFS ~34%.
 *
 * The sojourn-time decomposition underlying these figures (dispatch,
 * queueing, service, preemption overhead) is measured on the *real*
 * runtime from tq::telemetry snapshots — the load-sweep curves stay on
 * the calibrated DES, but the stage costs come from live counters and
 * histograms, not ad-hoc timers.
 */
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/dist.h"
#include "compiler/report.h"
#include "net/loadgen.h"
#include "net/runtime_server.h"
#include "progs/programs.h"
#include "runtime/runtime.h"
#include "sim/sweep.h"
#include "sim/two_level.h"
#include "telemetry/telemetry.h"
#include "workloads/spin.h"

using namespace tq;
using namespace tq::sim;

namespace {

double
measure_ci_overhead()
{
    // Instrument the rocksdb-get IR with the CI pass and execute it under
    // the timing model: the probing overhead inflates TQ-IC service times.
    compiler::PassConfig pcfg;
    pcfg.bound = 120;
    compiler::ExecConfig ecfg;
    ecfg.quantum_cycles = 2.0 * 1e3 * ecfg.cost.cycles_per_ns; // 2us
    const auto m = progs::make_rocksdb_get();
    const auto ci = compiler::measure_technique(
        m, compiler::ProbeKind::CiCounter, pcfg, ecfg);
    const auto tq_pass = compiler::measure_technique(
        m, compiler::ProbeKind::TqClock, pcfg, ecfg);
    std::printf("# measured probing overhead on rocksdb-get IR: CI %.1f%% "
                "(%d probes), TQ %.1f%% (%d probes)\n",
                ci.overhead * 100, ci.static_probes, tq_pass.overhead * 100,
                tq_pass.static_probes);
    return ci.overhead;
}

/**
 * Measure the dispatch/queueing/service/preemption decomposition on the
 * real runtime: serve the RocksDB 0.5%-SCAN service-time profile as
 * calibrated spin jobs through Runtime + the open-loop generator, then
 * read the stage breakdown from a telemetry snapshot.
 */
void
real_runtime_decomposition()
{
    std::printf("## real-runtime stage decomposition (tq::telemetry)\n");
    if (!telemetry::kEnabled) {
        std::printf("telemetry compiled out (-DTQ_TELEMETRY=OFF); "
                    "skipping\n");
        return;
    }
    runtime::RuntimeConfig cfg;
    cfg.num_workers = 2;
    cfg.quantum_us = 2.0;
    runtime::Runtime rt(cfg, [](const runtime::Request &req) {
        workloads::spin_for(static_cast<double>(req.payload));
        return req.id;
    });
    rt.start();

    net::RuntimeServer server(rt);
    const auto dist = workload_table::rocksdb(0.005);
    net::LoadGenConfig lg;
    lg.rate_mrps = 0.01; // modest: threads timeshare the host's cores
    lg.duration_sec = 0.2;
    const net::ClientStats client = net::run_open_loop(
        server, *dist, net::spin_request_factory(), lg);
    rt.stop();

    const telemetry::MetricsSnapshot snap = rt.telemetry_snapshot();
    std::printf("# %llu submitted, %llu completed, achieved %.3f Mrps\n",
                static_cast<unsigned long long>(client.submitted),
                static_cast<unsigned long long>(client.completed),
                client.achieved_mrps);
    std::printf("%s", snap.to_string().c_str());
}

} // namespace

int
main()
{
    const int threads = bench::host_threads();
    bench::banner("Figures 11-12",
                  "TQ variant breakdown on RocksDB 0.5% SCAN: 99.9% "
                  "sojourn (us) of GET and SCAN vs rate");
    const double ci_overhead = measure_ci_overhead();

    auto dist = workload_table::rocksdb(0.005);
    const auto rates = rate_grid(mrps(0.4), mrps(3.3), 8);

    struct Variant
    {
        const char *name;
        TwoLevelConfig cfg;
    };
    std::vector<Variant> variants;
    TwoLevelConfig base;
    base.quantum = us(2);
    base.overheads = Overheads::tq_default();
    base.duration = bench::sim_duration();

    variants.push_back({"TQ", base});
    {
        Variant v{"TQ-IC", base};
        v.cfg.probe_overhead_frac = ci_overhead;
        variants.push_back(v);
    }
    {
        Variant v{"TQ-SLOW-YIELD", base};
        v.cfg.overheads.switch_overhead += us(1);
        variants.push_back(v);
    }
    {
        Variant v{"TQ-TIMING", base};
        v.cfg.class_quantum = {us(1), us(3)}; // GET, SCAN
        variants.push_back(v);
    }
    {
        Variant v{"TQ-RAND", base};
        v.cfg.lb = DispatchPolicy::Random;
        variants.push_back(v);
    }
    {
        Variant v{"TQ-POWER-TWO", base};
        v.cfg.lb = DispatchPolicy::PowerOfTwo;
        variants.push_back(v);
    }
    {
        Variant v{"TQ-FCFS", base};
        v.cfg.core_policy = CorePolicy::Fcfs;
        variants.push_back(v);
    }

    // One run per (rate, variant) cell feeds both class tables (this
    // bench used to re-run the whole grid once per printed class).
    // Table cells only print "sat" for overloaded runs, so those may
    // stop at the saturation verdict.
    std::vector<SimResult> grid(rates.size() * variants.size());
    parallel_run(grid.size(), threads, [&](size_t i) {
        TwoLevelConfig cfg = variants[i % variants.size()].cfg;
        cfg.stop_when_saturated = true;
        grid[i] = run_two_level(cfg, *dist, rates[i / variants.size()]);
    });

    for (const char *cls : {"GET", "SCAN"}) {
        std::printf("## %s\nrate_mrps", cls);
        for (const auto &v : variants)
            std::printf("\t%s", v.name);
        std::printf("\n");
        size_t i = 0;
        for (double rate : rates) {
            std::printf("%.2f", to_mrps(rate));
            for (size_t v = 0; v < variants.size(); ++v) {
                const SimResult &r = grid[i++];
                std::printf("\t%s",
                            bench::cell_us(r.saturated,
                                           r.by_class(cls).p999_sojourn)
                                .c_str());
            }
            std::printf("\n");
            std::fflush(stdout);
        }
    }

    // Capacity summary at the paper's 50us GET latency budget: one
    // independent bisection per variant, warm-started from its grid
    // points (the memo skips any probe whose rate the sweep covered).
    std::vector<double> caps(variants.size());
    parallel_run(variants.size(), threads, [&](size_t v) {
        TwoLevelConfig cfg = variants[v].cfg;
        cfg.stop_when_saturated = true; // SLO probes only
        std::vector<SweepPoint> known(rates.size());
        for (size_t r = 0; r < rates.size(); ++r) {
            known[r].rate = rates[r];
            known[r].result = grid[r * variants.size() + v];
        }
        caps[v] = max_rate_under_slo(
            [&](double rate) { return run_two_level(cfg, *dist, rate); },
            class_sojourn_slo("GET", us(50)), mrps(0.2), mrps(4.2), 9,
            &known);
    });
    std::printf("## max rate (Mrps) with GET 99.9%% sojourn <= 50us\n");
    for (size_t v = 0; v < variants.size(); ++v) {
        std::printf("%s\t%.2f\n", variants[v].name, to_mrps(caps[v]));
        std::fflush(stdout);
    }

    real_runtime_decomposition();
    return 0;
}
