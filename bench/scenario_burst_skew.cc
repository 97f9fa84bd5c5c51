/**
 * @file
 * Scenario-diversity bench (ROADMAP "Scenario diversity"): how far the
 * tail moves when the convenient defaults — smooth Poisson arrivals and
 * uniform keys — are replaced with the shapes production traces
 * actually have.
 *
 *  - MMPP burst vs Poisson: a 2-state Markov-modulated arrival process
 *    (common/arrival.h) at the *same mean rate* as the Poisson
 *    baseline, on both the calibrated DES and the real runtime. The
 *    report is the p999 tail slowdown attributable purely to burstiness.
 *  - Zipfian MiniKV: skiplist GETs under uniform vs Zipf(0.99) hot keys
 *    (workloads::ZipfKeyGen) served by the real runtime.
 *
 * `--json` emits a machine-readable document (recorded as
 * BENCH_scenarios.json, rendered by tools/plot_bench.py); the default
 * output is the usual self-describing TSV tables. All arms share one
 * seed, and the sim arms honor TQ_BENCH_DURATION_MS like every other
 * DES bench.
 */
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
#include <thread>

#include "bench_util.h"
#include "cache/chase.h"
#include "common/arrival.h"
#include "common/dist.h"
#include "net/loadgen.h"
#include "net/runtime_server.h"
#include "probe/probe.h"
#include "runtime/runtime.h"
#include "sim/two_level.h"
#include "workloads/minikv.h"
#include "workloads/spin.h"

using namespace tq;

namespace {

constexpr uint64_t kSeed = 42;

/** MMPP shape shared by every burst arm: 4x rate while ON, a trickle
 *  while OFF, exponential ~50us phases. */
OnOffConfig
burst_shape()
{
    OnOffConfig c;
    c.on_mult = 4.0;
    c.off_mult = 0.25;
    c.on_ns = 50e3;
    c.off_ns = 50e3;
    c.exponential_phases = true;
    return c;
}

/** Mean rate multiplier of @p c, used to hold the offered mean equal
 *  across Poisson and MMPP arms (duty-cycle weighted). */
double
mean_mult(const OnOffConfig &c)
{
    return (c.on_mult * c.on_ns + c.off_mult * c.off_ns) /
           (c.on_ns + c.off_ns);
}

struct Arm
{
    double p999_us = 0;
    double mean_us = 0;
    uint64_t completed = 0;
    bool saturated = false;
};

// ---------------------------------------------------------------- sim --

Arm
sim_arm(const ArrivalSpec &arrival, double rate_mrps)
{
    sim::TwoLevelConfig cfg;
    cfg.num_cores = 8;
    cfg.duration = bench::sim_duration();
    cfg.seed = kSeed;
    cfg.arrival = arrival;
    const FixedDist dist(us(8));
    const sim::SimResult r =
        sim::run_two_level(cfg, dist, mrps(rate_mrps));
    Arm a;
    a.completed = r.completed;
    a.saturated = r.saturated;
    a.p999_us = to_us(r.classes.at(0).p999_sojourn);
    a.mean_us = to_us(r.classes.at(0).mean_sojourn);
    return a;
}

// ------------------------------------------------------------ runtime --

/** One open-loop run against a fresh runtime of spin workers. */
Arm
runtime_spin_arm(const ArrivalSpec &arrival, double rate_mrps)
{
    runtime::RuntimeConfig cfg;
    cfg.num_workers = 2;
    cfg.quantum_us = 5.0;
    runtime::Runtime rt(cfg, [](const runtime::Request &req) {
        workloads::spin_for(static_cast<double>(req.payload));
        return req.id;
    });
    rt.start();
    net::RuntimeServer server(rt);

    const FixedDist dist(us(20), "spin");
    net::LoadGenConfig lg;
    lg.rate_mrps = rate_mrps;
    lg.duration_sec = 0.15;
    lg.seed = kSeed;
    lg.arrival = arrival;
    lg.metrics = &rt.metrics();
    const net::ClientStats stats =
        net::run_open_loop(server, dist, net::spin_request_factory(), lg);
    rt.stop();
    Arm a;
    a.completed = stats.completed;
    a.p999_us = stats.by_class("spin").p999_sojourn_us;
    a.mean_us = stats.by_class("spin").mean_sojourn_us;
    return a;
}

/** Zipf/uniform MiniKV GET arm: keys drawn by @p gen, store sharded
 *  per worker thread (MiniKV per-op state is not thread-safe). */
Arm
runtime_kv_arm(const workloads::ZipfKeyGen &gen, double rate_mrps,
               double *hottest_share)
{
    static constexpr size_t kKeys = 1 << 14;
    runtime::RuntimeConfig cfg;
    cfg.num_workers = 2;
    cfg.quantum_us = 5.0;
    runtime::Runtime rt(cfg, [](const runtime::Request &req) {
        thread_local auto kv = [] {
            PreemptGuard guard;
            auto fresh = std::make_unique<workloads::MiniKV>(3, 64);
            fresh->load_sequential(kKeys);
            return fresh;
        }();
        std::string v;
        return static_cast<uint64_t>(kv->get(req.payload, &v));
    });
    rt.start();
    net::RuntimeServer server(rt);

    const FixedDist dist(us(2), "get");
    net::LoadGenConfig lg;
    lg.rate_mrps = rate_mrps;
    lg.duration_sec = 0.15;
    lg.seed = kSeed;
    lg.metrics = &rt.metrics();
    Rng key_rng(kSeed);
    uint64_t hot_hits = 0, draws = 0;
    const uint64_t hot_key = gen.scramble(0);
    const auto factory = [&](const ServiceSample &s, uint64_t) {
        runtime::Request req;
        req.job_class = s.job_class;
        req.payload = gen.sample_key(key_rng);
        ++draws;
        hot_hits += req.payload == hot_key;
        return req;
    };
    const net::ClientStats stats =
        net::run_open_loop(server, dist, factory, lg);
    rt.stop();
    if (hottest_share)
        *hottest_share = draws ? static_cast<double>(hot_hits) / draws : 0;
    Arm a;
    a.completed = stats.completed;
    a.p999_us = stats.by_class("get").p999_sojourn_us;
    a.mean_us = stats.by_class("get").mean_sojourn_us;
    return a;
}

/**
 * Pointer-chase latency with uniform vs Zipf(0.99) hot lines (the
 * fig13-15 "Zipfian mix" delta, recorded here so BENCH_scenarios.json
 * carries the skew story end to end). 16KB arrays at 2us quanta sit in
 * the quantum-sensitive L1 region, so hot-line skew visibly cuts the
 * average access latency: the hot set survives preemption.
 */
double
chase_latency_ns(double zipf_s)
{
    cache::ChaseConfig cfg;
    cfg.array_bytes = 16 * 1024;
    cfg.quantum = us(2);
    cfg.centralized = false;
    std::shared_ptr<workloads::ZipfKeyGen> gen;
    if (zipf_s > 0) {
        gen = std::make_shared<workloads::ZipfKeyGen>(cfg.array_bytes / 64,
                                                      zipf_s);
        cfg.line_sampler = [gen](Rng &rng) { return gen->sample_key(rng); };
    }
    return cache::run_chase(cfg).avg_latency_ns;
}

const char *
cell_arm(const Arm &a, char *buf, size_t n)
{
    if (a.saturated)
        std::snprintf(buf, n, "sat");
    else
        std::snprintf(buf, n, "%.1f", a.p999_us);
    return buf;
}

double
ratio(const Arm &num, const Arm &den)
{
    return den.p999_us > 0 ? num.p999_us / den.p999_us : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--json") == 0)
            json = true;

    const OnOffConfig shape = burst_shape();
    ArrivalSpec poisson;
    ArrivalSpec mmpp;
    mmpp.kind = ArrivalSpec::Kind::OnOff;
    mmpp.onoff = shape;

    // Burst arms offer the same *mean* rate: the MMPP base rate is the
    // target divided by the duty-cycle multiplier, so any tail movement
    // is burstiness, not extra load.
    const double sim_rate = 0.5;     // Mrps; 8 cores / 8us = 1 Mrps cap
    const double rt_rate = 0.01;     // Mrps; threads timeshare this host
    const Arm sim_poisson = sim_arm(poisson, sim_rate);
    const Arm sim_mmpp = sim_arm(mmpp, sim_rate / mean_mult(shape));
    const Arm rt_poisson = runtime_spin_arm(poisson, rt_rate);
    const Arm rt_mmpp = runtime_spin_arm(mmpp, rt_rate / mean_mult(shape));

    const workloads::ZipfKeyGen uniform_keys(1 << 14, 0.0);
    const workloads::ZipfKeyGen zipf_keys(1 << 14, 0.99);
    double uniform_share = 0, zipf_share = 0;
    const Arm kv_uniform = runtime_kv_arm(uniform_keys, rt_rate,
                                          &uniform_share);
    const Arm kv_zipf = runtime_kv_arm(zipf_keys, rt_rate, &zipf_share);

    const double chase_uniform_ns = chase_latency_ns(0);
    const double chase_zipf_ns = chase_latency_ns(0.99);

    if (json) {
        char date[32];
        const std::time_t t = std::time(nullptr);
        std::strftime(date, sizeof(date), "%Y-%m-%d", std::localtime(&t));
        std::printf("{\n");
        std::printf(
            "  \"description\": \"Scenario diversity: p999 sojourn under "
            "MMPP bursts vs Poisson (same mean rate, sim + runtime), "
            "uniform vs Zipf(0.99) MiniKV GETs on the runtime, uniform "
            "vs Zipf(0.99) pointer-chase lines in the cache model. "
            "Runtime arms timeshare one host, so cross-arm ratios are "
            "the signal, not absolute values.\",\n");
        std::printf("  \"date\": \"%s\",\n", date);
        std::printf("  \"machine\": { \"cpus\": %u },\n",
                    std::thread::hardware_concurrency());
        std::printf(
            "  \"config\": { \"window_ms\": %.0f, \"sim_rate_mrps\": %.2f, "
            "\"runtime_rate_mrps\": %.3f, \"mmpp_on_mult\": %.2f, "
            "\"mmpp_off_mult\": %.2f, \"mmpp_phase_us\": %.0f, "
            "\"zipf_s\": 0.99, \"minikv_keys\": %d, \"seed\": %llu },\n",
            to_sec(bench::sim_duration()) * 1e3, sim_rate, rt_rate,
            shape.on_mult, shape.off_mult, shape.on_ns / 1e3, 1 << 14,
            static_cast<unsigned long long>(kSeed));
        std::printf("  \"scenarios\": {\n");
        const auto burst_obj = [](const char *key, const Arm &base,
                                  const Arm &burst, bool last) {
            std::printf(
                "    \"%s\": { \"poisson_p999_us\": %.2f, "
                "\"mmpp_p999_us\": %.2f, \"tail_slowdown\": %.2f, "
                "\"saturated\": %s }%s\n",
                key, base.p999_us, burst.p999_us, ratio(burst, base),
                burst.saturated || base.saturated ? "true" : "false",
                last ? "" : ",");
        };
        burst_obj("burst_sim", sim_poisson, sim_mmpp, false);
        burst_obj("burst_runtime", rt_poisson, rt_mmpp, false);
        std::printf(
            "    \"zipf_minikv\": { \"uniform_p999_us\": %.2f, "
            "\"zipf_p999_us\": %.2f, \"uniform_mean_us\": %.2f, "
            "\"zipf_mean_us\": %.2f, \"hottest_key_share\": %.4f },\n",
            kv_uniform.p999_us, kv_zipf.p999_us, kv_uniform.mean_us,
            kv_zipf.mean_us, zipf_share);
        std::printf(
            "    \"zipf_chase\": { \"array_kb\": 16, \"quantum_us\": 2, "
            "\"uniform_avg_ns\": %.2f, \"zipf_avg_ns\": %.2f, "
            "\"latency_ratio\": %.2f }\n",
            chase_uniform_ns, chase_zipf_ns,
            chase_uniform_ns > 0 ? chase_zipf_ns / chase_uniform_ns : 0);
        std::printf("  }\n");
        std::printf("}\n");
        return 0;
    }

    bench::banner("scenario_burst_skew",
                  "tail impact of MMPP bursts and Zipfian hot keys vs "
                  "the smooth baselines");
    char b1[32], b2[32];
    std::printf("## burst: p999 sojourn, same mean rate\n");
    std::printf("engine\tpoisson_p999_us\tmmpp_p999_us\ttail_slowdown\n");
    std::printf("sim\t%s\t%s\t%.2f\n", cell_arm(sim_poisson, b1, sizeof b1),
                cell_arm(sim_mmpp, b2, sizeof b2),
                ratio(sim_mmpp, sim_poisson));
    std::printf("runtime\t%.1f\t%.1f\t%.2f\n", rt_poisson.p999_us,
                rt_mmpp.p999_us, ratio(rt_mmpp, rt_poisson));
    std::printf("## zipf minikv gets (runtime)\n");
    std::printf("keys\tp999_us\tmean_us\thottest_key_share\n");
    std::printf("uniform\t%.1f\t%.1f\t%.4f\n", kv_uniform.p999_us,
                kv_uniform.mean_us, uniform_share);
    std::printf("zipf0.99\t%.1f\t%.1f\t%.4f\n", kv_zipf.p999_us,
                kv_zipf.mean_us, zipf_share);
    std::printf("## zipf pointer-chase (16KB arrays, 2us quanta, TLS)\n");
    std::printf("lines\tavg_latency_ns\n");
    std::printf("uniform\t%.2f\n", chase_uniform_ns);
    std::printf("zipf0.99\t%.2f\n", chase_zipf_ns);
    return 0;
}
