/**
 * @file
 * sim_grid: the host cost of the capacity engine. A grid of two-level
 * simulations (16 cores x {PS, LAS} x quanta {1, 2, 5} us x 9 Extreme
 * Bimodal rates) runs single-threaded, pass after pass, for the run's
 * duration. Every pass of one seed must produce the same digest, and a
 * fixed-seed reference pass must match benchmark/golden/sim_grid.digest.
 */
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/dist.h"
#include "sim/sweep.h"
#include "sim/two_level.h"
#include "workloads.h"

namespace tqbench {

namespace {

using tq::sim::CorePolicy;

/** Simulated arrival window of every timed point. */
constexpr double kPointWindowMs = 50;
/** Window and seed of the golden self-check pass. */
constexpr double kGoldenWindowMs = 5;
constexpr uint64_t kGoldenSeed = 1;
constexpr int kCores = 16;
/** Points at or above this offered load form the heavy band. */
constexpr double kHeavyLoad = 0.8;

struct Point
{
    CorePolicy policy;
    double quantum_us;
    double rate_mrps;
    bool heavy;
};

std::vector<Point>
make_grid(bool full, double mean_ns)
{
    const auto point = [&](CorePolicy p, double q, double rate) {
        const double load = rate * 1e-3 * mean_ns / kCores;
        return Point{p, q, rate, load >= kHeavyLoad};
    };
    if (!full)
        return {point(CorePolicy::ProcessorSharing, 2, 2.75),
                point(CorePolicy::Las, 2, 2.75),
                point(CorePolicy::ProcessorSharing, 2, 5.0),
                point(CorePolicy::Las, 2, 5.0)};
    std::vector<Point> grid;
    for (CorePolicy p : {CorePolicy::ProcessorSharing, CorePolicy::Las})
        for (double q : {1.0, 2.0, 5.0})
            for (int r = 0; r < 9; ++r)
                grid.push_back(point(p, q, 0.5 + r * (4.5 / 8)));
    return grid;
}

/** FNV-1a over the bytes of @p v. */
template <typename T>
void
fold(uint64_t &h, const T &v)
{
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes)
        h = (h ^ b) * 0x100000001b3ULL;
}

struct Pass
{
    std::vector<double> host_s; ///< per point
    std::vector<double> begin_s; ///< per point, since the pass began
    uint64_t digest = 0xcbf29ce484222325ULL;
    uint64_t completed = 0;
};

Pass
run_pass(const std::vector<Point> &grid, const tq::ServiceDist &dist,
         double window_ms, uint64_t seed)
{
    Pass pass;
    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < grid.size(); ++i) {
        tq::sim::TwoLevelConfig cfg;
        cfg.num_cores = kCores;
        cfg.quantum = tq::us(grid[i].quantum_us);
        cfg.core_policy = grid[i].policy;
        cfg.duration = tq::ms(window_ms);
        cfg.seed = tq::sim::derive_seed(seed, i);
        const auto t0 = std::chrono::steady_clock::now();
        const tq::sim::SimResult r =
            tq::sim::run_two_level(cfg, dist, tq::mrps(grid[i].rate_mrps));
        const auto t1 = std::chrono::steady_clock::now();
        pass.host_s.push_back(std::chrono::duration<double>(t1 - t0).count());
        pass.begin_s.push_back(
            std::chrono::duration<double>(t0 - start).count());
        pass.completed += r.completed;
        fold(pass.digest, r.completed);
        fold(pass.digest, r.saturated);
        for (const tq::sim::ClassStats &c : r.classes) {
            fold(pass.digest, c.completed);
            fold(pass.digest, c.p999_sojourn);
        }
    }
    return pass;
}

std::string
hex(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

void
write_trace(const std::string &path, const std::vector<Point> &grid,
            const Pass &pass)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "tqbench: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (size_t i = 0; i < grid.size(); ++i)
        std::fprintf(f,
                     "%s{\"name\":\"%s q=%gus %.3fMrps\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"point\":%zu,\"heavy\":%s}}",
                     i ? ",\n" : "",
                     grid[i].policy == CorePolicy::Las ? "LAS" : "PS",
                     grid[i].quantum_us, grid[i].rate_mrps,
                     grid[i].heavy ? 2 : 1, pass.begin_s[i] * 1e6,
                     pass.host_s[i] * 1e6, i,
                     grid[i].heavy ? "true" : "false");
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
}

} // namespace

Result
run_sim_grid(uint64_t seed, double seconds, int setups, bool full,
             const std::string &golden_path, const std::string &trace_path)
{
    Result res;
    // Set-up: the workload tables, the grid, and the golden self-check
    // (the whole grid at a short window and a fixed seed), which also
    // gets lazy allocation and first-touch page faults out of the way
    // before timing. The reference grid only warms up on one point.
    std::vector<double> setup_s;
    std::unique_ptr<tq::MixtureDist> dist;
    std::vector<Point> grid;
    uint64_t golden = 0;
    for (int i = 0; i < setups; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        dist = tq::workload_table::extreme_bimodal();
        grid = make_grid(full, dist->mean());
        if (full)
            golden =
                run_pass(grid, *dist, kGoldenWindowMs, kGoldenSeed).digest;
        else
            run_pass({grid.front()}, *dist, 10, seed);
        setup_s.push_back(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
    }
    if (full) {
        std::ifstream in(golden_path);
        std::string want;
        in >> want;
        if (want != hex(golden))
            res.fail("sim grid digest " + hex(golden) + " differs from " +
                     golden_path + " (" + (want.empty() ? "missing" : want) +
                     ")");
    }

    std::vector<Pass> passes;
    const auto start = std::chrono::steady_clock::now();
    do {
        passes.push_back(run_pass(grid, *dist, kPointWindowMs, seed));
        res.attempted += grid.size();
    } while (full && std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                             .count() < seconds);

    for (const Pass &p : passes)
        if (p.digest != passes.front().digest)
            res.fail("sim grid output differs between passes of one seed",
                     grid.size());

    // Per point: median host time over passes (same inputs each pass).
    std::vector<double> light_us, heavy_us;
    double ps_s = 0, las_s = 0, heavy_s = 0, host_s = 0;
    uint64_t completed = 0;
    for (size_t i = 0; i < grid.size(); ++i) {
        std::vector<double> t;
        for (const Pass &p : passes)
            t.push_back(p.host_s[i]);
        const double med = median(t);
        if (grid[i].heavy) {
            heavy_us.push_back(med * 1e6);
            heavy_s += med;
        } else {
            light_us.push_back(med * 1e6);
            (grid[i].policy == CorePolicy::Las ? las_s : ps_s) += med;
        }
    }
    for (const Pass &p : passes) {
        completed += p.completed;
        for (double s : p.host_s)
            host_s += s;
    }

    res.metric("lat_p50_us", median(light_us), "us", light_us.size());
    res.metric("lat_p90_us", quantile(light_us, 0.9), "us", light_us.size());
    res.metric("heavy_p50_us", median(heavy_us), "us", heavy_us.size());
    res.metric("throughput_kops", static_cast<double>(completed) / host_s / 1e3,
               "kop/s", passes.size());
    res.metric("setup_s", median(setup_s), "s", setup_s.size());
    res.layer("sim.ps.host_s", ps_s, "s", passes.size());
    res.layer("sim.las.host_s", las_s, "s", passes.size());
    res.layer("sim.overload.host_s", heavy_s, "s", passes.size());
    res.diagnostic("passes", static_cast<double>(passes.size()), "count",
                   passes.size());

    if (full && !trace_path.empty())
        write_trace(trace_path, grid, passes.front());
    return res;
}

} // namespace tqbench
