/**
 * @file
 * Microbenchmark for the shared simulator event core (sim/event_core.h)
 * and the parallel sweep executor (sim/sweep.h).
 *
 * Part 1 — event queue: the classic hold model (pop the earliest event,
 * push a successor a small exponential jitter later), which is exactly
 * the near-FIFO pattern the cluster simulators generate, timed on the
 * packed 4-ary EventQueue at steady queue sizes of 1K/100K/1M/4M
 * events. The ordering oracle is `EventQueue.*` in tests/sim_test.cc.
 *
 * Part 2 — sweep wall-clock: the Figure 5/6 grid (5 quanta x 9 rates,
 * two-level engine, Extreme Bimodal) timed serially and with the
 * thread-pool backend (--sweep-threads=N, default 8). On a single-core
 * host the parallel time approximately equals the serial time.
 *
 * `--json` emits a machine-readable document (recorded as
 * BENCH_sim.json, rendered by tools/plot_bench.py); the default output
 * is the usual TSV tables.
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <vector>

#include "bench_util.h"
#include "common/dist.h"
#include "common/rng.h"
#include "sim/event_core.h"
#include "sim/sweep.h"
#include "sim/two_level.h"

using namespace tq;
using namespace tq::sim;

namespace {

double
now_sec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Pre-drawn exponential jitters so the timed loop measures queue
 * operations, not log1p().
 */
std::vector<SimNanos>
jitter_table(SimNanos mean)
{
    Rng rng(7);
    std::vector<SimNanos> jit(1u << 20);
    for (SimNanos &j : jit)
        j = rng.exponential(mean);
    return jit;
}

/** Hold-model Mevents/s at a steady @p queue_size. */
double
hold_meps(size_t queue_size, size_t ops, const std::vector<SimNanos> &jit)
{
    EventQueue q;
    q.reserve(queue_size + 1);
    size_t j = 0;
    const size_t mask = jit.size() - 1;
    SimNanos t = 0;
    for (size_t i = 0; i < queue_size; ++i) {
        t += jit[j++ & mask];
        q.push(t, 0, static_cast<int>(i & 15));
    }
    double checksum = 0;
    const double start = now_sec();
    for (size_t i = 0; i < ops; ++i) {
        const EventQueue::Popped ev = q.pop();
        checksum += ev.time;
        q.push(ev.time + jit[j++ & mask], 0, ev.core);
    }
    const double secs = now_sec() - start;
    TQ_CHECK(checksum > 0); // keeps the popped times live
    return static_cast<double>(ops) / secs / 1e6;
}

/** The Figure 5/6 grid as one timed unit. */
double
time_fig_grid(const ServiceDist &dist, int threads)
{
    const std::vector<double> quanta_us = {0.5, 1, 2, 5, 10};
    const auto rates = rate_grid(mrps(0.5), mrps(4.75), 9);
    struct Cell
    {
        TwoLevelConfig cfg;
        double rate;
    };
    std::vector<Cell> cells;
    for (double rate : rates) {
        for (double q : quanta_us) {
            Cell c;
            c.cfg.quantum = us(q);
            c.cfg.overheads = Overheads::tq_default();
            c.cfg.duration = bench::sim_duration();
            c.cfg.stop_when_saturated = true;
            c.rate = rate;
            cells.push_back(c);
        }
    }
    std::vector<SimResult> results(cells.size());
    const double start = now_sec();
    parallel_run(cells.size(), threads, [&](size_t i) {
        results[i] = run_two_level(cells[i].cfg, dist, cells[i].rate);
    });
    return now_sec() - start;
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--json") == 0)
            json = true;
    int threads = bench::sweep_threads(argc, argv);
    if (threads <= 1)
        threads = 8; // the comparison needs a parallel arm

    const auto jit = jitter_table(us(2));
    const std::vector<size_t> sizes = {1000, 100000, 1000000, 4000000};

    struct Row
    {
        size_t size;
        double meps;
    };
    std::vector<Row> rows;
    for (size_t n : sizes) {
        const size_t ops = n >= 1000000 ? 2000000 : 4000000;
        rows.push_back(Row{n, hold_meps(n, ops, jit)});
    }

    auto dist = workload_table::extreme_bimodal();
    const double serial_sec = time_fig_grid(*dist, 1);
    const double parallel_sec = time_fig_grid(*dist, threads);

    if (json) {
        char date[32];
        const std::time_t t = std::time(nullptr);
        std::strftime(date, sizeof(date), "%Y-%m-%d", std::localtime(&t));
        std::printf("{\n");
        std::printf(
            "  \"description\": \"Simulator event-core microbenchmark: "
            "hold-model events/sec of the packed 4-ary EventQueue, plus "
            "the Figure 5/6 grid wall-clock serial vs "
            "--sweep-threads=%d.\",\n",
            threads);
        std::printf("  \"date\": \"%s\",\n", date);
        std::printf("  \"config\": { \"jitter_mean_us\": 2.0, "
                    "\"window_ms\": %.0f, \"sweep_threads\": %d },\n",
                    to_sec(bench::sim_duration()) * 1e3, threads);
        std::printf("  \"event_queue_hold\": [\n");
        for (size_t i = 0; i < rows.size(); ++i)
            std::printf("    { \"queue_size\": %zu, \"meps\": %.1f }%s\n",
                        rows[i].size, rows[i].meps,
                        i + 1 < rows.size() ? "," : "");
        std::printf("  ],\n");
        std::printf("  \"fig_grid_wall_clock\": { \"serial_sec\": %.2f, "
                    "\"threads_sec\": %.2f, \"speedup\": %.2f }\n",
                    serial_sec, parallel_sec, serial_sec / parallel_sec);
        std::printf("}\n");
        return 0;
    }

    bench::banner("micro_sim_core",
                  "event-queue hold model (EventQueue) and "
                  "figure-grid wall clock (serial vs threads)");
    std::printf("queue_size\tMeps\n");
    for (const Row &r : rows)
        std::printf("%zu\t%.1f\n", r.size, r.meps);
    std::printf("## fig05_06 grid wall clock\nmode\tseconds\n");
    std::printf("serial\t%.2f\nthreads%d\t%.2f\nspeedup\t%.2f\n", serial_sec,
                threads, parallel_sec, serial_sec / parallel_sec);
    return 0;
}
