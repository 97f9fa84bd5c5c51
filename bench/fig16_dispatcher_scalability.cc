/**
 * @file
 * Paper Figure 16: the maximum number of worker cores a dispatcher can
 * sustain at a target quantum size — Shinjuku's centralized dispatcher
 * vs TQ's two-level design. Workload: 1ms jobs keeping every core busy
 * (paper section 5.6). A core count is sustainable when the average
 * effective quantum stays within 110% of the target.
 *
 * Expected shape: Shinjuku holds 16 cores only at >= 5us quanta and
 * collapses to ~3 cores at 0.5us; TQ's dispatcher does per-job work
 * only, so 16 cores are sustainable at every quantum.
 */
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/dist.h"
#include "sim/central.h"
#include "sim/sweep.h"
#include "sim/two_level.h"

using namespace tq;
using namespace tq::sim;

namespace {

bool
shinjuku_sustains(int cores, double quantum_us)
{
    FixedDist dist(ms(1));
    CentralConfig cfg;
    cfg.num_cores = cores;
    cfg.quantum = us(quantum_us);
    cfg.overheads = Overheads::shinjuku_default();
    cfg.duration = bench::sim_duration();
    // Keep all cores busy: offer 2x the service capacity.
    const double rate = 2.0 * cores / ms(1);
    const SimResult r = run_central(cfg, dist, rate);
    return r.avg_effective_quantum <= 1.1 * cfg.quantum;
}

bool
tq_sustains(int cores, double quantum_us)
{
    FixedDist dist(ms(1));
    TwoLevelConfig cfg;
    cfg.num_cores = cores;
    cfg.quantum = us(quantum_us);
    cfg.overheads = Overheads::tq_default();
    cfg.duration = bench::sim_duration();
    const double rate = 2.0 * cores / ms(1);
    const SimResult r = run_two_level(cfg, dist, rate);
    return r.avg_effective_quantum <= 1.1 * cfg.quantum;
}

template <typename Fn>
int
max_cores(Fn &&sustains, double quantum_us, int limit = 16)
{
    int best = 0;
    for (int c = 1; c <= limit; ++c) {
        if (sustains(c, quantum_us))
            best = c;
        else
            break;
    }
    return best;
}

} // namespace

int
main()
{
    bench::banner("Figure 16",
                  "max cores sustaining the target quantum (avg effective "
                  "quantum <= 110% of target), 1ms jobs");
    // Each (system, quantum) search walks core counts sequentially with
    // an early break, but the ten searches are independent. These runs
    // are deliberately overloaded and must complete fully — the metric
    // (avg effective quantum) is read *from* the saturated run, so
    // stop_when_saturated stays off here.
    const std::vector<double> quanta_us = {0.5, 1, 2, 3, 5};
    std::vector<int> sj_cores(quanta_us.size());
    std::vector<int> tq_cores(quanta_us.size());
    parallel_run(quanta_us.size() * 2, bench::host_threads(),
                 [&](size_t i) {
                     const double q = quanta_us[i / 2];
                     if (i % 2 == 0)
                         sj_cores[i / 2] = max_cores(shinjuku_sustains, q);
                     else
                         tq_cores[i / 2] = max_cores(tq_sustains, q);
                 });
    std::printf("quantum_us\tShinjuku_cores\tTQ_cores\n");
    for (size_t i = 0; i < quanta_us.size(); ++i) {
        std::printf("%.1f\t%d\t%d\n", quanta_us[i], sj_cores[i],
                    tq_cores[i]);
        std::fflush(stdout);
    }
    return 0;
}
