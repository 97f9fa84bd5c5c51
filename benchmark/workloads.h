/**
 * @file
 * The benchmark's workloads, its isolated per-layer ledger and its
 * host-noise guard. README.md in this directory says why each workload
 * exists and how each metric is defined.
 */
#ifndef TQBENCH_WORKLOADS_H
#define TQBENCH_WORKLOADS_H

#include <cstdint>
#include <string>

#include "result.h"

namespace tqbench {

/** True for rpc_tiny, extreme_bimodal and kv_zipf_las. */
bool is_runtime_workload(const std::string &name);

/**
 * Run one runtime workload: one client (the calling thread), one
 * dispatcher and two workers.
 *
 * @param setups set-ups to perform; setup_s is their median and the
 *     last one is measured.
 * @param traced record per-request stamps and fill Result::layers with
 *     the client and runtime rows; untraced runs record no stamps.
 * @param get_ns isolated single-thread MiniKV GET cost, used as a GET's
 *     demand in runtime.worker.service_inflation.p50.
 * @param trace_path Chrome-trace file written by traced runs ("" skips).
 */
Result run_runtime_workload(const std::string &name, uint64_t seed,
                            double seconds, int setups, bool traced,
                            double get_ns, const std::string &trace_path);

/**
 * Run the simulator grid single-threaded. With @p full the grid is the
 * sim_grid workload and its digest is checked against @p golden_path;
 * otherwise a four-point reference grid is run once, for the sim.*
 * layer rows of the runtime workloads.
 */
Result run_sim_grid(uint64_t seed, double seconds, int setups, bool full,
                    const std::string &golden_path,
                    const std::string &trace_path);

/**
 * Time single-thread calls into each library layer (probe, coroutine,
 * rings, dispatch pick, MiniKV) and add them to Result::layers.
 */
Result run_ledger();

/** What the host gave a spinning thread set just before a run. */
struct NoiseCheck
{
    double cpu_share = 0;  ///< least CPU share of any spinning thread
    double calib_err = 0;  ///< |cycles_per_ns() / 1 s measurement - 1|
    bool noisy = false;    ///< share < 0.9 or calibration error > 1 %
};

/** Spin @p threads threads, one per CPU, for 0.5 s and cross-check the
 *  cycle clock against 1 s of steady_clock. */
NoiseCheck check_host_noise(int threads);

/**
 * Pin the calling thread to the first allowed CPU and every other
 * thread of the process, in creation order, to the next ones. Called
 * once the runtime's threads exist: the guest kernel of the reference
 * host leaves spinning threads stacked on one vCPU while the others
 * idle, which would time-share client, dispatcher and workers.
 */
void pin_threads();

} // namespace tqbench

#endif // TQBENCH_WORKLOADS_H
