/**
 * @file
 * Tiny Quanta — public umbrella header.
 *
 * Pulls in the full public API of the library:
 *
 *  - tq::runtime — the TQ system itself: Runtime (dispatcher + workers),
 *    forced-multitasking workers, JSQ+MSQ dispatch (paper sections 3, 4),
 *    per-class quanta with deficit accounting (common/sched_core.h).
 *  - tq::probe / tq::coro — the forced-multitasking mechanism: probe
 *    runtime (tq_probe, PreemptGuard) and stackful coroutines.
 *  - tq::compiler / tq::progs — the probe-placement compiler pass on the
 *    mini-IR, the CI/CI-Cycles baselines, and the Table-3 workloads.
 *  - tq::sim — discrete-event cluster simulators (two-level,
 *    centralized, Caladan-style) used to regenerate the paper's figures.
 *  - tq::cache — cache model, pointer-chase study, reuse distances.
 *  - tq::workloads — MiniKV, TPC-C emulator, calibrated spinner.
 *  - tq::net — open-loop load generator.
 *
 * Typical quickstart (see examples/quickstart.cc):
 * @code
 *   tq::runtime::RuntimeConfig cfg;
 *   cfg.num_workers = 4;
 *   cfg.quantum_us = 2.0;
 *   tq::runtime::Runtime rt(cfg, [](const tq::runtime::Request &req) {
 *       tq::workloads::spin_for(double(req.payload)); // probed job body
 *       return req.id;
 *   });
 *   rt.start();
 *   // submit Requests, drain Responses...
 * @endcode
 */
#ifndef TQ_CORE_TQ_H
#define TQ_CORE_TQ_H

#include "cache/cache_sim.h"
#include "cache/chase.h"
#include "cache/reuse.h"
#include "common/cycles.h"
#include "common/dist.h"
#include "common/histogram.h"
#include "common/percentile.h"
#include "common/rng.h"
#include "common/units.h"
#include "compiler/builder.h"
#include "compiler/cfg.h"
#include "compiler/exec.h"
#include "compiler/ir.h"
#include "compiler/passes.h"
#include "compiler/report.h"
#include "conc/mpmc_queue.h"
#include "conc/spsc_ring.h"
#include "coro/coroutine.h"
#include "fault/fault.h"
#include "net/loadgen.h"
#include "net/runtime_server.h"
#include "probe/probe.h"
#include "progs/programs.h"
#include "runtime/runtime.h"
#include "sim/caladan.h"
#include "sim/central.h"
#include "sim/sweep.h"
#include "sim/two_level.h"
#include "telemetry/telemetry.h"
#include "workloads/minikv.h"
#include "workloads/spin.h"
#include "workloads/tpcc.h"

namespace tq {

/** Library semantic version. */
inline constexpr int kVersionMajor = 1;
inline constexpr int kVersionMinor = 1;
inline constexpr int kVersionPatch = 0;

} // namespace tq

#endif // TQ_CORE_TQ_H
