/**
 * @file
 * Blind adaptive quantum controller (DESIGN.md §4i).
 *
 * A low-rate feedback loop that nudges each class's quantum toward an
 * observed short-job slowdown SLO without knowing job sizes up front —
 * the same blind-scheduling setting as the paper, feedback-driven like
 * the changeable-time-quantum and LibPreemptible work in PAPERS.md. The
 * control law is pure and engine-agnostic: the runtime feeds it
 * telemetry-snapshot observations (Runtime::adapt_quanta()), and the
 * quanta bench feeds it simulator results to demonstrate convergence
 * (bench/quanta_adaptive.cc), so both sides exercise the same code.
 *
 * Law, per update():
 *  1. The *SLO class* is the one with the smallest observed mean
 *     service time among classes with completions — the controller
 *     discovers "the short jobs" from attained service, it is never
 *     told.
 *  2. The SLO class's own quantum is raised toward `headroom` times its
 *     mean service so it completes in one slice and never pays the PS
 *     requeue penalty (a job cut into k slices rejoins the tail of the
 *     round-robin queue k-1 times).
 *  3. Every other class's quantum shrinks multiplicatively while the
 *     SLO class's p99 slowdown exceeds the target (finer preemption of
 *     the jobs blocking it), and relaxes back once it is comfortably
 *     under target * hysteresis (recovering switch overhead). Inside
 *     the dead band nothing moves — no oscillation at steady state.
 * All quanta clamp into [min_quantum_us, max_quantum_us].
 *
 * In `-DTQ_TELEMETRY=OFF` builds the runtime never constructs a
 * controller (static fallback: the table keeps its configured values;
 * adapt_quanta() reports false). The class itself always compiles — it
 * has no telemetry dependency — so sim-side users work in every build.
 */
#ifndef TQ_RUNTIME_QUANTUM_CONTROLLER_H
#define TQ_RUNTIME_QUANTUM_CONTROLLER_H

#include <cstdint>
#include <vector>

namespace tq::runtime {

/** One class's observed behaviour over the last control window. */
struct ClassObservation
{
    uint64_t completed = 0;     ///< jobs finished (0 = class never seen)
    double mean_service_us = 0; ///< mean attained service per job
    double p99_sojourn_us = 0;  ///< p99 arrival -> completion
};

/** Control-law parameters. The runtime runs the defaults;
 *  bench/quanta_adaptive tunes them against the simulator. */
struct QuantumControllerConfig
{
    double target_slowdown = 5.0; ///< SLO: p99 sojourn / mean service
    double gain = 0.25;           ///< multiplicative step per update
    double min_quantum_us = 0.5;  ///< clamp floor
    double max_quantum_us = 16.0; ///< clamp ceiling
    double hysteresis = 0.8;      ///< dead band: [target*h, target]
    double headroom = 2.0;        ///< SLO-class quantum vs mean service
};

/** The pure feedback law: holds the current quanta, digests one
 *  observation vector per update. Single-threaded by design — the
 *  runtime serializes updates on its snapshot mutex. */
class QuantumController
{
  public:
    /**
     * @param cfg control-law parameters.
     * @param initial_quanta_us starting per-class quanta (one entry per
     *     tracked class; they are clamped into the configured bounds).
     */
    QuantumController(const QuantumControllerConfig &cfg,
                      std::vector<double> initial_quanta_us);

    /**
     * Digest one observation window and move the quanta. Classes beyond
     * the tracked count or with no completions are left untouched.
     * @return true when any quantum changed (callers republish then).
     */
    bool update(const std::vector<ClassObservation> &obs);

    /** Current per-class quanta in microseconds. */
    const std::vector<double> &quanta_us() const { return quanta_us_; }

    /** Index of the SLO (shortest mean service) class identified by the
     *  last update, or -1 before the first update with data. */
    int slo_class() const { return slo_class_; }

    /** The SLO class's slowdown observed by the last update (0 before). */
    double last_slowdown() const { return last_slowdown_; }

  private:
    QuantumControllerConfig cfg_;
    std::vector<double> quanta_us_;
    int slo_class_ = -1;
    double last_slowdown_ = 0;
};

} // namespace tq::runtime

#endif // TQ_RUNTIME_QUANTUM_CONTROLLER_H
