/**
 * @file
 * Blind adaptive quantum controller, studied on the simulator
 * (DESIGN.md §4i, bench/quanta_adaptive.cc).
 *
 * A low-rate feedback loop that nudges each class's quantum toward an
 * observed short-job slowdown SLO without knowing job sizes up front —
 * the same blind-scheduling setting as the paper, feedback-driven like
 * the changeable-time-quantum and LibPreemptible work in PAPERS.md. The
 * control law is pure and engine-agnostic: the quanta bench runs the
 * two-level simulator with the controller's quanta, feeds back each
 * round's per-class results and iterates until the quanta stop moving.
 * The runtime's quanta are static (the paper tunes one quantum
 * offline), so the controller is not wired into it.
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
 */
#ifndef TQ_SIM_QUANTUM_CONTROLLER_H
#define TQ_SIM_QUANTUM_CONTROLLER_H

#include <cstdint>
#include <vector>

namespace tq::sim {

/** One class's observed behaviour over the last control window. */
struct ClassObservation
{
    uint64_t completed = 0;     ///< jobs finished (0 = class never seen)
    double mean_service_us = 0; ///< mean attained service per job
    double p99_sojourn_us = 0;  ///< p99 arrival -> completion
};

/** Control-law parameters; bench/quanta_adaptive tightens the target
 *  for its sweeps. */
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
 *  observation vector per update. Single-threaded. */
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
     * Digest one observation window and move the quanta. Observations
     * beyond the tracked count are ignored, and a class with no
     * completions is never the SLO class; a window without any
     * completions moves nothing.
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

} // namespace tq::sim

#endif // TQ_SIM_QUANTUM_CONTROLLER_H
