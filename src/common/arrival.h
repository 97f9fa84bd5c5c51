/**
 * @file
 * Arrival-time processes for the load generator and the simulators.
 *
 * Everything here works in the nanosecond domain and is pull-based: the
 * caller hands in the previous arrival time and an Rng, and gets the
 * next arrival time back. Both `tq::net::run_open_loop` (which converts
 * to cycles at the send site) and `tq::sim::EngineCore` (which consumes
 * SimNanos directly) draw from the same process objects, so a seeded
 * trace replays identically through the real runtime and the simulator
 * (tests/integration_test.cc arrival-parity suite).
 *
 * Processes:
 *  - Poisson: the classic open-loop stream (exponential gaps). Draws
 *    exactly one exponential per arrival, value-for-value identical to
 *    the historical inline `rng.exponential(mean_gap)` code, so default
 *    figure benches stay byte-identical.
 *  - On-off / MMPP: a two-phase modulated Poisson process. Phase
 *    lengths are either deterministic (classic on-off) or exponential
 *    (a 2-state Markov-modulated Poisson process); each phase scales
 *    the base rate by a multiplier. Sampling inverts the cumulative
 *    intensity with a unit-exponential budget, so zero-rate phases are
 *    skipped without ever dividing by the rate — a zero or near-zero
 *    off rate can neither divide-by-zero nor spin (see
 *    tests/common_test.cc OnOffProcess.*).
 */
#ifndef TQ_COMMON_ARRIVAL_H
#define TQ_COMMON_ARRIVAL_H

#include <cstdint>
#include <memory>

#include "common/rng.h"

namespace tq {

/** Pull-based arrival-time stream in nanoseconds. */
class ArrivalProcess
{
  public:
    virtual ~ArrivalProcess() = default;

    /**
     * Next arrival strictly after @p from_ns (monotone non-decreasing
     * calls). All randomness comes from @p rng so interleaving with
     * service-demand draws is reproducible across engines.
     */
    virtual double next(double from_ns, Rng &rng) = 0;

    /** Long-run average rate in requests per nanosecond. */
    virtual double mean_rate() const = 0;

    /**
     * Number of modulation phases entered so far (0 for memoryless
     * processes). The load generator samples in-flight occupancy at
     * phase boundaries to build the per-phase burst histogram.
     */
    virtual uint64_t phases_begun() const { return 0; }
};

/** Homogeneous Poisson arrivals: exponential inter-arrival gaps. */
class PoissonProcess final : public ArrivalProcess
{
  public:
    /** @param rate_per_ns arrivals per nanosecond (> 0). */
    explicit PoissonProcess(double rate_per_ns);

    double next(double from_ns, Rng &rng) override;
    double mean_rate() const override { return rate_; }

  private:
    double rate_;
    double mean_gap_ns_;
};

/** Parameters of the on-off / MMPP process (see OnOffProcess). */
struct OnOffConfig
{
    /** Rate multiplier applied to the base rate while ON. */
    double on_mult = 2.0;
    /** Rate multiplier while OFF; 0 is a fully silent phase. */
    double off_mult = 0.0;
    /** Mean (exponential) or exact (deterministic) ON phase length. */
    double on_ns = 50e3;
    /** Mean or exact OFF phase length. */
    double off_ns = 50e3;
    /**
     * true: phase lengths are exponential draws — the process is a
     * 2-state MMPP. false: fixed lengths — deterministic on-off.
     */
    bool exponential_phases = true;
};

/**
 * Two-phase modulated Poisson arrivals (MMPP / on-off).
 *
 * Implementation: thinning-free inversion of the piecewise-constant
 * cumulative intensity. Each call draws one unit-exponential "budget"
 * and walks phases, consuming `rate * span` of budget per phase, until
 * the remainder fits inside the current phase. Phases with zero rate
 * contribute zero capacity and are stepped over without any division;
 * phase-length draws only happen when a phase boundary is actually
 * crossed, so the draw sequence is a pure function of the arrival
 * sequence (replayable).
 */
class OnOffProcess final : public ArrivalProcess
{
  public:
    /**
     * @param base_rate_per_ns the nominal rate the multipliers scale
     *     (> 0); the ON rate `base * on_mult` must be positive or the
     *     process could silence forever.
     */
    OnOffProcess(double base_rate_per_ns, const OnOffConfig &cfg);

    double next(double from_ns, Rng &rng) override;
    double mean_rate() const override;
    uint64_t phases_begun() const override { return phases_begun_; }

  private:
    void advance_phase(Rng &rng);

    double base_rate_;
    OnOffConfig cfg_;

    // Current phase [phase_start_, phase_end_) at rate rate_now_.
    double phase_start_ = 0;
    double phase_end_ = 0;
    double rate_now_ = 0;
    bool on_ = false; // phase 0 (entered on first draw) is ON
    uint64_t phases_begun_ = 0;
};

/**
 * Value-type description of an arrival process, safe to embed in sweep
 * configs that are copied across threads (`sim::parallel_run`): each
 * run constructs its own process instance via make_arrival_process().
 */
struct ArrivalSpec
{
    enum class Kind {
        Poisson, ///< default; byte-identical to the historical path
        OnOff,   ///< MMPP / on-off per `onoff`
    };
    Kind kind = Kind::Poisson;
    OnOffConfig onoff;
};

/** Instantiate the process described by @p spec at @p rate_per_ns. */
std::unique_ptr<ArrivalProcess>
make_arrival_process(const ArrivalSpec &spec, double rate_per_ns);

} // namespace tq

#endif // TQ_COMMON_ARRIVAL_H
