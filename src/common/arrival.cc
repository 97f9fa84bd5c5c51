#include "common/arrival.h"

#include "common/check.h"

namespace tq {

PoissonProcess::PoissonProcess(double rate_per_ns) : rate_(rate_per_ns)
{
    TQ_CHECK(rate_ > 0);
    mean_gap_ns_ = 1.0 / rate_;
}

double
PoissonProcess::next(double from_ns, Rng &rng)
{
    // Exactly the historical inline code path: one exponential draw at
    // the mean gap. rng.exponential(m) is -m*log1p(-uniform()), so this
    // is value-for-value what every pre-existing caller computed.
    return from_ns + rng.exponential(mean_gap_ns_);
}

OnOffProcess::OnOffProcess(double base_rate_per_ns, const OnOffConfig &cfg)
    : base_rate_(base_rate_per_ns), cfg_(cfg)
{
    TQ_CHECK(base_rate_ > 0);
    TQ_CHECK(cfg_.on_ns > 0 && cfg_.off_ns >= 0);
    TQ_CHECK(cfg_.on_mult > 0); // the ON phase must emit, or the
                                // process could stay silent forever
    TQ_CHECK(cfg_.off_mult >= 0);
}

void
OnOffProcess::advance_phase(Rng &rng)
{
    on_ = !on_;
    ++phases_begun_;
    phase_start_ = phase_end_;
    const double mean_span = on_ ? cfg_.on_ns : cfg_.off_ns;
    const double span = cfg_.exponential_phases && mean_span > 0
                            ? rng.exponential(mean_span)
                            : mean_span;
    phase_end_ = phase_start_ + span;
    rate_now_ = base_rate_ * (on_ ? cfg_.on_mult : cfg_.off_mult);
}

double
OnOffProcess::next(double from_ns, Rng &rng)
{
    // Invert the cumulative intensity: one unit-exponential budget,
    // consumed phase by phase at `rate * span` capacity each.
    double need = rng.exponential(1.0);
    double t = from_ns > phase_start_ ? from_ns : phase_start_;
    while (true) {
        // Enter the phase containing t (draws phase lengths lazily;
        // the very first call starts phase 1 = ON at time 0).
        while (t >= phase_end_)
            advance_phase(rng);
        if (rate_now_ > 0) {
            const double cap = rate_now_ * (phase_end_ - t);
            if (need <= cap)
                return t + need / rate_now_;
            need -= cap;
        }
        // Zero-rate (or exhausted) phase: step over it without ever
        // dividing by the rate.
        t = phase_end_;
    }
}

double
OnOffProcess::mean_rate() const
{
    // Duty-cycle average.
    const double cycle = cfg_.on_ns + cfg_.off_ns;
    return base_rate_ *
           (cfg_.on_mult * cfg_.on_ns + cfg_.off_mult * cfg_.off_ns) /
           cycle;
}

std::unique_ptr<ArrivalProcess>
make_arrival_process(const ArrivalSpec &spec, double rate_per_ns)
{
    switch (spec.kind) {
    case ArrivalSpec::Kind::OnOff:
        return std::make_unique<OnOffProcess>(rate_per_ns, spec.onoff);
    case ArrivalSpec::Kind::Poisson:
        break;
    }
    return std::make_unique<PoissonProcess>(rate_per_ns);
}

} // namespace tq
