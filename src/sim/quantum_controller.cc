#include "sim/quantum_controller.h"

#include <algorithm>

#include "common/check.h"

namespace tq::sim {

QuantumController::QuantumController(const QuantumControllerConfig &cfg,
                                     std::vector<double> initial_quanta_us)
    : cfg_(cfg), quanta_us_(std::move(initial_quanta_us))
{
    TQ_CHECK(cfg_.target_slowdown > 0);
    TQ_CHECK(cfg_.gain > 0 && cfg_.gain < 1);
    TQ_CHECK(cfg_.min_quantum_us > 0);
    TQ_CHECK(cfg_.max_quantum_us >= cfg_.min_quantum_us);
    TQ_CHECK(cfg_.hysteresis > 0 && cfg_.hysteresis <= 1);
    TQ_CHECK(cfg_.headroom >= 1);
    for (double &q : quanta_us_)
        q = std::clamp(q, cfg_.min_quantum_us, cfg_.max_quantum_us);
}

bool
QuantumController::update(const std::vector<ClassObservation> &obs)
{
    // Discover the SLO class: smallest mean attained service among
    // classes that completed anything this window. Blind — attained
    // service is the only size signal, exactly what LAS already uses.
    const size_t n = std::min(obs.size(), quanta_us_.size());
    int slo = -1;
    for (size_t c = 0; c < n; ++c) {
        if (obs[c].completed == 0 || obs[c].mean_service_us <= 0)
            continue;
        if (slo < 0 || obs[c].mean_service_us <
                           obs[static_cast<size_t>(slo)].mean_service_us)
            slo = static_cast<int>(c);
    }
    if (slo < 0)
        return false; // empty window: hold everything
    slo_class_ = slo;

    const ClassObservation &s = obs[static_cast<size_t>(slo)];
    last_slowdown_ = s.p99_sojourn_us / s.mean_service_us;

    const auto clamp_q = [&](double q) {
        return std::clamp(q, cfg_.min_quantum_us, cfg_.max_quantum_us);
    };
    bool changed = false;
    const auto move_to = [&](double &q, double target) {
        target = clamp_q(target);
        if (target != q) {
            q = target;
            changed = true;
        }
    };

    // The SLO class itself: one slice end to end. Only ever raised — a
    // shrinking mix would otherwise ratchet every class down together.
    double &slo_q = quanta_us_[static_cast<size_t>(slo)];
    const double want = s.mean_service_us * cfg_.headroom;
    if (want > slo_q)
        move_to(slo_q, want);

    // Everyone else: shrink while the SLO class misses its target
    // (finer preemption of whoever blocks it), relax once comfortably
    // under, hold inside the dead band.
    const double upper = cfg_.target_slowdown;
    const double lower = cfg_.target_slowdown * cfg_.hysteresis;
    double factor = 1.0;
    if (last_slowdown_ > upper)
        factor = 1.0 - cfg_.gain;
    else if (last_slowdown_ < lower)
        factor = 1.0 + cfg_.gain;
    if (factor != 1.0) {
        for (size_t c = 0; c < quanta_us_.size(); ++c) {
            if (static_cast<int>(c) == slo)
                continue;
            move_to(quanta_us_[c], quanta_us_[c] * factor);
        }
    }
    return changed;
}

} // namespace tq::sim
