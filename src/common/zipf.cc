#include "common/zipf.h"

#include <cmath>

#include "common/check.h"

namespace tq {

// H(x) = integral of h(u) du with h(u) = u^(-s), expressed as
// helper2((1-s) log x) * log x so the (1-s) -> 0 limit (H = log x) is
// exact instead of 0/0.
double
Zipf::h_integral(double x) const
{
    const double log_x = std::log(x);
    return helper2((1.0 - s_) * log_x) * log_x;
}

double
Zipf::h(double x) const
{
    return std::exp(-s_ * std::log(x));
}

// (log1p(x))/x, continuous at 0.
double
Zipf::helper1(double x)
{
    if (std::abs(x) > 1e-8)
        return std::log1p(x) / x;
    return 1.0 - x * (0.5 - x * (1.0 / 3.0 - x * 0.25));
}

// (expm1(x))/x, continuous at 0.
double
Zipf::helper2(double x)
{
    if (std::abs(x) > 1e-8)
        return std::expm1(x) / x;
    return 1.0 + x * (0.5 + x * (1.0 / 6.0 + x * (1.0 / 24.0)));
}

// Inverse of h_integral: exp(helper1(t) * x) with t = x * (1-s),
// clamped at -1 where the true inverse leaves the domain (only reached
// through floating-point round-off at the integration boundary).
double
Zipf::h_integral_inverse(double x) const
{
    double t = x * (1.0 - s_);
    if (t < -1.0)
        t = -1.0;
    return std::exp(helper1(t) * x);
}

Zipf::Zipf(uint64_t n, double s) : n_(n), s_(s)
{
    TQ_CHECK(n_ >= 1);
    TQ_CHECK(s_ >= 0);
    h_integral_x1_ = h_integral(1.5) - 1.0;
    h_integral_n_ = h_integral(static_cast<double>(n_) + 0.5);
    threshold_ = 2.0 - h_integral_inverse(h_integral(2.5) - h(2.0));
}

uint64_t
Zipf::sample(Rng &rng) const
{
    while (true) {
        const double u =
            h_integral_n_ +
            rng.uniform() * (h_integral_x1_ - h_integral_n_);
        // u is in (h_integral(1.5) - 1, h_integral(n + 0.5)].
        const double x = h_integral_inverse(u);
        uint64_t k = static_cast<uint64_t>(x + 0.5);
        if (k < 1)
            k = 1;
        else if (k > n_)
            k = n_;
        // Accept in the unbounded-rejection-free region, else do the
        // exact envelope comparison.
        if (static_cast<double>(k) - x <= threshold_ ||
            u >= h_integral(static_cast<double>(k) + 0.5) -
                     h(static_cast<double>(k)))
            return k - 1;
    }
}

double
Zipf::pmf(uint64_t rank) const
{
    TQ_CHECK(rank < n_);
    // Generalized harmonic number, accumulated smallest-first so the
    // long tail is not swallowed by the head's rounding.
    double norm = 0;
    for (uint64_t k = n_; k >= 1; --k)
        norm += h(static_cast<double>(k));
    return h(static_cast<double>(rank + 1)) / norm;
}

} // namespace tq
