/**
 * @file
 * Zipfian rank sampling for hot-key request generation.
 *
 * The sampler is the rejection-inversion method of Hörmann &
 * Derflinger ("Rejection-inversion to generate variates from monotone
 * discrete distributions", 1996): O(1) per draw with no precomputed
 * table, and — unlike the naive CDF inversion over the generalized
 * harmonic number — numerically stable through the s -> 1 singularity,
 * because the incomplete-H integral is evaluated with expm1/log1p
 * helpers whose removable singularities at (1-s) -> 0 are handled
 * explicitly (tests/common_test.cc Zipf.* pins continuity across s=1).
 */
#ifndef TQ_COMMON_ZIPF_H
#define TQ_COMMON_ZIPF_H

#include <cstdint>

#include "common/rng.h"

namespace tq {

/**
 * Zipf(n, s): rank r in [0, n) with P(r) proportional to 1/(r+1)^s.
 * Stateless after construction; safe to share across threads (sampling
 * only touches the caller's Rng).
 */
class Zipf
{
  public:
    /** @param n number of ranks (>= 1); @param s exponent (>= 0). */
    Zipf(uint64_t n, double s);

    /** Draw a 0-based rank (0 is the hottest). */
    uint64_t sample(Rng &rng) const;

    uint64_t n() const { return n_; }
    double s() const { return s_; }

    /**
     * P(rank), computed through the same stable machinery as the
     * sampler (exp(-s log(rank+1)) over the generalized harmonic
     * number accumulated in descending order).
     */
    double pmf(uint64_t rank) const;

  private:
    double h_integral(double x) const;
    double h(double x) const;
    static double helper1(double x);
    static double helper2(double x);
    double h_integral_inverse(double x) const;

    uint64_t n_;
    double s_;
    // Constants of the rejection-inversion envelope.
    double h_integral_x1_;
    double h_integral_n_;
    double threshold_;
};

} // namespace tq

#endif // TQ_COMMON_ZIPF_H
