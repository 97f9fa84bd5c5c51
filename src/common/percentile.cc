#include "common/percentile.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"

namespace tq {

PercentileTracker::PercentileTracker(double warmup_fraction)
    : warmup_fraction_(warmup_fraction)
{
    TQ_CHECK(warmup_fraction >= 0.0 && warmup_fraction < 1.0);
}

size_t
PercentileTracker::warmup_index() const
{
    return static_cast<size_t>(
        std::floor(static_cast<double>(samples_.size()) * warmup_fraction_));
}

double
PercentileTracker::quantile(double q)
{
    TQ_CHECK(q >= 0.0 && q <= 1.0);
    const size_t begin = warmup_index();
    if (begin >= samples_.size())
        return 0.0;
    const size_t n = samples_.size() - begin;
    // Nearest-rank with the convention that q == 1 selects the maximum.
    size_t rank = static_cast<size_t>(q * static_cast<double>(n));
    if (rank >= n)
        rank = n - 1;
    auto first = samples_.begin() + static_cast<ptrdiff_t>(begin);
    std::nth_element(first, first + static_cast<ptrdiff_t>(rank),
                     samples_.end());
    return *(first + static_cast<ptrdiff_t>(rank));
}

std::vector<double>
PercentileTracker::quantiles(std::span<const double> qs)
{
    const size_t begin = warmup_index();
    if (begin >= samples_.size())
        return std::vector<double>(qs.size(), 0.0);
    const size_t n = samples_.size() - begin;
    std::vector<size_t> ranks;
    ranks.reserve(qs.size());
    for (const double q : qs) {
        TQ_CHECK(q >= 0.0 && q <= 1.0);
        const size_t rank = static_cast<size_t>(q * static_cast<double>(n));
        ranks.push_back(rank < n ? rank : n - 1);
    }
    // Select the highest rank over the whole retained suffix, then each
    // lower rank only in the prefix in front of the last one selected:
    // that prefix holds exactly the smaller order statistics, and a
    // repeated rank is already in place.
    std::vector<size_t> order(qs.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return ranks[a] > ranks[b]; });
    auto first = samples_.begin() + static_cast<ptrdiff_t>(begin);
    std::vector<double> out(qs.size());
    size_t end = n; // selections so far fixed every position from here
    for (const size_t i : order) {
        const size_t rank = ranks[i];
        if (rank < end) {
            std::nth_element(first, first + static_cast<ptrdiff_t>(rank),
                             first + static_cast<ptrdiff_t>(end));
            end = rank;
        }
        out[i] = *(first + static_cast<ptrdiff_t>(rank));
    }
    return out;
}

double
PercentileTracker::mean() const
{
    const size_t begin = warmup_index();
    if (begin >= samples_.size())
        return 0.0;
    double sum = 0;
    for (size_t i = begin; i < samples_.size(); ++i)
        sum += samples_[i];
    return sum / static_cast<double>(samples_.size() - begin);
}

double
PercentileTracker::max() const
{
    const size_t begin = warmup_index();
    if (begin >= samples_.size())
        return 0.0;
    return *std::max_element(samples_.begin() + static_cast<ptrdiff_t>(begin),
                             samples_.end());
}

} // namespace tq
