#include "sim/sweep.h"

#include <atomic>
#include <map>
#include <thread>

#include "common/check.h"

namespace tq::sim {

void
parallel_run(size_t n, int threads, const std::function<void(size_t)> &job)
{
    if (threads > static_cast<int>(n))
        threads = static_cast<int>(n);
    if (threads <= 1) {
        for (size_t i = 0; i < n; ++i)
            job(i);
        return;
    }
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&next, n, &job] {
            for (;;) {
                const size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                job(i);
            }
        });
    }
    for (auto &th : pool)
        th.join();
}

uint64_t
derive_seed(uint64_t base, uint64_t index)
{
    // splitmix64: the index-th output of the stream whose state is
    // `base`. One mix per derivation (no O(index) walk).
    uint64_t z = base + 0x9e3779b97f4a7c15ULL * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::vector<double>
rate_grid(double lo, double hi, int points)
{
    TQ_CHECK(points >= 2);
    TQ_CHECK(lo > 0 && hi > lo);
    std::vector<double> rates;
    rates.reserve(static_cast<size_t>(points));
    for (int i = 0; i < points; ++i)
        rates.push_back(lo + (hi - lo) * i / (points - 1));
    return rates;
}

double
max_rate_under_slo(const RunFn &fn, const SloFn &slo, double lo, double hi,
                   int iters, const std::vector<SweepPoint> *known)
{
    TQ_CHECK(lo > 0 && hi > lo);
    // Memo of every rate evaluated during this search, warm-started from
    // the caller's sweep points: the bench pattern "sweep a grid, then
    // bisect the same configuration" re-evaluates the endpoints for
    // free, so the bisection costs exactly `iters` simulations.
    std::map<double, bool> memo;
    if (known)
        for (const SweepPoint &p : *known)
            memo.emplace(p.rate, slo(p.result));
    const auto eval = [&](double r) {
        const auto it = memo.find(r);
        if (it != memo.end())
            return it->second;
        return memo.emplace(r, slo(fn(r))).first->second;
    };
    if (!eval(lo))
        return 0;
    if (eval(hi))
        return hi;
    double good = lo, bad = hi;
    for (int i = 0; i < iters; ++i) {
        const double mid = 0.5 * (good + bad);
        if (eval(mid))
            good = mid;
        else
            bad = mid;
    }
    return good;
}

SloFn
slowdown_slo(double limit)
{
    return [limit](const SimResult &r) {
        return !r.saturated && r.completed > 0 &&
               r.overall_p999_slowdown <= limit;
    };
}

SloFn
class_sojourn_slo(std::string name, SimNanos limit_ns)
{
    return [name = std::move(name), limit_ns](const SimResult &r) {
        if (r.saturated || r.completed == 0)
            return false;
        const ClassStats &c = r.by_class(name);
        return c.completed > 0 && c.p999_sojourn <= limit_ns;
    };
}

} // namespace tq::sim
