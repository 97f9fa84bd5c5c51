#include "cache/reuse.h"

namespace tq::cache {

namespace {
constexpr int kLineShift = 6; // 64-byte lines
} // namespace

void
ReuseAnalyzer::fenwick_add(size_t i, int delta)
{
    for (size_t x = i + 1; x <= tree_.size(); x += x & (~x + 1))
        tree_[x - 1] += delta;
}

int64_t
ReuseAnalyzer::fenwick_sum(size_t i) const
{
    int64_t s = 0;
    for (size_t x = i + 1; x > 0; x -= x & (~x + 1))
        s += tree_[x - 1];
    return s;
}

void
ReuseAnalyzer::append_slot()
{
    // Appending element value 0 at 1-based position p: the new tree node
    // covers (p - lowbit(p), p], so it must be initialized to the sum of
    // the existing elements in that range (the new element adds 0).
    const size_t p = tree_.size() + 1;
    const size_t low = p & (~p + 1);
    int64_t val = 0;
    if (low > 1) {
        const int64_t hi = fenwick_sum(p - 2);
        const int64_t lo = (p - low >= 1) ? fenwick_sum(p - low - 1) : 0;
        val = hi - lo;
    }
    tree_.push_back(static_cast<int>(val));
}

uint64_t
ReuseAnalyzer::access(uint64_t addr)
{
    const uint64_t line = addr >> kLineShift;
    append_slot();

    uint64_t distance = kInfinite;
    const auto it = last_access_.find(line);
    if (it == last_access_.end()) {
        ++cold_;
    } else {
        const uint64_t prev = it->second;
        // Marked timestamps (one per distinct line, at its most recent
        // access) after prev = distinct lines touched since then.
        distance = last_access_.size() -
                   static_cast<uint64_t>(
                       fenwick_sum(static_cast<size_t>(prev)));
        distances_.push_back(distance);
        fenwick_add(static_cast<size_t>(prev), -1); // no longer latest
    }
    fenwick_add(static_cast<size_t>(time_), +1);
    last_access_[line] = time_;
    ++time_;
    return distance;
}

double
ReuseAnalyzer::fraction_above_bytes(uint64_t threshold_bytes) const
{
    if (distances_.empty())
        return 0.0;
    const uint64_t threshold_lines = threshold_bytes >> kLineShift;
    uint64_t above = 0;
    for (uint64_t d : distances_)
        above += d > threshold_lines;
    return static_cast<double>(above) /
           static_cast<double>(distances_.size());
}

} // namespace tq::cache
