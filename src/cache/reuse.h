/**
 * @file
 * Exact reuse-distance analysis (Olken's algorithm).
 *
 * Reuse distance of an access = number of *distinct* cache lines touched
 * between the previous access to the same line and this one (paper
 * section 5.5.2). For a fully-associative LRU cache of capacity C lines,
 * an access hits iff its reuse distance is below C — the analytical tool
 * behind the paper's Table 2 and Figure 15.
 *
 * Implementation: a Fenwick tree over access timestamps marks which
 * timestamps are the *latest* access of some line; the reuse distance of
 * an access to line L is the number of marked timestamps after L's
 * previous access. O(log n) per access over a dynamically grown window.
 */
#ifndef TQ_CACHE_REUSE_H
#define TQ_CACHE_REUSE_H

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace tq::cache {

/** Streaming exact reuse-distance analyzer over 64-byte lines. */
class ReuseAnalyzer
{
  public:
    /** Distance reported for a line's first-ever access. */
    static constexpr uint64_t kInfinite = ~0ULL;

    ReuseAnalyzer() = default;

    /**
     * Record an access to the line containing @p addr.
     * @return the access's reuse distance in *lines* (kInfinite for cold
     *     accesses).
     */
    uint64_t access(uint64_t addr);

    /** Number of accesses recorded. */
    uint64_t accesses() const { return time_; }

    /** Number of cold (first-touch) accesses. */
    uint64_t cold() const { return cold_; }

    /** Fraction of non-cold accesses with distance > threshold_bytes. */
    double fraction_above_bytes(uint64_t threshold_bytes) const;

    /** All finite reuse distances observed, in lines (analysis export). */
    const std::vector<uint64_t> &distances() const { return distances_; }

  private:
    void fenwick_add(size_t i, int delta);
    int64_t fenwick_sum(size_t i) const; ///< prefix sum of [0, i]
    void append_slot(); ///< grow the tree by one zero-valued timestamp

    std::unordered_map<uint64_t, uint64_t> last_access_; ///< line -> time
    std::vector<int> tree_;      ///< Fenwick over timestamps
    std::vector<uint64_t> distances_; ///< finite distances (lines)
    uint64_t time_ = 0;
    uint64_t cold_ = 0;
};

} // namespace tq::cache

#endif // TQ_CACHE_REUSE_H
