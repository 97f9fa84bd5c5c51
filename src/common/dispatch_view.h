/**
 * @file
 * The dispatcher's load-balancing pick (paper s. 3.2, 4, 5.4), shared by
 * the runtime's dispatcher and the simulator's dispatchers.
 *
 * A DispatchView is one dispatcher's packed view of the queue lengths
 * and current-jobs quanta of the workers it owns: two contiguous,
 * cache-line-aligned `uint32_t` arrays, so 16 workers' lengths fit in
 * one line. Its owner keeps it current from the workers' counters (the
 * runtime refreshes every lane once per RX batch; in the simulator each
 * core writes its own lane whenever its counters change), bumps the
 * winner of each pick, and asks for the next target. The runtime calls
 * pick_jsq_msq() directly: JSQ-MSQ is its only balancer. The simulator
 * calls pick(), the only implementation of the four blind policies,
 * which hands JsqMsq to the same scan, so the two engines' JSQ-MSQ
 * picks agree by construction.
 *
 * The JSQ-MSQ pick is one branch-free single-pass scan over a 64-bit
 * key per lane (length high, complemented quanta low), at every width.
 * A branchy scan with the tie-break folded into the compare is cheaper
 * only while the lengths are predictable; the simulator's are not, and
 * there the mispredictions cost more than the scan's compare-and-select
 * chain. The widest view built anywhere is 64 lanes (fig17's sim
 * tables), where a SIMD horizontal min with a movemask tie walk showed
 * no consistent win. So each policy has one portable implementation,
 * and the two-pass pick_jsq_msq_scalar() is the property-test oracle
 * (tests/layout_test.cc). See docs/cache_line_analysis.md §"Picking the
 * pick" and BENCH_dispatch.json for the recorded numbers.
 *
 * Semantics:
 *  - lengths saturate at kLenMax (the uint32 lane's range); real queue
 *    depth is bounded by ring_capacity + the worker's task coroutines
 *    (default < 2^15), so the clamp is unreachable in practice and only
 *    makes the narrowing safe by construction;
 *  - JSQ-MSQ tie-break: minimum length, then maximum current-quanta,
 *    then lowest worker index (DESIGN.md §4c);
 *  - the randomized policies (simulator only) draw from the caller's
 *    RNG in a fixed order (see pick()), so seeded runs reproduce.
 *
 * Plain struct, no globals: one view per dispatcher (the runtime has
 * one; the simulator's sharded model has one per shard, as in
 * RackSched's per-shard JSQ, PAPERS.md). Single-threaded by design —
 * the owning dispatcher both writes and reads it; nothing here is
 * shared.
 */
#ifndef TQ_COMMON_DISPATCH_VIEW_H
#define TQ_COMMON_DISPATCH_VIEW_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>

#include "common/check.h"
#include "common/rng.h"
#include "conc/cacheline.h"

namespace tq {

/** Dispatcher load-balancing policies (paper sections 3.2, 5.4). */
enum class DispatchPolicy {
    JsqMsq,      ///< JSQ with Maximum-Serviced-Quanta ties (TQ default)
    JsqRandom,   ///< JSQ with random ties
    Random,      ///< uniform random worker
    PowerOfTwo,  ///< least-loaded of two random workers
};

/** Packed JSQ/MSQ state for one dispatcher. */
class DispatchView
{
  public:
    /** Saturation bound for stored queue lengths. */
    static constexpr uint32_t kLenMax = UINT32_MAX;

    /** uint32 lanes per cache line; arrays are padded to a multiple so
     *  each view owns whole lines. */
    static constexpr size_t kLanesPerLine = kCacheLineSize / sizeof(uint32_t);

    /** @param workers number of workers (>= 1) this view ranks. */
    explicit DispatchView(size_t workers)
        : n_(workers),
          padded_((workers + kLanesPerLine - 1) & ~(kLanesPerLine - 1)),
          len_(alloc_lanes(padded_)), quanta_(alloc_lanes(padded_))
    {
        TQ_CHECK(workers >= 1);
    }

    DispatchView(const DispatchView &) = delete;
    DispatchView &operator=(const DispatchView &) = delete;
    DispatchView(DispatchView &&) = default;
    DispatchView &operator=(DispatchView &&) = default;

    /** Workers ranked by this view. */
    size_t workers() const { return n_; }

    /** Allocated lanes (workers rounded up to a line multiple). */
    size_t padded_lanes() const { return padded_; }

    /** Store worker @p i's queue length, saturating at kLenMax. */
    void
    set_len(size_t i, uint64_t len)
    {
        len_[i] = len < kLenMax ? static_cast<uint32_t>(len) : kLenMax;
    }

    /** One more job assigned to worker @p i (saturating). */
    void
    bump_len(size_t i)
    {
        if (len_[i] < kLenMax)
            ++len_[i];
    }

    /** Stored (clamped) length of worker @p i. */
    uint32_t len(size_t i) const { return len_[i]; }

    /** Store worker @p i's current-jobs quanta sum (MSQ tie-break key). */
    void set_quanta(size_t i, uint32_t q) { quanta_[i] = q; }

    /** Stored quanta snapshot of worker @p i. */
    uint32_t quanta(size_t i) const { return quanta_[i]; }

    /** Smallest stored length across the workers. */
    uint32_t
    min_len() const
    {
        uint32_t best = len_[0];
        for (size_t i = 1; i < n_; ++i)
            best = len_[i] < best ? len_[i] : best;
        return best;
    }

    /**
     * The dispatcher's pick under @p policy; returns a view-local worker
     * index and does not mutate the view — callers bump the winner via
     * bump_len(). RNG use, fixed so seeded runs reproduce:
     *  - JsqMsq: none (pick_jsq_msq());
     *  - JsqRandom: one `below(ties)` among the workers tied at the
     *    minimum length, only when there is more than one; the draw
     *    indexes the ties in ascending worker order;
     *  - Random: one `below(workers)`;
     *  - PowerOfTwo: `a = below(n)`, then `b = below(n - 1)` bumped past
     *    `a`; the shorter stored queue wins, and a tie draws
     *    `bernoulli(0.5) ? a : b`. A one-worker view returns 0 and draws
     *    nothing.
     */
    int
    pick(DispatchPolicy policy, Rng &rng) const
    {
        switch (policy) {
          case DispatchPolicy::JsqMsq:
            return pick_jsq_msq();
          case DispatchPolicy::JsqRandom: {
            const uint32_t best_len = min_len();
            uint64_t ties = 0;
            for (size_t i = 0; i < n_; ++i)
                ties += len_[i] == best_len;
            uint64_t k = ties > 1 ? rng.below(ties) : 0;
            for (size_t i = 0;; ++i)
                if (len_[i] == best_len && k-- == 0)
                    return static_cast<int>(i);
          }
          case DispatchPolicy::Random:
            return static_cast<int>(rng.below(n_));
          case DispatchPolicy::PowerOfTwo: {
            if (n_ == 1)
                return 0; // no second worker to sample
            const size_t a = rng.below(n_);
            size_t b = rng.below(n_ - 1);
            if (b >= a)
                ++b;
            if (len_[a] != len_[b])
                return static_cast<int>(len_[a] < len_[b] ? a : b);
            return static_cast<int>(rng.bernoulli(0.5) ? a : b);
          }
        }
        TQ_CHECK(false);
        return 0;
    }

    /**
     * JSQ pick with MSQ tie-breaking: the least-loaded worker; among
     * ties the one whose current jobs have received the most quanta
     * (it should finish them soonest, paper s. 3.2); among remaining
     * ties the lowest index. Does not mutate the view — callers bump
     * the winner via bump_len().
     */
    int
    pick_jsq_msq() const
    {
        // Branch-free argmin over one 64-bit key per lane: length in the
        // high half, complemented quanta in the low half, so a smaller
        // key is a shorter queue, then more quanta. Only a strictly
        // smaller key displaces the incumbent, so the lowest index wins
        // full ties. The selects compile to cmovs: the simulator's
        // lengths are unpredictable, and a mispredicted compare costs
        // more than the dependency chain.
        int best = 0;
        uint64_t best_key = key(0);
        for (size_t i = 1; i < n_; ++i) {
            const uint64_t k = key(i);
            const bool less = k < best_key;
            best = less ? static_cast<int>(i) : best;
            best_key = less ? k : best_key;
        }
        return best;
    }

    /** Two-pass reference for pick_jsq_msq(): min length, then the
     *  max-quanta tie walk; the property-test oracle. */
    int
    pick_jsq_msq_scalar() const
    {
        const uint32_t best_len = min_len();
        int best = -1;
        uint32_t best_quanta = 0;
        for (size_t i = 0; i < n_; ++i) {
            if (len_[i] != best_len)
                continue;
            const uint32_t q = quanta_[i];
            if (best < 0 || q > best_quanta) {
                best = static_cast<int>(i);
                best_quanta = q;
            }
        }
        return best;
    }

  private:
    /** JSQ-MSQ order of lane @p i as one integer (see pick_jsq_msq()). */
    uint64_t
    key(size_t i) const
    {
        return static_cast<uint64_t>(len_[i]) << 32 |
               (UINT32_MAX - quanta_[i]);
    }

    struct LaneFree
    {
        void
        operator()(uint32_t *p) const
        {
            ::operator delete[](p, std::align_val_t{kCacheLineSize});
        }
    };
    using Lanes = std::unique_ptr<uint32_t[], LaneFree>;

    /** Zeroed, line-aligned lane array: a 16-worker view's lengths
     *  occupy exactly one line. */
    static Lanes
    alloc_lanes(size_t count)
    {
        return Lanes(new (std::align_val_t{kCacheLineSize})
                         uint32_t[count]());
    }

    friend struct ::tq::LayoutAudit;

    size_t n_;
    size_t padded_;
    Lanes len_;
    Lanes quanta_;
};

} // namespace tq

#endif // TQ_COMMON_DISPATCH_VIEW_H
