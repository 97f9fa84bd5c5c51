/**
 * @file
 * The dispatcher's load-balancing pick (paper s. 3.2, 4, 5.4), shared by
 * the runtime's dispatcher shards and the simulator's dispatchers.
 *
 * A DispatchView is one dispatcher's packed view of the queue lengths
 * and current-jobs quanta of the workers it owns: two contiguous,
 * cache-line-aligned `uint32_t` arrays, so 16 workers' lengths fit in
 * one line. Its owner refreshes it from the workers' counters (the
 * runtime once per RX batch, the simulator every stats_refresh_period),
 * bumps the winner of each pick, and asks pick() for the next target.
 * pick() is the only implementation of the four blind policies, so the
 * two engines' dispatchers agree by construction.
 *
 * The JSQ-MSQ pick is adaptive: one-line views (<= 16 workers, the
 * paper's configuration) take a single-pass scan with the tie-break
 * folded into the comparison — measured fastest at that width — while
 * multi-line views use a SIMD horizontal min (SSE2 on x86-64, NEON on
 * aarch64) with a movemask tie walk; a portable scalar path doubles as
 * the property-test reference (tests/layout_test.cc). A tournament tree
 * was benched as the third alternative: it loses at one-line width and
 * only wins from ~64 lanes, so it was not adopted — see
 * docs/cache_line_analysis.md §"Picking the pick" and
 * BENCH_dispatch.json for the recorded numbers.
 *
 * Semantics:
 *  - lengths are clamped into [0, kLenMax]; real queue depth is bounded
 *    by ring_capacity + tasks_per_worker (default < 2^15), so the clamp
 *    is unreachable in practice and exists to make the uint32 narrowing
 *    and the signed SSE2 compares safe by construction;
 *  - JSQ-MSQ tie-break: minimum length, then maximum current-quanta,
 *    then lowest worker index (DESIGN.md §4c);
 *  - the randomized policies draw from the caller's RNG in a fixed
 *    order (see pick()), so seeded runs reproduce.
 *
 * Plain struct, no globals: one view per dispatcher shard, as in
 * RackSched's per-shard JSQ (PAPERS.md). Single-threaded by design —
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

#if defined(__SSE2__)
#include <emmintrin.h>
#define TQ_DISPATCH_VIEW_SIMD "sse2"
#elif defined(__aarch64__)
#include <arm_neon.h>
#define TQ_DISPATCH_VIEW_SIMD "neon"
#else
#define TQ_DISPATCH_VIEW_SIMD "scalar"
#endif

namespace tq {

/** Dispatcher load-balancing policies (paper sections 3.2, 5.4). */
enum class DispatchPolicy {
    JsqMsq,      ///< JSQ with Maximum-Serviced-Quanta ties (TQ default)
    JsqRandom,   ///< JSQ with random ties
    Random,      ///< uniform random worker
    PowerOfTwo,  ///< least-loaded of two random workers
};

/** Packed per-shard JSQ/MSQ state for one dispatcher. */
class DispatchView
{
  public:
    /**
     * Saturation bound for stored queue lengths (INT32_MAX). Keeping
     * every lane non-negative as a *signed* 32-bit value lets the SSE2
     * path use `_mm_cmpgt_epi32` (there is no unsigned compare before
     * SSE4.1) with exact unsigned semantics.
     */
    static constexpr uint32_t kLenMax = 0x7fffffffu;

    /** uint32 lanes per cache line; arrays are padded to a multiple so
     *  vector loads never touch unowned memory. */
    static constexpr size_t kLanesPerLine = kCacheLineSize / sizeof(uint32_t);

    /** @param workers number of workers (>= 1) this view ranks. */
    explicit DispatchView(size_t workers)
        : n_(workers),
          padded_((workers + kLanesPerLine - 1) & ~(kLanesPerLine - 1)),
          len_(alloc_lanes(padded_)), quanta_(alloc_lanes(padded_))
    {
        TQ_CHECK(workers >= 1);
        for (size_t i = 0; i < padded_; ++i) {
            // Padding lanes hold kLenMax so they can never win the min
            // (pick loops additionally stop at n_, which covers the
            // all-workers-saturated corner).
            len_[i] = i < n_ ? 0 : kLenMax;
            quanta_[i] = 0;
        }
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

    /** Smallest stored length across the real workers. */
    uint32_t
    min_len() const
    {
#if defined(__SSE2__)
        const __m128i *v =
            reinterpret_cast<const __m128i *>(len_.get());
        __m128i acc = _mm_load_si128(v);
        for (size_t i = 1; i < padded_ / 4; ++i)
            acc = min_u32x4(acc, _mm_load_si128(v + i));
        acc = min_u32x4(acc,
                        _mm_shuffle_epi32(acc, _MM_SHUFFLE(1, 0, 3, 2)));
        acc = min_u32x4(acc,
                        _mm_shuffle_epi32(acc, _MM_SHUFFLE(2, 3, 0, 1)));
        return static_cast<uint32_t>(_mm_cvtsi128_si32(acc));
#elif defined(__aarch64__)
        uint32x4_t acc = vld1q_u32(len_.get());
        for (size_t i = 1; i < padded_ / 4; ++i)
            acc = vminq_u32(acc, vld1q_u32(len_.get() + 4 * i));
        return vminvq_u32(acc);
#else
        return min_len_scalar();
#endif
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
        // One-line views (<= 16 workers, the common deployment and the
        // paper's configuration) take a single-pass branchy scan: at
        // this width a well-predicted scalar loop over one cache line
        // beats every vector formulation we benched (two-pass
        // min+movemask, three-pass branch-free, tournament tree) because
        // the dispatcher's pick stream is highly repetitive and the
        // horizontal reductions cost more than the 16 predicted
        // compares they replace. See docs/cache_line_analysis.md
        // §"Picking the pick" and BENCH_dispatch.json.
        if (padded_ <= kLanesPerLine)
            return pick_jsq_msq_scan(n_);
#if defined(__SSE2__)
        const uint32_t best_len = min_len();
        int best = -1;
        uint32_t best_quanta = 0;
        // Tie scan: vector-compare four lanes at a time against the min
        // and walk only the matching bits. movemask bit order is lane
        // order, so ties are visited in ascending worker index and the
        // scalar tie-break below is reproduced exactly.
        const __m128i target = _mm_set1_epi32(static_cast<int>(best_len));
        const __m128i *v =
            reinterpret_cast<const __m128i *>(len_.get());
        for (size_t base = 0; base < padded_; base += 4) {
            int mask = _mm_movemask_ps(_mm_castsi128_ps(
                _mm_cmpeq_epi32(_mm_load_si128(v + base / 4), target)));
            while (mask != 0) {
                const size_t i =
                    base + static_cast<size_t>(__builtin_ctz(
                               static_cast<unsigned>(mask)));
                mask &= mask - 1;
                if (i >= n_)
                    break; // padding lanes (only tie when saturated)
                const uint32_t q = quanta_[i];
                if (best < 0 || q > best_quanta) {
                    best = static_cast<int>(i);
                    best_quanta = q;
                }
            }
        }
        return best;
#else
        return pick_jsq_msq_scalar();
#endif
    }

    /** Portable reference for min_len(); the property-test oracle. */
    uint32_t
    min_len_scalar() const
    {
        uint32_t best = kLenMax;
        for (size_t i = 0; i < n_; ++i)
            best = len_[i] < best ? len_[i] : best;
        return best;
    }

    /** Portable reference for pick_jsq_msq(); the property-test oracle
     *  (the pre-SIMD dispatcher loop, verbatim). */
    int
    pick_jsq_msq_scalar() const
    {
        const uint32_t best_len = min_len_scalar();
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
    /**
     * Single-pass argmin over the first @p count lanes with the JSQ-MSQ
     * tie-break folded into the comparison: strictly-smaller length
     * wins; equal length and strictly-larger quanta wins; otherwise the
     * incumbent (lower index) stays. Equivalent to the two-pass oracle
     * by induction over the scan prefix.
     */
    int
    pick_jsq_msq_scan(size_t count) const
    {
        int best = 0;
        uint32_t best_len = len_[0];
        uint32_t best_quanta = quanta_[0];
        for (size_t i = 1; i < count; ++i) {
            const uint32_t l = len_[i];
            const uint32_t q = quanta_[i];
            if (l < best_len || (l == best_len && q > best_quanta)) {
                best = static_cast<int>(i);
                best_len = l;
                best_quanta = q;
            }
        }
        return best;
    }

#if defined(__SSE2__)
    /** Unsigned 32-bit lane min via a signed compare-and-blend; exact
     *  because every lane is <= kLenMax (sign bit clear). */
    static __m128i
    min_u32x4(__m128i a, __m128i b)
    {
        const __m128i a_gt = _mm_cmpgt_epi32(a, b);
        return _mm_or_si128(_mm_and_si128(a_gt, b),
                            _mm_andnot_si128(a_gt, a));
    }
#endif

    struct LaneFree
    {
        void
        operator()(uint32_t *p) const
        {
            ::operator delete[](p, std::align_val_t{kCacheLineSize});
        }
    };
    using Lanes = std::unique_ptr<uint32_t[], LaneFree>;

    /** Line-aligned lane array: vector loads may be aligned loads and a
     *  16-worker view's lengths occupy exactly one line. */
    static Lanes
    alloc_lanes(size_t count)
    {
        return Lanes(new (std::align_val_t{kCacheLineSize})
                         uint32_t[count]);
    }

    friend struct ::tq::LayoutAudit;

    size_t n_;
    size_t padded_;
    Lanes len_;
    Lanes quanta_;
};

} // namespace tq

#endif // TQ_COMMON_DISPATCH_VIEW_H
