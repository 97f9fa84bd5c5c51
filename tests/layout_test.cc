/**
 * @file
 * Layout-contract and packed-pick tests (docs/cache_line_analysis.md).
 *
 * Two halves:
 *  - Layout: every struct in the cache-line audit is re-asserted here at
 *    compile time (size/alignment) and checked at runtime with real
 *    objects (which cache line each hot field lands on), so a future
 *    field addition fails this test loudly instead of silently
 *    false-sharing. Runtime checks use tq::LayoutAudit — the friend hook
 *    the audited containers expose — because offsetof on
 *    non-standard-layout types is only conditionally supported.
 *  - Pick: property tests that DispatchView's single-pass pick matches
 *    the two-pass JSQ+MSQ reference (DESIGN.md §"Dispatcher")
 *    bit-for-bit over randomized length/quanta arrays of one to eight
 *    cache lines, including the assigned<finished wrap-clamp path and
 *    the kLenMax saturation path, and that the policy-generic pick()
 *    reproduces the simulator's original per-policy pick, RNG draws
 *    included.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/dispatch_view.h"
#include "common/rng.h"
#include "conc/cacheline.h"
#include "conc/mpmc_queue.h"
#include "conc/spsc_ring.h"
#include "runtime/lifecycle.h"
#include "runtime/request.h"
#include "runtime/runtime.h"
#include "runtime/worker_stats.h"
#include "telemetry/metrics.h"
#include "telemetry/trace_ring.h"

namespace tq {

/** The audited containers befriend this struct; it exposes just enough
 *  member addresses for the line checks below. */
struct LayoutAudit
{
    /** Cache-line index of @p member within the allocation of @p obj. */
    template <typename Obj>
    static ptrdiff_t
    line_of(const Obj &obj, const void *member)
    {
        const char *base = reinterpret_cast<const char *>(&obj);
        const char *p = static_cast<const char *>(member);
        return (p - base) / static_cast<ptrdiff_t>(kCacheLineSize);
    }

    template <typename T>
    static const void *
    spsc_producer_head(const SpscRing<T> &r)
    {
        return &r.prod_.head;
    }

    template <typename T>
    static const void *
    spsc_producer_cached_tail(const SpscRing<T> &r)
    {
        return &r.prod_.cached_tail;
    }

    template <typename T>
    static const void *
    spsc_consumer_tail(const SpscRing<T> &r)
    {
        return &r.cons_.tail;
    }

    /** The ring's read-mostly header: the slot vector and the mask. */
    template <typename T>
    static const void *
    spsc_slots_header(const SpscRing<T> &r)
    {
        return &r.slots_;
    }

    template <typename T>
    static const void *
    spsc_mask(const SpscRing<T> &r)
    {
        return &r.mask_;
    }

    template <typename T>
    static const void *
    mpmc_enqueue_pos(const MpmcQueue<T> &q)
    {
        return &q.enqueue_pos_;
    }

    template <typename T>
    static const void *
    mpmc_dequeue_pos(const MpmcQueue<T> &q)
    {
        return &q.dequeue_pos_;
    }

    /** Start of the storage of slot @p i (CacheAligned or packed). */
    template <typename T>
    static const void *
    spsc_slot(const SpscRing<T> &r, size_t i)
    {
        return &r.slots_[i];
    }

    /** The publication stamp of slot @p i. */
    template <typename T>
    static const void *
    spsc_stamp(const SpscRing<T> &r, size_t i)
    {
        return &r.slots_[i].value.stamp;
    }

    template <typename T>
    static const void *
    mpmc_cell(const MpmcQueue<T> &q, size_t i)
    {
        return &q.cells_[i];
    }

    /** Bytes a cell holds: the sequence plus the payload. */
    template <typename T>
    static constexpr size_t
    mpmc_cell_bytes()
    {
        return sizeof(typename MpmcQueue<T>::Cell);
    }

    static const void *
    trace_dropped(const telemetry::TraceRing &r)
    {
        return &r.dropped_;
    }

    static const void *
    trace_ring_producer_head(const telemetry::TraceRing &r)
    {
        return spsc_producer_head(r.ring_);
    }

    static const uint32_t *
    view_len_data(const DispatchView &v)
    {
        return v.len_.get();
    }

    static const uint32_t *
    view_quanta_data(const DispatchView &v)
    {
        return v.quanta_.get();
    }

    static const runtime::Dispatcher &
    runtime_dispatcher(const runtime::Runtime &rt)
    {
        return *rt.disp_;
    }

    static const runtime::LifecycleControl &
    runtime_lifecycle(const runtime::Runtime &rt)
    {
        return rt.lc_;
    }
};

} // namespace tq

namespace {

using namespace tq;

// ---------------------------------------------------------------------
// Compile-time layout contract: one assert per audited struct, mirroring
// the table in docs/cache_line_analysis.md.
// ---------------------------------------------------------------------

static_assert(sizeof(runtime::WorkerStatsLine) == kCacheLineSize &&
              alignof(runtime::WorkerStatsLine) == kCacheLineSize);
static_assert(sizeof(runtime::LifecycleControl) == kCacheLineSize &&
              alignof(runtime::LifecycleControl) == kCacheLineSize);
static_assert(sizeof(runtime::DispatcherCounters) == kCacheLineSize &&
              alignof(runtime::DispatcherCounters) == kCacheLineSize);
static_assert(sizeof(telemetry::WorkerCounters) == kCacheLineSize &&
              alignof(telemetry::WorkerCounters) == kCacheLineSize);
static_assert(sizeof(SpscRing<uint64_t>::ProducerSide) == kCacheLineSize &&
              sizeof(SpscRing<uint64_t>::ConsumerSide) == kCacheLineSize);
static_assert(sizeof(RingSlot<SpscRing<runtime::Request>::Slot>) ==
                  kCacheLineSize &&
              sizeof(RingSlot<SpscRing<runtime::Response>::Slot>) ==
                  kCacheLineSize);
static_assert(sizeof(RingSlot<SpscRing<telemetry::TraceEvent>::Slot>) == 32);
static_assert(sizeof(PaddedAtomic<size_t>) == kCacheLineSize &&
              alignof(PaddedAtomic<size_t>) == kCacheLineSize);
static_assert(sizeof(CacheAligned<char>) == kCacheLineSize);
// The sizeof(T) % line == 0 case must not grow a spurious extra line
// (this was a latent zero-length-array bug in CacheAligned's pad).
static_assert(sizeof(CacheAligned<char[kCacheLineSize]>) == kCacheLineSize);
static_assert(sizeof(CacheAligned<char[2 * kCacheLineSize]>) ==
              2 * kCacheLineSize);
static_assert(sizeof(telemetry::TraceEvent) == 24);
static_assert(alignof(telemetry::TraceRing) == kCacheLineSize);

TEST(Layout, SpscRingEndsOwnDistinctLines)
{
    SpscRing<uint64_t> ring(64);
    const auto line = [&](const void *member) {
        return LayoutAudit::line_of(ring, member);
    };
    const ptrdiff_t producer = line(LayoutAudit::spsc_producer_head(ring));
    const ptrdiff_t consumer = line(LayoutAudit::spsc_consumer_tail(ring));
    // The producer's private position and its snapshot of the consumer
    // index share one line (same single writer)...
    EXPECT_EQ(producer,
              line(LayoutAudit::spsc_producer_cached_tail(ring)));
    // ...the consumer's published index is alone on its line...
    EXPECT_NE(consumer, producer);
    EXPECT_NE(consumer, line(LayoutAudit::spsc_slots_header(ring)));
    EXPECT_NE(consumer, line(LayoutAudit::spsc_mask(ring)));
    // ...and the read-mostly header is on neither end's line.
    EXPECT_NE(producer, line(LayoutAudit::spsc_slots_header(ring)));
    EXPECT_NE(producer, line(LayoutAudit::spsc_mask(ring)));
}

TEST(Layout, MpmcCursorsOwnDistinctLines)
{
    MpmcQueue<uint64_t> q(64);
    EXPECT_NE(LayoutAudit::line_of(q, LayoutAudit::mpmc_enqueue_pos(q)),
              LayoutAudit::line_of(q, LayoutAudit::mpmc_dequeue_pos(q)));
}

/** The stride between the first @p n slots that @p slot_at(i) locates,
 *  and whether any two consecutive ones, each @p bytes long, share a
 *  line. */
struct SlotLayout
{
    ptrdiff_t stride;
    bool neighbours_share_a_line;
};

template <typename SlotAt>
SlotLayout
slot_layout(SlotAt slot_at, size_t n, size_t bytes)
{
    const auto addr = [&](size_t i) {
        return reinterpret_cast<uintptr_t>(slot_at(i));
    };
    SlotLayout out{static_cast<ptrdiff_t>(addr(1) - addr(0)), false};
    for (size_t i = 0; i + 1 < n; ++i) {
        EXPECT_EQ(static_cast<ptrdiff_t>(addr(i + 1) - addr(i)), out.stride);
        const uintptr_t last_line = (addr(i) + bytes - 1) / kCacheLineSize;
        out.neighbours_share_a_line |=
            last_line == addr(i + 1) / kCacheLineSize;
    }
    return out;
}

TEST(Layout, RingSlotsOwnTheirLines)
{
    // A slot of more than half a line owns its line: the producer
    // publishing slot k+1 must not write the line the consumer drains
    // slot k from. Requests cross the RX MPMC queue and the dispatch
    // rings, responses the TX rings. An SPSC slot is the payload plus
    // its stamp, and both sit on one line so a hand-off is one transfer.
    constexpr size_t kSlots = 16;
    MpmcQueue<runtime::Request> rx(kSlots);
    SpscRing<runtime::Request> dispatch(kSlots);
    SpscRing<runtime::Response> tx(kSlots);
    const SlotLayout cells = slot_layout(
        [&](size_t i) { return LayoutAudit::mpmc_cell(rx, i); }, kSlots,
        LayoutAudit::mpmc_cell_bytes<runtime::Request>());
    const SlotLayout requests = slot_layout(
        [&](size_t i) { return LayoutAudit::spsc_slot(dispatch, i); },
        kSlots, sizeof(SpscRing<runtime::Request>::Slot));
    const SlotLayout responses = slot_layout(
        [&](size_t i) { return LayoutAudit::spsc_slot(tx, i); }, kSlots,
        sizeof(SpscRing<runtime::Response>::Slot));
    for (const SlotLayout &l : {cells, requests, responses}) {
        EXPECT_EQ(l.stride, static_cast<ptrdiff_t>(kCacheLineSize));
        EXPECT_FALSE(l.neighbours_share_a_line);
    }
    const auto abs_line = [](const void *p) {
        return reinterpret_cast<uintptr_t>(p) / kCacheLineSize;
    };
    for (size_t i = 0; i < kSlots; ++i) {
        EXPECT_EQ(abs_line(LayoutAudit::spsc_stamp(dispatch, i)),
                  abs_line(LayoutAudit::spsc_slot(dispatch, i)))
            << "request slot " << i;
        EXPECT_EQ(abs_line(LayoutAudit::spsc_stamp(tx, i)),
                  abs_line(LayoutAudit::spsc_slot(tx, i)))
            << "response slot " << i;
    }

    // Slots of half a line or less stay packed at their size, value
    // plus stamp: padding the per-thread trace rings would cost
    // megabytes for no hand-off.
    SpscRing<telemetry::TraceEvent> trace(kSlots);
    SpscRing<uint64_t> words(kSlots);
    EXPECT_EQ(slot_layout(
                  [&](size_t i) { return LayoutAudit::spsc_slot(trace, i); },
                  kSlots, sizeof(SpscRing<telemetry::TraceEvent>::Slot))
                  .stride,
              32);
    EXPECT_EQ(slot_layout(
                  [&](size_t i) { return LayoutAudit::spsc_slot(words, i); },
                  kSlots, sizeof(SpscRing<uint64_t>::Slot))
                  .stride,
              16);
}

TEST(Layout, WorkerStatsNeighboursNeverShareALine)
{
    // Contiguous stats lines (as benches lay them out):
    // all three counters of one worker on one line, adjacent workers on
    // different lines.
    runtime::WorkerStatsLine lines[2];
    EXPECT_EQ(LayoutAudit::line_of(lines[0], &lines[0].finished),
              LayoutAudit::line_of(lines[0], &lines[0].current_quanta));
    EXPECT_EQ(LayoutAudit::line_of(lines[0], &lines[0].finished),
              LayoutAudit::line_of(lines[0], &lines[0].total_quanta));
    EXPECT_NE(LayoutAudit::line_of(lines[0], &lines[0].finished),
              LayoutAudit::line_of(lines[0], &lines[1].finished));
    EXPECT_EQ(reinterpret_cast<uintptr_t>(&lines[0]) % kCacheLineSize, 0u);
}

TEST(Layout, DispatcherCountersNeverShareTheLifecycleLine)
{
    // The dispatcher's counter increments must not invalidate the
    // lifecycle line every worker polls. Checked on a real Runtime
    // object. The counters live inside the dispatcher's own heap
    // allocation, so the dispatcher's state can never even share an
    // allocation with the Runtime's configuration and lifecycle lines;
    // keep the line math on absolute addresses.
    runtime::RuntimeConfig cfg;
    cfg.num_workers = 2;
    runtime::Runtime rt(cfg, [](const runtime::Request &) { return 0ULL; });
    const auto &disp = LayoutAudit::runtime_dispatcher(rt);
    const auto &counters = disp.counters;
    const auto &lc = LayoutAudit::runtime_lifecycle(rt);
    const auto abs_line = [](const void *p) {
        return reinterpret_cast<uintptr_t>(p) / kCacheLineSize;
    };
    EXPECT_NE(abs_line(&counters.full_spins), abs_line(&lc.state));
    EXPECT_NE(abs_line(&counters.abandoned),
              abs_line(&lc.dispatcher_done));
    EXPECT_EQ(reinterpret_cast<uintptr_t>(&lc) % kCacheLineSize, 0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(&counters) % kCacheLineSize, 0u);
    // No line of the dispatcher object is a line of the Runtime object
    // (which holds cfg_ and lc_).
    const uintptr_t disp_first = abs_line(&disp);
    const uintptr_t disp_last =
        abs_line(reinterpret_cast<const char *>(&disp) + sizeof(disp) - 1);
    const uintptr_t rt_first = abs_line(&rt);
    const uintptr_t rt_last =
        abs_line(reinterpret_cast<const char *>(&rt) + sizeof(rt) - 1);
    EXPECT_TRUE(disp_last < rt_first || rt_last < disp_first)
        << "dispatcher state shares a line with the Runtime object";
}

TEST(Layout, WorkerCountersAreHeapSeparatedPerWorker)
{
    telemetry::MetricsRegistry reg(4, 16);
    for (int a = 0; a < 4; ++a)
        for (int b = a + 1; b < 4; ++b) {
            const auto *pa = &reg.worker(a).counters;
            const auto *pb = &reg.worker(b).counters;
            const auto la =
                reinterpret_cast<uintptr_t>(pa) / kCacheLineSize;
            const auto lb =
                reinterpret_cast<uintptr_t>(pb) / kCacheLineSize;
            EXPECT_NE(la, lb) << "workers " << a << " and " << b;
        }
}

TEST(Layout, TraceRingColdFieldsStayOffTheProducerLine)
{
    telemetry::TraceRing ring(3, 64);
    EXPECT_NE(
        LayoutAudit::line_of(ring, LayoutAudit::trace_dropped(ring)),
        LayoutAudit::line_of(ring,
                             LayoutAudit::trace_ring_producer_head(ring)));
}

TEST(Layout, DispatchViewLanesAreLineAlignedAndPadded)
{
    DispatchView view(16);
    EXPECT_EQ(view.workers(), 16u);
    EXPECT_EQ(view.padded_lanes(), 16u); // exactly one line of lengths
    EXPECT_EQ(reinterpret_cast<uintptr_t>(LayoutAudit::view_len_data(view)) %
                  kCacheLineSize,
              0u);
    EXPECT_EQ(
        reinterpret_cast<uintptr_t>(LayoutAudit::view_quanta_data(view)) %
            kCacheLineSize,
        0u);

    DispatchView odd(5);
    EXPECT_EQ(odd.padded_lanes(), 16u);
}

// ---------------------------------------------------------------------
// Packed-pick property tests: the composite-key scan vs the two-pass oracle.
// ---------------------------------------------------------------------

TEST(DispatchPick, MatchesScalarOnRandomizedViews)
{
    Rng rng(42);
    for (int trial = 0; trial < 20000; ++trial) {
        const size_t n = 1 + rng.below(128);
        DispatchView view(n);
        // Small ranges force dense ties; larger ones exercise magnitude.
        const uint64_t len_range = 1 + rng.below(trial % 3 == 0 ? 4 : 1000);
        const uint32_t quanta_range =
            static_cast<uint32_t>(1 + rng.below(trial % 2 == 0 ? 3 : 100));
        for (size_t i = 0; i < n; ++i) {
            view.set_len(i, rng.below(len_range));
            view.set_quanta(i,
                            static_cast<uint32_t>(rng.below(quanta_range)));
        }
        ASSERT_EQ(view.pick_jsq_msq(), view.pick_jsq_msq_scalar())
            << "trial " << trial << " n=" << n;
    }
}

TEST(DispatchPick, MatchesScalarAtTheLaneExtremes)
{
    // The pick packs each lane into one 64-bit key; lengths and quanta
    // drawn only from the ends of their ranges are where a packing bug
    // (overflow, sign, lost half) would show.
    const uint64_t lens[] = {0, 1, DispatchView::kLenMax - 1,
                             DispatchView::kLenMax};
    const uint32_t quanta[] = {0, 1, UINT32_MAX - 1, UINT32_MAX};
    Rng rng(43);
    for (int trial = 0; trial < 20000; ++trial) {
        const size_t n = 1 + rng.below(trial % 2 == 0 ? 4 : 64);
        DispatchView view(n);
        for (size_t i = 0; i < n; ++i) {
            view.set_len(i, lens[rng.below(std::size(lens))]);
            view.set_quanta(i, quanta[rng.below(std::size(quanta))]);
        }
        ASSERT_EQ(view.pick_jsq_msq(), view.pick_jsq_msq_scalar())
            << "trial " << trial << " n=" << n;
    }
}

TEST(DispatchPick, TieBreakOrderIsLenThenQuantaThenIndex)
{
    // DESIGN.md §"Dispatcher": minimum length first, maximum
    // current-quanta among tied lengths, lowest index among full ties.
    DispatchView view(4);
    for (size_t i = 0; i < 4; ++i)
        view.set_len(i, 5);
    view.set_quanta(0, 1);
    view.set_quanta(1, 9);
    view.set_quanta(2, 9);
    view.set_quanta(3, 2);
    EXPECT_EQ(view.pick_jsq_msq(), 1); // max quanta, first of the 9s

    view.set_len(3, 2); // strictly shorter queue beats any quanta
    EXPECT_EQ(view.pick_jsq_msq(), 3);

    for (size_t i = 0; i < 4; ++i)
        view.set_quanta(i, 7);
    view.set_len(3, 5);
    EXPECT_EQ(view.pick_jsq_msq(), 0); // full tie -> lowest index
}

TEST(DispatchPick, WrapClampedLengthsBehaveAsZero)
{
    // refresh_dispatch_views() clamps the transient assigned<finished
    // race to length 0 before storing; reproduce that arithmetic and
    // check the clamped worker wins.
    DispatchView view(8);
    for (size_t i = 0; i < 8; ++i)
        view.set_len(i, 3 + i);
    const uint64_t assigned = 100, finished = 103; // worker ran ahead
    view.set_len(5, assigned > finished ? assigned - finished : 0);
    EXPECT_EQ(view.len(5), 0u);
    EXPECT_EQ(view.pick_jsq_msq(), 5);
    EXPECT_EQ(view.pick_jsq_msq(), view.pick_jsq_msq_scalar());
}

TEST(DispatchPick, SaturationClampsAtLenMaxAndStillPicksConsistently)
{
    DispatchView view(8);
    for (size_t i = 0; i < 8; ++i)
        view.set_len(i, ~0ULL - i); // all above the clamp
    for (size_t i = 0; i < 8; ++i)
        EXPECT_EQ(view.len(i), DispatchView::kLenMax);
    view.set_quanta(6, 4);
    // All tied at kLenMax: MSQ still resolves.
    const int best = view.pick_jsq_msq();
    EXPECT_EQ(best, 6);
    EXPECT_EQ(best, view.pick_jsq_msq_scalar());
    view.bump_len(6); // saturating bump must not wrap
    EXPECT_EQ(view.len(6), DispatchView::kLenMax);
}

TEST(DispatchPick, BumpLenMatchesIncrementalScalarUse)
{
    // Drive the view exactly as dispatch_batch() does within a batch:
    // pick, bump, repeat — and mirror the sequence against the two-pass
    // reference on a second identical view.
    Rng rng(7);
    for (int trial = 0; trial < 500; ++trial) {
        const size_t n = 1 + rng.below(128);
        DispatchView scan_view(n);
        DispatchView ref_view(n);
        for (size_t i = 0; i < n; ++i) {
            const uint64_t len = rng.below(6);
            const uint32_t q = static_cast<uint32_t>(rng.below(5));
            scan_view.set_len(i, len);
            ref_view.set_len(i, len);
            scan_view.set_quanta(i, q);
            ref_view.set_quanta(i, q);
        }
        for (int step = 0; step < 40; ++step) {
            const int a = scan_view.pick_jsq_msq();
            const int b = ref_view.pick_jsq_msq_scalar();
            ASSERT_EQ(a, b) << "trial " << trial << " step " << step;
            scan_view.bump_len(static_cast<size_t>(a));
            ref_view.bump_len(static_cast<size_t>(b));
        }
    }
}

/**
 * The simulator's dispatcher pick before both engines moved onto
 * DispatchView::pick, copied verbatim from its pick_core() (the policy
 * enum renamed, the span starting at 0, the view's lengths and quanta
 * standing in for its counter snapshots). The oracle for the shared
 * pick: same worker, same RNG draws.
 */
struct SimPickOracle
{
    DispatchPolicy lb;
    std::vector<long> lens;
    std::vector<uint64_t> snap_quanta_;
    std::vector<int> ties_;

    long viewed_len(int w) const { return lens[static_cast<size_t>(w)]; }

    int
    pick_core(Rng &rng)
    {
        const int first = 0;
        const int n = static_cast<int>(lens.size());
        switch (lb) {
          case DispatchPolicy::Random:
            return first +
                   static_cast<int>(rng.below(static_cast<uint64_t>(n)));
          case DispatchPolicy::PowerOfTwo: {
            if (n == 1)
                return first; // no second core to sample
            const int a =
                static_cast<int>(rng.below(static_cast<uint64_t>(n)));
            int b = static_cast<int>(
                rng.below(static_cast<uint64_t>(n - 1)));
            if (b >= a)
                ++b;
            const long qa = viewed_len(first + a);
            const long qb = viewed_len(first + b);
            if (qa != qb)
                return first + (qa < qb ? a : b);
            return first + (rng.bernoulli(0.5) ? a : b);
          }
          case DispatchPolicy::JsqRandom:
          case DispatchPolicy::JsqMsq: {
            long best_len = viewed_len(first);
            for (int c = first + 1; c < first + n; ++c)
                best_len = std::min(best_len, viewed_len(c));
            // Collect ties (global core ids).
            ties_.clear();
            for (int c = first; c < first + n; ++c)
                if (viewed_len(c) == best_len)
                    ties_.push_back(c);
            if (ties_.size() == 1)
                return ties_[0];
            if (lb == DispatchPolicy::JsqRandom)
                return ties_[rng.below(ties_.size())];
            // MSQ: the core whose current jobs have received the most
            // quanta is expected to finish them soonest (section 3.2).
            int best = ties_[0];
            uint64_t best_quanta = snap_quanta_[static_cast<size_t>(best)];
            for (size_t i = 1; i < ties_.size(); ++i) {
                const int c = ties_[i];
                const uint64_t q = snap_quanta_[static_cast<size_t>(c)];
                if (q > best_quanta) {
                    best = c;
                    best_quanta = q;
                }
            }
            return best;
          }
        }
        return -1;
    }
};

TEST(DispatchPick, EveryPolicyMatchesTheSimulatorsOriginalPick)
{
    // Views of 1-128 lanes (one to eight cache lines) with dense ties
    // in length and quanta; for each policy, the same seed on both
    // sides must give the same worker and leave both RNG streams at the
    // same position.
    const DispatchPolicy policies[] = {
        DispatchPolicy::JsqMsq, DispatchPolicy::JsqRandom,
        DispatchPolicy::Random, DispatchPolicy::PowerOfTwo};
    Rng data_rng(1234);
    int one_lane_views = 0;
    for (int trial = 0; trial < 5000; ++trial) {
        const size_t n = 1 + data_rng.below(128);
        one_lane_views += n == 1;
        const uint64_t len_range = 1 + data_rng.below(trial % 2 ? 3 : 20);
        DispatchView view(n);
        SimPickOracle oracle;
        for (size_t i = 0; i < n; ++i) {
            const uint64_t len = data_rng.below(len_range);
            const uint32_t q = static_cast<uint32_t>(data_rng.below(3));
            view.set_len(i, len);
            view.set_quanta(i, q);
            oracle.lens.push_back(static_cast<long>(len));
            oracle.snap_quanta_.push_back(q);
        }
        for (const DispatchPolicy policy : policies) {
            oracle.lb = policy;
            const uint64_t seed = data_rng();
            Rng view_rng(seed);
            Rng ref_rng(seed);
            ASSERT_EQ(view.pick(policy, view_rng), oracle.pick_core(ref_rng))
                << "trial " << trial << " n=" << n << " policy "
                << static_cast<int>(policy);
            ASSERT_EQ(view_rng(), ref_rng())
                << "trial " << trial << " policy "
                << static_cast<int>(policy);
        }
    }
    // One-lane views are the only ones on PowerOfTwo's no-draw path.
    EXPECT_GT(one_lane_views, 0);
}

} // namespace
