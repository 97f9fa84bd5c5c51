/**
 * @file
 * Bounded lock-free single-producer / single-consumer ring buffer.
 *
 * This is the "lockless ring buffer" the TQ dispatcher uses to forward a
 * request to the least-loaded worker, and that each worker uses for its
 * private TX queue (paper section 4). It is a classic Lamport queue with
 * cached remote indices so the hot path touches only one shared cache
 * line per operation amortized. The batch APIs (push_n/pop_n) move up to
 * k items per index acquire/release pair, dividing that remaining shared
 * traffic by the batch size (DESIGN.md "Batched hot path").
 *
 * Index layout (docs/cache_line_analysis.md): two lines, one per end.
 * Each end's published index shares its line with that same end's cached
 * snapshot of the *other* index — both fields have a single writer (the
 * owning end), so packing them costs nothing and halves the header from
 * the previous four dedicated lines. The other end only ever loads the
 * published index; the slot storage and mask sit on separate read-mostly
 * lines ahead of the index block.
 *
 * Slot layout: a slot of more than half a line (Request, Response) owns
 * its line, so the producer filling slot k+1 never writes the line the
 * consumer is draining out of slot k; smaller slots (trace events,
 * integers) stay packed (RingSlot in conc/cacheline.h).
 */
#ifndef TQ_CONC_SPSC_RING_H
#define TQ_CONC_SPSC_RING_H

#include <atomic>
#include <cstddef>
#include <optional>
#include <vector>

#include "common/check.h"
#include "conc/cacheline.h"

namespace tq {

/**
 * Bounded SPSC FIFO of trivially-movable values.
 *
 * Exactly one thread may call push(); exactly one thread may call pop().
 * Capacity is rounded up to a power of two.
 */
template <typename T>
class SpscRing
{
  public:
    /**
     * Producer-owned index line: the published producer index plus the
     * producer's private snapshot of the consumer index. Single writer
     * (the producer); the consumer acquire-loads only `head`.
     */
    struct alignas(kCacheLineSize) ProducerSide
    {
        std::atomic<size_t> head{0}; ///< next slot to fill (published)
        size_t cached_tail = 0;      ///< producer-local tail snapshot

        char pad[kCacheLineSize - sizeof(std::atomic<size_t>) -
                 sizeof(size_t)];
    };

    /** Consumer-owned index line, mirror of ProducerSide. */
    struct alignas(kCacheLineSize) ConsumerSide
    {
        std::atomic<size_t> tail{0}; ///< next slot to drain (published)
        size_t cached_head = 0;      ///< consumer-local head snapshot

        char pad[kCacheLineSize - sizeof(std::atomic<size_t>) -
                 sizeof(size_t)];
    };

    static_assert(sizeof(ProducerSide) == kCacheLineSize &&
                      alignof(ProducerSide) == kCacheLineSize,
                  "each ring end owns exactly one index line");
    static_assert(sizeof(ConsumerSide) == kCacheLineSize &&
                      alignof(ConsumerSide) == kCacheLineSize,
                  "each ring end owns exactly one index line");

    /** @param min_capacity minimum number of storable elements (>= 1). */
    explicit SpscRing(size_t min_capacity)
    {
        TQ_CHECK(min_capacity >= 1);
        size_t cap = 1;
        while (cap < min_capacity)
            cap <<= 1;
        mask_ = cap - 1;
        slots_.resize(cap);
    }

    SpscRing(const SpscRing &) = delete;
    SpscRing &operator=(const SpscRing &) = delete;

    /** Number of storable elements. */
    size_t capacity() const { return mask_ + 1; }

    /**
     * Enqueue @p value. Producer-side only.
     * @return false if the ring is full (value untouched).
     */
    bool
    push(T value)
    {
        return push_with([&value](T &slot) { slot = std::move(value); });
    }

    /**
     * Enqueue by filling the next slot in place: @p fill(slot) runs only
     * once the ring has room. Producer-side only. The room test reads
     * the cached consumer index and re-reads the shared one only when
     * the cache says full, so a ring that stays full costs one load per
     * call and never builds the value it would drop.
     * @return false if the ring is full (@p fill not called).
     */
    template <typename Fill>
    bool
    push_with(Fill &&fill)
    {
        const size_t head = prod_.head.load(std::memory_order_relaxed);
        if (head - prod_.cached_tail > mask_) {
            prod_.cached_tail = cons_.tail.load(std::memory_order_acquire);
            if (head - prod_.cached_tail > mask_)
                return false;
        }
        fill(slots_[head & mask_].value);
        prod_.head.store(head + 1, std::memory_order_release);
        return true;
    }

    /**
     * Enqueue up to @p n values from @p src. Producer-side only.
     *
     * One acquire of the consumer index and one release of the producer
     * index cover the whole batch, so the per-item cost of the shared
     * cache-line traffic is amortized by the batch size.
     *
     * @return number of values actually enqueued (0 when full); the
     *     first @c return values of @p src are moved from.
     */
    size_t
    push_n(T *src, size_t n)
    {
        const size_t head = prod_.head.load(std::memory_order_relaxed);
        size_t free = mask_ + 1 - (head - prod_.cached_tail);
        if (free < n) {
            prod_.cached_tail = cons_.tail.load(std::memory_order_acquire);
            free = mask_ + 1 - (head - prod_.cached_tail);
        }
        const size_t count = n < free ? n : free;
        for (size_t i = 0; i < count; ++i)
            slots_[(head + i) & mask_].value = std::move(src[i]);
        if (count > 0)
            prod_.head.store(head + count, std::memory_order_release);
        return count;
    }

    /**
     * Dequeue the oldest element. Consumer-side only.
     * @return std::nullopt if the ring is empty.
     */
    std::optional<T>
    pop()
    {
        const size_t tail = cons_.tail.load(std::memory_order_relaxed);
        if (tail == cons_.cached_head) {
            cons_.cached_head = prod_.head.load(std::memory_order_acquire);
            if (tail == cons_.cached_head)
                return std::nullopt;
        }
        T value = std::move(slots_[tail & mask_].value);
        cons_.tail.store(tail + 1, std::memory_order_release);
        return value;
    }

    /**
     * Dequeue the oldest element into @p out without the
     * std::optional<T> wrapper (no extra move/copy of T on the miss
     * path, no engaged-flag branch for the caller). Consumer-side only.
     * @return false when the ring is empty (@p out untouched).
     */
    bool
    pop_into(T &out)
    {
        const size_t tail = cons_.tail.load(std::memory_order_relaxed);
        if (tail == cons_.cached_head) {
            cons_.cached_head = prod_.head.load(std::memory_order_acquire);
            if (tail == cons_.cached_head)
                return false;
        }
        out = std::move(slots_[tail & mask_].value);
        cons_.tail.store(tail + 1, std::memory_order_release);
        return true;
    }

    /**
     * Dequeue up to @p max_n elements into @p dst. Consumer-side only.
     *
     * Mirrors push_n(): one acquire of the producer index and one
     * release of the consumer index per batch. @p dst is a pointer into
     * a buffer or any output iterator, e.g. std::back_inserter to append
     * to a vector's reserved capacity without value-initializing it.
     *
     * @return number of elements dequeued (0 when empty), FIFO order.
     */
    template <typename Out>
    size_t
    pop_n(Out dst, size_t max_n)
    {
        const size_t tail = cons_.tail.load(std::memory_order_relaxed);
        size_t avail = cons_.cached_head - tail;
        if (avail < max_n) {
            cons_.cached_head = prod_.head.load(std::memory_order_acquire);
            avail = cons_.cached_head - tail;
        }
        const size_t count = max_n < avail ? max_n : avail;
        for (size_t i = 0; i < count; ++i)
            *dst++ = std::move(slots_[(tail + i) & mask_].value);
        if (count > 0)
            cons_.tail.store(tail + count, std::memory_order_release);
        return count;
    }

    /** Approximate occupancy; exact only when called by one of the ends. */
    size_t
    size() const
    {
        return prod_.head.load(std::memory_order_acquire) -
               cons_.tail.load(std::memory_order_acquire);
    }

    /** True when size() == 0 at the time of the loads. */
    bool empty() const { return size() == 0; }

  private:
    friend struct ::tq::LayoutAudit;

    /** The slot array; a slot of more than half a line owns its line
     *  (RingSlot). The vector header is read-mostly after construction
     *  (both ends load, nobody stores). */
    RingStorage<T> slots_;
    size_t mask_;

    ProducerSide prod_; ///< writer: producer thread only
    ConsumerSide cons_; ///< writer: consumer thread only
};

} // namespace tq

#endif // TQ_CONC_SPSC_RING_H
