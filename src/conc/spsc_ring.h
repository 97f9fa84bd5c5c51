/**
 * @file
 * Bounded lock-free single-producer / single-consumer ring buffer.
 *
 * This is the "lockless ring buffer" the TQ dispatcher uses to forward a
 * request to the least-loaded worker, and that each worker uses for its
 * private TX queue (paper section 4). Each slot carries its own
 * publication stamp, as in FastForward (Giacomoni et al., PPoPP 2008)
 * and the MPMC queue's per-cell sequence, so the consumer polls the
 * slot it will read instead of the producer's index: a hand-off costs
 * one cross-core line transfer, not an index miss followed by a slot
 * miss.
 *
 * Stamp protocol. Position p maps to slot p & mask. The producer fills
 * the slot at `head` and then release-stores `stamp = head + 1`; the
 * consumer acquire-loads the stamp of the slot at `tail` and takes the
 * value only when it reads `tail + 1`. That pair orders the fill before
 * the read. A slot still holding the previous lap's stamp
 * (`tail + 1 - capacity`), or the initial 0, reads as empty. The
 * consumer then release-stores `tail` once it has moved the value out;
 * the producer acquire-loads `tail` only when its cached copy says the
 * ring is full, which orders that move before the slot's refill.
 * `head` is producer-private and never published, and the consumer
 * never writes a slot. pop_n moves up to k items per `tail` release,
 * dividing the consumer's index traffic by the batch size (DESIGN.md
 * "Batched hot path").
 *
 * Index layout (docs/cache_line_analysis.md): two lines, one per end.
 * The producer's line holds `head` and its snapshot of `tail`, both
 * producer-private; the consumer's line holds only the published
 * `tail`. The slot storage and mask sit on separate read-mostly lines
 * ahead of the index block.
 *
 * Slot layout: a slot (value plus stamp) of more than half a line
 * (Request, Response: 56 bytes) owns its line, so the payload and its
 * stamp arrive in one transfer and the producer filling slot k+1 never
 * writes the line the consumer is draining out of slot k; smaller slots
 * (trace events, integers) stay packed (RingSlot in conc/cacheline.h).
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
    /** One slot: the payload and the stamp that publishes it. */
    struct Slot
    {
        T value{};
        std::atomic<size_t> stamp{0}; ///< position + 1 once published
    };

    /**
     * Producer-owned index line: the next position to fill and the
     * producer's snapshot of the consumer index. Both are private to
     * the producer; the consumer never loads this line.
     */
    struct alignas(kCacheLineSize) ProducerSide
    {
        size_t head = 0;        ///< next position to fill
        size_t cached_tail = 0; ///< producer-local tail snapshot

        char pad[kCacheLineSize - 2 * sizeof(size_t)];
    };

    /** Consumer-owned index line: the published consumer index alone. */
    struct alignas(kCacheLineSize) ConsumerSide
    {
        std::atomic<size_t> tail{0}; ///< next position to drain (published)

        char pad[kCacheLineSize - sizeof(std::atomic<size_t>)];
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
        slots_ = RingStorage<Slot>(cap);
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
        const size_t head = prod_.head;
        if (head - prod_.cached_tail > mask_) {
            prod_.cached_tail = cons_.tail.load(std::memory_order_acquire);
            if (head - prod_.cached_tail > mask_)
                return false;
        }
        Slot &s = slot(head);
        fill(s.value);
        s.stamp.store(head + 1, std::memory_order_release);
        prod_.head = head + 1;
        return true;
    }

    /**
     * Dequeue the oldest element. Consumer-side only.
     * @return std::nullopt if the ring is empty.
     */
    std::optional<T>
    pop()
    {
        const size_t tail = cons_.tail.load(std::memory_order_relaxed);
        Slot &s = slot(tail);
        if (s.stamp.load(std::memory_order_acquire) != tail + 1)
            return std::nullopt;
        T value = std::move(s.value);
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
        Slot &s = slot(tail);
        if (s.stamp.load(std::memory_order_acquire) != tail + 1)
            return false;
        out = std::move(s.value);
        cons_.tail.store(tail + 1, std::memory_order_release);
        return true;
    }

    /**
     * Dequeue up to @p max_n elements into @p dst. Consumer-side only.
     *
     * Takes slots while their stamps read published, then releases the
     * consumer index once for the batch. The run cannot pass the slot at
     * `tail` again: the producer refills it only after that release.
     * @p dst is a pointer into a buffer or any output iterator, e.g.
     * std::back_inserter to append to a vector's reserved capacity
     * without value-initializing it.
     *
     * @return number of elements dequeued (0 when empty), FIFO order.
     */
    template <typename Out>
    size_t
    pop_n(Out dst, size_t max_n)
    {
        const size_t tail = cons_.tail.load(std::memory_order_relaxed);
        size_t count = 0;
        for (; count < max_n; ++count) {
            Slot &s = slot(tail + count);
            if (s.stamp.load(std::memory_order_acquire) != tail + count + 1)
                break;
            *dst++ = std::move(s.value);
        }
        if (count > 0)
            cons_.tail.store(tail + count, std::memory_order_release);
        return count;
    }

    /** True when the next slot is unpublished. Consumer-side only. */
    bool
    empty() const
    {
        const size_t tail = cons_.tail.load(std::memory_order_relaxed);
        return slots_[tail & mask_].value.stamp.load(
                   std::memory_order_acquire) != tail + 1;
    }

  private:
    friend struct ::tq::LayoutAudit;

    /** The slot that position @p pos maps to. */
    Slot &slot(size_t pos) { return slots_[pos & mask_].value; }

    /** The slot array; a slot of more than half a line owns its line
     *  (RingSlot). The vector header is read-mostly after construction
     *  (both ends load, nobody stores). */
    RingStorage<Slot> slots_;
    size_t mask_;

    ProducerSide prod_; ///< writer: producer thread only
    ConsumerSide cons_; ///< writer: consumer thread only
};

} // namespace tq

#endif // TQ_CONC_SPSC_RING_H
