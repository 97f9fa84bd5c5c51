/**
 * @file
 * Bounded lock-free multi-producer / multi-consumer queue.
 *
 * Dmitry Vyukov's array-based MPMC queue. TQ uses it wherever more than
 * one thread can touch an end: the RX queue takes requests from many
 * submitters and is drained by the dispatcher.
 */
#ifndef TQ_CONC_MPMC_QUEUE_H
#define TQ_CONC_MPMC_QUEUE_H

#include <atomic>
#include <cstddef>
#include <optional>
#include <vector>

#include "common/check.h"
#include "conc/cacheline.h"

namespace tq {

/** Bounded MPMC FIFO of movable values; capacity rounds up to 2^k. */
template <typename T>
class MpmcQueue
{
  public:
    explicit MpmcQueue(size_t min_capacity)
    {
        TQ_CHECK(min_capacity >= 1);
        size_t cap = 1;
        while (cap < min_capacity)
            cap <<= 1;
        mask_ = cap - 1;
        cells_ = RingStorage<Cell>(cap);
        for (size_t i = 0; i < cap; ++i)
            cell(i).sequence.store(i, std::memory_order_relaxed);
    }

    MpmcQueue(const MpmcQueue &) = delete;
    MpmcQueue &operator=(const MpmcQueue &) = delete;

    /** Number of storable elements. */
    size_t capacity() const { return mask_ + 1; }

    /** Enqueue @p value; @return false when full. Thread-safe. */
    bool
    push(T value)
    {
        size_t pos = enqueue_pos_.value.load(std::memory_order_relaxed);
        for (;;) {
            Cell &c = cell(pos);
            const size_t seq = c.sequence.load(std::memory_order_acquire);
            const intptr_t diff = static_cast<intptr_t>(seq) -
                                  static_cast<intptr_t>(pos);
            if (diff == 0) {
                if (enqueue_pos_.value.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed)) {
                    c.value = std::move(value);
                    c.sequence.store(pos + 1, std::memory_order_release);
                    return true;
                }
            } else if (diff < 0) {
                return false; // full
            } else {
                pos = enqueue_pos_.value.load(std::memory_order_relaxed);
            }
        }
    }

    /** Dequeue the oldest element; @return nullopt when empty. Thread-safe. */
    std::optional<T>
    pop()
    {
        size_t pos = dequeue_pos_.value.load(std::memory_order_relaxed);
        for (;;) {
            Cell &c = cell(pos);
            const size_t seq = c.sequence.load(std::memory_order_acquire);
            const intptr_t diff = static_cast<intptr_t>(seq) -
                                  static_cast<intptr_t>(pos + 1);
            if (diff == 0) {
                if (dequeue_pos_.value.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed)) {
                    T value = std::move(c.value);
                    c.sequence.store(pos + mask_ + 1,
                                     std::memory_order_release);
                    return value;
                }
            } else if (diff < 0) {
                return std::nullopt; // empty
            } else {
                pos = dequeue_pos_.value.load(std::memory_order_relaxed);
            }
        }
    }

    /**
     * Dequeue up to @p max_n elements into @p dst with one successful
     * CAS for the whole batch. Thread-safe against concurrent producers
     * and consumers.
     *
     * The claimable prefix is the run of cells already published by
     * their producers (cells are claimed in order but may be published
     * out of order, so the run can be shorter than the occupancy); a
     * single compare-exchange on the dequeue cursor then claims the
     * entire prefix, amortizing the contended RMW across the batch.
     *
     * @return number of elements dequeued (0 when empty), FIFO order.
     */
    size_t
    pop_n(T *dst, size_t max_n)
    {
        for (;;) {
            size_t pos = dequeue_pos_.value.load(std::memory_order_relaxed);
            size_t ready = 0;
            while (ready < max_n) {
                const size_t seq =
                    cell(pos + ready).sequence.load(std::memory_order_acquire);
                if (static_cast<intptr_t>(seq) !=
                    static_cast<intptr_t>(pos + ready + 1))
                    break;
                ++ready;
            }
            if (ready == 0) {
                // Empty, or the head cell is mid-publish; match pop()'s
                // non-blocking contract and report nothing available.
                return 0;
            }
            if (!dequeue_pos_.value.compare_exchange_weak(
                    pos, pos + ready, std::memory_order_relaxed))
                continue; // another consumer moved the cursor; re-scan
            // Cells [pos, pos+ready) are exclusively ours: consume and
            // recycle each one for the producer a lap ahead.
            for (size_t i = 0; i < ready; ++i) {
                Cell &c = cell(pos + i);
                dst[i] = std::move(c.value);
                c.sequence.store(pos + i + mask_ + 1,
                                 std::memory_order_release);
            }
            return ready;
        }
    }

  private:
    friend struct ::tq::LayoutAudit;

    /**
     * One slot: the publication sequence and the payload it guards. A
     * cell of more than half a line (a Request's 56 bytes) owns its line
     * (RingSlot): a producer publishing cell k+1 then never writes the
     * line a consumer is reading and re-sequencing for cell k. Smaller
     * cells stay packed as in Vyukov's layout.
     */
    struct Cell
    {
        std::atomic<size_t> sequence{0};
        T value{};
    };

    /** The cell that position @p pos maps to. */
    Cell &cell(size_t pos) { return cells_[pos & mask_].value; }

    /** The vector header is read-mostly after construction. */
    RingStorage<Cell> cells_;
    size_t mask_;

    /** The two contended RMW cursors, each alone on its line so
     *  producers CASing enqueue_pos_ never stall consumers' reads of
     *  dequeue_pos_ (and vice versa). */
    PaddedAtomic<size_t> enqueue_pos_;
    PaddedAtomic<size_t> dequeue_pos_;

    static_assert(sizeof(PaddedAtomic<size_t>) == kCacheLineSize,
                  "each MPMC cursor must own exactly one line");
};

} // namespace tq

#endif // TQ_CONC_MPMC_QUEUE_H
