/**
 * @file
 * Guarded coroutine stacks.
 *
 * Each task coroutine gets an mmap'd stack with an inaccessible guard
 * page below it, so a stack overflow faults immediately instead of
 * corrupting a neighbouring coroutine.
 */
#ifndef TQ_CORO_STACK_H
#define TQ_CORO_STACK_H

#include <cstddef>

namespace tq {

/** Default coroutine stack size (excluding the guard page). */
inline constexpr size_t kDefaultStackSize = 64 * 1024;

/** An mmap'd stack region with a PROT_NONE guard page at its base. */
class Stack
{
  public:
    /** Allocate a stack of @p size usable bytes (rounded up to pages). */
    explicit Stack(size_t size = kDefaultStackSize);
    ~Stack();

    Stack(Stack &&other) noexcept;
    Stack &operator=(Stack &&other) noexcept;
    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;

    /** Lowest usable address (just above the guard page). */
    void *base() const { return base_; }

    /** Usable size in bytes. */
    size_t size() const { return size_; }

  private:
    void release() noexcept;

    void *map_ = nullptr;   ///< whole mapping including guard page
    void *base_ = nullptr;  ///< usable region start
    size_t size_ = 0;       ///< usable bytes
    size_t map_size_ = 0;   ///< mapped bytes
};

} // namespace tq

#endif // TQ_CORO_STACK_H
