/**
 * @file
 * Cache-line sizing and padding helpers.
 *
 * The dispatcher/worker contract of the paper (section 4) keeps each
 * worker's statistics in a single cache line that the dispatcher reads
 * periodically; these helpers make that layout explicit and keep hot
 * shared variables from false-sharing.
 *
 * Layout discipline (docs/cache_line_analysis.md): every cross-thread
 * line has exactly one writing thread (which bumps its counters with
 * owner_add(), below), padding is explicit and stated, and each packed
 * struct carries a static_assert on its size and alignment so a field
 * addition fails the build instead of silently false-sharing.
 * tests/layout_test.cc exercises the same invariants at runtime with
 * real objects.
 */
#ifndef TQ_CONC_CACHELINE_H
#define TQ_CONC_CACHELINE_H

#include <atomic>
#include <cstddef>
#include <new>
#include <thread>
#include <type_traits>

namespace tq {

/**
 * Cache-line size used for alignment decisions.
 *
 * Fixed at 64 bytes (true for every x86-64 part this targets) rather than
 * std::hardware_destructive_interference_size, whose value is an ABI
 * hazard across compiler versions. Note some parts (recent Intel L2
 * prefetchers, Apple silicon) pull *pairs* of lines; we pad to one line
 * because the structs here are polled, not streamed, and doubling every
 * pad measurably hurts the dispatcher's view-refresh footprint.
 */
inline constexpr size_t kCacheLineSize = 64;

/**
 * Layout-introspection hook for tests: concurrency containers befriend
 * this struct so tests/layout_test.cc can take member addresses of real
 * objects (offsetof on non-standard-layout types is only conditionally
 * supported) without widening the public API.
 */
struct LayoutAudit;

namespace detail {

/** Explicit tail padding of @p N bytes; the N == 0 case is an empty
 *  struct so `[[no_unique_address]]` members vanish (a zero-length
 *  array is a GNU extension and ill-formed in standard C++). */
template <size_t N>
struct TailPad
{
    char pad[N];
};

template <>
struct TailPad<0>
{
};

/** Bytes needed after @p Size to reach the next line boundary. */
inline constexpr size_t
tail_pad_bytes(size_t size)
{
    return size % kCacheLineSize ? kCacheLineSize - size % kCacheLineSize
                                 : 0;
}

} // namespace detail

/** A value padded out to occupy a whole number of cache lines by itself. */
template <typename T>
struct alignas(kCacheLineSize) CacheAligned
{
    T value{};

    /** Explicit trailing padding. alignas already rounds sizeof up to a
     *  line multiple; the member keeps the gap visible in the source and
     *  collapses to nothing when T fills its lines exactly. */
    [[no_unique_address]] detail::TailPad<detail::tail_pad_bytes(sizeof(T))>
        pad;
};

/** Cache-line padded atomic counter, the common case of CacheAligned. */
template <typename T>
struct alignas(kCacheLineSize) PaddedAtomic
{
    std::atomic<T> value{};

    [[no_unique_address]] detail::TailPad<detail::tail_pad_bytes(
        sizeof(std::atomic<T>))>
        pad;
};

static_assert(sizeof(PaddedAtomic<size_t>) == kCacheLineSize &&
                  alignof(PaddedAtomic<size_t>) == kCacheLineSize,
              "a padded cursor must own exactly one line");
static_assert(sizeof(CacheAligned<char[kCacheLineSize]>) == kCacheLineSize,
              "an exactly line-sized payload must not grow a second line");

/**
 * Owner-only add: `a += n` on a counter with exactly one writing thread.
 *
 * The single-writer rule above makes a read-modify-write unnecessary:
 * no other thread stores to @p a, so a relaxed load plus a relaxed
 * store is the same update. It compiles to a plain load and store. A
 * relaxed fetch_add would not be cheaper: on x86 it is still a
 * `lock`-prefixed instruction, a full barrier that stalls the writer
 * until its earlier stores to other shared lines have left the core.
 * Readers keep their relaxed loads and see every value whole.
 *
 * Wraps exactly like fetch_add (T is unsigned), so a decrement is the
 * add of the negated delta. A second writer would lose updates: counters
 * that more than one thread bumps keep fetch_add.
 */
template <typename T>
inline void
owner_add(std::atomic<T> &a, std::type_identity_t<T> n)
{
    static_assert(std::is_unsigned_v<T>, "wrapping add needs unsigned T");
    a.store(static_cast<T>(a.load(std::memory_order_relaxed) + n),
            std::memory_order_relaxed);
}

/** Pause hint for spin loops (PAUSE on x86, plain nop elsewhere). */
inline void
cpu_relax()
{
#if defined(__x86_64__)
    __builtin_ia32_pause();
#endif
}

/** Empty polls between two idle_backoff() yields. */
inline constexpr int kIdlePollsPerYield = 8;

/**
 * One idle step of a polling loop that found no work: cpu_relax() on
 * most empty polls, and a sched_yield on every kIdlePollsPerYield-th so
 * threads that timeshare a core (dispatcher, workers, client) make
 * progress; dedicated cores would busy-poll instead. @p empty_polls is
 * the caller's count; reset it to 0 whenever a poll finds work.
 */
inline void
idle_backoff(int &empty_polls)
{
    if (++empty_polls >= kIdlePollsPerYield) {
        empty_polls = 0;
        std::this_thread::yield();
    } else {
        cpu_relax();
    }
}

} // namespace tq

#endif // TQ_CONC_CACHELINE_H
