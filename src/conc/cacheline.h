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
#include <cstdint>
#include <new>
#include <thread>
#include <type_traits>
#include <vector>

#include <sys/mman.h>

#include "common/cycles.h"

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

/** Pause hint for spin loops: x86's PAUSE. */
inline void
cpu_relax()
{
    __builtin_ia32_pause();
}

/** A ring slot stored at sizeof(T), with no padding. */
template <typename T>
struct PackedSlot
{
    T value{};
};

/**
 * Storage for one slot of a ring of T. A slot of more than half a line
 * gets a line of its own (CacheAligned), so the producer filling slot
 * k+1 never writes the line the consumer is reading out of slot k; a
 * smaller slot stays packed at sizeof(T), where padding would multiply
 * the footprint for little gain (docs/cache_line_analysis.md). The rule
 * depends only on sizeof(T).
 */
template <typename T>
using RingSlot = std::conditional_t<(sizeof(T) > kCacheLineSize / 2),
                                    CacheAligned<T>, PackedSlot<T>>;

static_assert(sizeof(RingSlot<char[kCacheLineSize / 2 + 1]>) ==
                  kCacheLineSize,
              "a slot of more than half a line owns its line");
static_assert(sizeof(RingSlot<char[kCacheLineSize / 2]>) ==
                  kCacheLineSize / 2,
              "a slot of half a line or less stays packed");

/**
 * Allocator of ring storage: whole pages straight from the OS, returned
 * to it on free. A ring's slot array is large (2^14 line-sized slots is
 * 1 MiB), long-lived and freed at teardown. Through malloc, that free
 * raises glibc's dynamic mmap threshold to the array's size, so the
 * host process's later allocations below it land on the heap and stay
 * resident; page-backed storage leaves the host's allocator alone.
 */
template <typename T>
struct PageAllocator
{
    using value_type = T;

    static_assert(alignof(T) <= 4096, "pages are 4 KiB aligned");

    PageAllocator() = default;

    template <typename U>
    PageAllocator(const PageAllocator<U> &)
    {
    }

    T *
    allocate(size_t n)
    {
        void *p = mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        return static_cast<T *>(p);
    }

    void deallocate(T *p, size_t n) { munmap(p, n * sizeof(T)); }

    template <typename U>
    bool
    operator==(const PageAllocator<U> &) const
    {
        return true;
    }
};

/** The slot array of a ring of T. */
template <typename T>
using RingStorage = std::vector<RingSlot<T>, PageAllocator<RingSlot<T>>>;

/** Idle spin budget of idle_backoff() before it starts to yield. */
inline constexpr double kIdleSpinNs = 50'000;

/** Empty polls between two clock reads while spinning: a TSC read
 *  (`BM_Rdcycles`, 16 ns on a 4-vCPU Xeon VM) is dearer than a poll. */
inline constexpr uint32_t kIdlePollsPerClockRead = 64;

/** Empty polls between two yields once the spin budget is spent. */
inline constexpr uint32_t kIdlePollsPerYield = 8;

/**
 * The idle policy of a polling loop, kept free of clocks and syscalls so
 * a test can drive it with a synthetic one. A run of empty polls first
 * spins for a cycle budget, then yields on every kIdlePollsPerYield-th
 * poll until reset(): the spin keeps a busy thread's wake-up free of
 * syscalls, and the yield lets threads that timeshare a core (a loaded
 * host, `ctest -j`) make progress.
 *
 * The budget starts at the run's first clock read, kIdlePollsPerClockRead
 * polls in, and the clock is read at most once per that many polls.
 */
class IdleBackoff
{
  public:
    explicit IdleBackoff(Cycles spin_budget) : budget_(spin_budget) {}

    /** The default budget, kIdleSpinNs. */
    IdleBackoff() : IdleBackoff(ns_to_cycles(kIdleSpinNs)) {}

    /** A poll found work: the next empty poll starts a new run. */
    void
    reset()
    {
        polls_ = 0;
        yielding_ = false;
    }

    /**
     * Account one empty poll. @p now returns the current cycle count.
     * @return true when this poll should yield the CPU.
     */
    template <typename Now>
    bool
    should_yield(Now &&now)
    {
        ++polls_;
        if (yielding_)
            return polls_ % kIdlePollsPerYield == 0;
        if (polls_ % kIdlePollsPerClockRead != 0)
            return false;
        const Cycles t = now();
        if (polls_ == kIdlePollsPerClockRead)
            start_ = t;
        else if (t - start_ >= budget_) {
            yielding_ = true;
            polls_ = 0;
        }
        return false;
    }

  private:
    Cycles budget_;
    Cycles start_ = 0;   ///< clock at the run's first read
    uint64_t polls_ = 0; ///< empty polls in the run (since yielding_)
    bool yielding_ = false;
};

/**
 * One idle step of a polling loop that found no work: cpu_relax(), or a
 * sched_yield when @p idle says so. Call idle.reset() whenever a poll
 * finds work.
 */
inline void
idle_backoff(IdleBackoff &idle)
{
    if (idle.should_yield(rdcycles))
        std::this_thread::yield();
    else
        cpu_relax();
}

} // namespace tq

#endif // TQ_CONC_CACHELINE_H
