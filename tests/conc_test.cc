/**
 * @file
 * Unit and stress tests for tq_conc: SPSC ring, MPMC queue, cache-line
 * padding, owner-only counters, the idle back-off policy.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "conc/cacheline.h"
#include "conc/mpmc_queue.h"
#include "conc/spsc_ring.h"

namespace tq {
namespace {

TEST(CacheAligned, OccupiesWholeLines)
{
    EXPECT_EQ(sizeof(CacheAligned<int>) % kCacheLineSize, 0u);
    EXPECT_EQ(alignof(CacheAligned<int>), kCacheLineSize);
    EXPECT_EQ(sizeof(PaddedAtomic<uint64_t>), kCacheLineSize);
}

template <typename T>
void
expect_owner_add_matches_fetch_add()
{
    // Start next to both wrap points and walk a delta sequence that
    // crosses them: adds, decrements written as negated deltas (the
    // stats line's current_quanta release), and the extremes.
    constexpr T kMax = std::numeric_limits<T>::max();
    const T deltas[] = {0, 1, 5, T(0) - 1, T(0) - 7, kMax, kMax / 2 + 3,
                        2, T(0) - kMax, T(0) - 3, 1000, T(0) - 1000};
    for (const T start : {T(0), T(1), T(kMax - 2), T(kMax / 2)}) {
        std::atomic<T> rmw{start};
        std::atomic<T> owned{start};
        for (const T d : deltas) {
            rmw.fetch_add(d, std::memory_order_relaxed);
            owner_add(owned, d);
            ASSERT_EQ(owned.load(), rmw.load())
                << "start " << start << " delta " << d;
        }
    }
}

TEST(OwnerAdd, MatchesFetchAddBitForBitIncludingWrap)
{
    expect_owner_add_matches_fetch_add<uint32_t>();
    expect_owner_add_matches_fetch_add<uint64_t>();
}

TEST(SpscRing, PushWithFillsOnlyWhenThereIsRoom)
{
    SpscRing<int> ring(2);
    int fills = 0;
    const auto fill = [&fills](int &slot) { slot = 10 + fills++; };
    EXPECT_TRUE(ring.push_with(fill));
    EXPECT_TRUE(ring.push_with(fill));
    EXPECT_FALSE(ring.push_with(fill));
    EXPECT_EQ(fills, 2) << "a full ring must not build the value it drops";
    EXPECT_EQ(ring.pop(), 10);
    EXPECT_TRUE(ring.push_with(fill));
    EXPECT_EQ(ring.pop(), 11);
    EXPECT_EQ(ring.pop(), 12);
    EXPECT_EQ(fills, 3);
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(SpscRing<int>(1).capacity(), 1u);
    EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
    EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
}

TEST(SpscRing, FifoOrderSingleThread)
{
    SpscRing<int> ring(8);
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(ring.push(i));
    EXPECT_FALSE(ring.push(99)) << "ring should be full";
    for (int i = 0; i < 8; ++i) {
        auto v = ring.pop();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, i);
    }
    EXPECT_FALSE(ring.pop().has_value());
}

TEST(SpscRing, WrapsAroundManyTimes)
{
    SpscRing<int> ring(4);
    for (int round = 0; round < 1000; ++round) {
        EXPECT_TRUE(ring.push(round));
        auto v = ring.pop();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, round);
    }
    EXPECT_TRUE(ring.empty());
}

class SpscRingCapacities : public ::testing::TestWithParam<size_t>
{
};

TEST_P(SpscRingCapacities, TwoThreadFifoStress)
{
    const size_t cap = GetParam();
    SpscRing<uint64_t> ring(cap);
    constexpr uint64_t kCount = 50000;

    std::thread producer([&] {
        for (uint64_t i = 0; i < kCount; ++i) {
            while (!ring.push(i))
                std::this_thread::yield();
        }
    });
    uint64_t expected = 0;
    while (expected < kCount) {
        auto v = ring.pop();
        if (!v) {
            std::this_thread::yield();
            continue;
        }
        ASSERT_EQ(*v, expected) << "FIFO order violated";
        ++expected;
    }
    producer.join();
    EXPECT_TRUE(ring.empty());
}

INSTANTIATE_TEST_SUITE_P(Capacities, SpscRingCapacities,
                         ::testing::Values(1, 2, 8, 64, 1024));

TEST(SpscRing, BatchAndScalarOpsInterleaveFifo)
{
    // Scalar push against mixed pop / pop_into / pop_n must observe one
    // FIFO stream: the batch pop moves the same indices the scalar ones
    // do.
    SpscRing<int> ring(16);
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(ring.push(i));

    auto v = ring.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 0);
    int out = -1;
    ASSERT_TRUE(ring.pop_into(out));
    EXPECT_EQ(out, 1);
    int dst[8] = {};
    EXPECT_EQ(ring.pop_n(dst, 8), 6u) << "only six left";
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(dst[i], i + 2);
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, BatchOpsArePartialOnFullAndEmpty)
{
    SpscRing<int> ring(4);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(ring.push(i));
    EXPECT_FALSE(ring.push(4)) << "full ring accepts nothing";

    int dst[6] = {};
    EXPECT_EQ(ring.pop_n(dst, 6), 4u) << "drains what is there";
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(dst[i], i);
    EXPECT_EQ(ring.pop_n(dst, 6), 0u) << "empty ring yields nothing";
    int out = -1;
    EXPECT_FALSE(ring.pop_into(out));
    EXPECT_EQ(out, -1) << "failed pop_into must not write";
}

TEST(SpscRing, TwoThreadScalarProducerBatchConsumer)
{
    SpscRing<uint64_t> ring(64);
    constexpr uint64_t kCount = 60000;

    std::thread producer([&] {
        for (uint64_t i = 0; i < kCount; ++i) {
            while (!ring.push(i))
                std::this_thread::yield();
        }
    });
    uint64_t batch[24];
    uint64_t expected = 0;
    while (expected < kCount) {
        const size_t got = ring.pop_n(batch, 24);
        if (got == 0) {
            std::this_thread::yield();
            continue;
        }
        for (size_t i = 0; i < got; ++i)
            ASSERT_EQ(batch[i], expected + i) << "FIFO order violated";
        expected += got;
    }
    producer.join();
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, PreviousLapStampReadsAsEmpty)
{
    // Capacity 2: each lap refills both slots, and once drained a slot
    // still holds the stamp of the item just taken. Every pop flavour
    // must read that stale stamp as empty, at both slot phases.
    SpscRing<int> ring(2);
    int next = 0;
    int expect = 0;
    const auto expect_empty = [&](int lap) {
        EXPECT_TRUE(ring.empty()) << "lap " << lap;
        EXPECT_FALSE(ring.pop().has_value()) << "lap " << lap;
        int out = -1;
        EXPECT_FALSE(ring.pop_into(out)) << "lap " << lap;
        EXPECT_EQ(out, -1);
        int dst[4] = {-1, -1, -1, -1};
        EXPECT_EQ(ring.pop_n(dst, 4), 0u) << "lap " << lap;
        EXPECT_EQ(dst[0], -1);
    };
    expect_empty(-1);
    for (int lap = 0; lap < 12; ++lap) {
        // Two items per lap, through push_with every third lap and
        // push otherwise, so each push flavour meets both pop phases.
        if (lap % 3 == 1) {
            ASSERT_TRUE(ring.push_with([&](int &v) { v = next++; }));
            ASSERT_TRUE(ring.push_with([&](int &v) { v = next++; }));
        } else {
            ASSERT_TRUE(ring.push(next++));
            ASSERT_TRUE(ring.push(next++));
        }
        EXPECT_FALSE(ring.push(-7)) << "full after two, lap " << lap;
        if (lap % 2 == 0) {
            EXPECT_EQ(ring.pop(), expect++);
            int out = -1;
            ASSERT_TRUE(ring.pop_into(out));
            EXPECT_EQ(out, expect++);
        } else {
            int dst[4] = {};
            ASSERT_EQ(ring.pop_n(dst, 4), 2u);
            EXPECT_EQ(dst[0], expect++);
            EXPECT_EQ(dst[1], expect++);
        }
        expect_empty(lap);
        // A half lap shifts which slot the next lap starts on.
        if (lap % 4 == 3) {
            ASSERT_TRUE(ring.push(next++));
            EXPECT_EQ(ring.pop(), expect++);
            expect_empty(lap);
        }
    }
    EXPECT_EQ(expect, next);
}

/** A 48-byte value, the size of a Request or Response, whose words all
 *  derive from one sequence number so a torn read shows. */
struct Wide
{
    uint64_t word[6];
};
static_assert(sizeof(Wide) == 48);

Wide
make_wide(uint64_t seq)
{
    Wide w;
    for (uint64_t k = 0; k < 6; ++k)
        w.word[k] = seq ^ (k * 0x9E3779B97F4A7C15ULL);
    return w;
}

class SpscRingStampStress : public ::testing::TestWithParam<size_t>
{
};

TEST_P(SpscRingStampStress, MixedOpsKeepFifoAndWholeValues)
{
    // The producer alternates push and push_with; the consumer cycles
    // pop_into and pop_n (up to 1-9). Every value must arrive once, in
    // order, with all six words from one push.
    SpscRing<Wide> ring(GetParam());
    constexpr uint64_t kCount = 1'000'000;

    std::thread producer([&] {
        uint64_t next = 0;
        for (uint64_t round = 0; next < kCount; ++round) {
            const bool pushed =
                round % 2 == 0
                    ? ring.push(make_wide(next))
                    : ring.push_with(
                          [&](Wide &slot) { slot = make_wide(next); });
            if (pushed)
                ++next;
            else
                std::this_thread::yield();
        }
    });
    const auto check = [](const Wide &w, uint64_t seq) {
        const Wide want = make_wide(seq);
        for (int k = 0; k < 6; ++k)
            if (w.word[k] != want.word[k])
                return false;
        return true;
    };
    Wide batch[9];
    uint64_t expected = 0;
    for (uint64_t round = 0; expected < kCount; ++round) {
        size_t got = 0;
        if (round % 2 == 0) {
            got = ring.pop_into(batch[0]) ? 1 : 0;
        } else {
            got = ring.pop_n(batch, 1 + round % 9);
        }
        if (got == 0) {
            std::this_thread::yield();
            continue;
        }
        for (size_t i = 0; i < got; ++i)
            ASSERT_TRUE(check(batch[i], expected + i))
                << "item " << expected + i << " torn or out of order";
        expected += got;
    }
    producer.join();
    EXPECT_TRUE(ring.empty());
}

INSTANTIATE_TEST_SUITE_P(Capacities, SpscRingStampStress,
                         ::testing::Values(1, 2, 1024));

TEST(MpmcQueue, SingleThreadFifo)
{
    MpmcQueue<int> q(4);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    EXPECT_TRUE(q.push(3));
    EXPECT_TRUE(q.push(4));
    EXPECT_FALSE(q.push(5));
    EXPECT_EQ(q.pop().value(), 1);
    EXPECT_EQ(q.pop().value(), 2);
    EXPECT_TRUE(q.push(5));
    EXPECT_EQ(q.pop().value(), 3);
    EXPECT_EQ(q.pop().value(), 4);
    EXPECT_EQ(q.pop().value(), 5);
    EXPECT_FALSE(q.pop().has_value());
}

TEST(MpmcQueue, MultiProducerMultiConsumerNoLossNoDup)
{
    constexpr int kProducers = 4;
    constexpr int kConsumers = 4;
    constexpr uint64_t kPerProducer = 20000;
    MpmcQueue<uint64_t> q(1024);
    std::atomic<uint64_t> consumed{0};
    std::vector<std::atomic<int>> seen(kProducers * kPerProducer);

    std::vector<std::thread> threads;
    for (int p = 0; p < kProducers; ++p) {
        threads.emplace_back([&, p] {
            for (uint64_t i = 0; i < kPerProducer; ++i) {
                const uint64_t v = p * kPerProducer + i;
                while (!q.push(v))
                    std::this_thread::yield();
            }
        });
    }
    for (int c = 0; c < kConsumers; ++c) {
        threads.emplace_back([&] {
            while (consumed.load() < kProducers * kPerProducer) {
                auto v = q.pop();
                if (!v) {
                    std::this_thread::yield();
                    continue;
                }
                seen[*v].fetch_add(1);
                consumed.fetch_add(1);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    for (size_t i = 0; i < seen.size(); ++i)
        ASSERT_EQ(seen[i].load(), 1) << "value " << i;
}

TEST(MpmcQueue, PerProducerOrderPreserved)
{
    // With a single consumer, each producer's values must arrive in order.
    constexpr int kProducers = 3;
    constexpr uint64_t kPerProducer = 15000;
    MpmcQueue<std::pair<int, uint64_t>> q(256);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (uint64_t i = 0; i < kPerProducer; ++i) {
                while (!q.push({p, i}))
                    std::this_thread::yield();
            }
        });
    }
    std::vector<uint64_t> next(kProducers, 0);
    uint64_t total = 0;
    while (total < kProducers * kPerProducer) {
        auto v = q.pop();
        if (!v) {
            std::this_thread::yield();
            continue;
        }
        ASSERT_EQ(v->second, next[v->first]);
        ++next[v->first];
        ++total;
    }
    for (auto &t : producers)
        t.join();
}

TEST(MpmcQueue, PopNDrainsFifoAndIsPartial)
{
    MpmcQueue<int> q(8);
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(q.push(i));
    int dst[8] = {};
    EXPECT_EQ(q.pop_n(dst, 3), 3u);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(dst[i], i);
    EXPECT_EQ(q.pop_n(dst, 8), 2u) << "only two left";
    EXPECT_EQ(dst[0], 3);
    EXPECT_EQ(dst[1], 4);
    EXPECT_EQ(q.pop_n(dst, 8), 0u) << "empty queue yields nothing";
}

TEST(MpmcQueue, PopNUnderMultiProducerLosesNothing)
{
    // Batch consumer against concurrent producers: every pushed value
    // arrives exactly once, in per-producer order (single consumer).
    constexpr int kProducers = 3;
    constexpr uint64_t kPerProducer = 15000;
    MpmcQueue<std::pair<int, uint64_t>> q(256);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (uint64_t i = 0; i < kPerProducer; ++i) {
                while (!q.push({p, i}))
                    std::this_thread::yield();
            }
        });
    }
    std::pair<int, uint64_t> batch[32];
    std::vector<uint64_t> next(kProducers, 0);
    uint64_t total = 0;
    while (total < kProducers * kPerProducer) {
        const size_t got = q.pop_n(batch, 32);
        if (got == 0) {
            std::this_thread::yield();
            continue;
        }
        for (size_t i = 0; i < got; ++i) {
            ASSERT_EQ(batch[i].second, next[batch[i].first]);
            ++next[batch[i].first];
        }
        total += got;
    }
    for (auto &t : producers)
        t.join();
    EXPECT_FALSE(q.pop().has_value());
}

/**
 * Drives an IdleBackoff with a synthetic clock that advances @p step
 * cycles per empty poll, and counts the polls that yield and the clock
 * reads the policy makes.
 */
struct IdleDriver
{
    IdleBackoff idle;
    Cycles now = 0;
    uint64_t polls = 0;
    uint64_t clock_reads = 0;

    explicit IdleDriver(Cycles budget) : idle(budget) {}

    bool
    poll(Cycles step = 1)
    {
        now += step;
        ++polls;
        return idle.should_yield([this] {
            ++clock_reads;
            return now;
        });
    }
};

TEST(IdleBackoff, NeverYieldsInsideTheBudget)
{
    constexpr Cycles kBudget = 100000;
    IdleDriver d(kBudget);
    while (d.now < kBudget)
        ASSERT_FALSE(d.poll()) << "yielded at cycle " << d.now;
    // The clock is read at most once per kIdlePollsPerClockRead polls.
    EXPECT_LE(d.clock_reads, d.polls / kIdlePollsPerClockRead);
    EXPECT_GT(d.clock_reads, 0u);
}

TEST(IdleBackoff, YieldsEveryEighthPollAfterTheBudget)
{
    constexpr Cycles kBudget = 10000;
    IdleDriver d(kBudget);
    while (!d.poll()) {
        // The budget runs from the first clock read; the switch to
        // yielding waits at most one read interval past it, plus the
        // first kIdlePollsPerYield polls of the yielding phase.
        ASSERT_LT(d.now, kIdlePollsPerClockRead + kBudget +
                             kIdlePollsPerClockRead + kIdlePollsPerYield);
    }
    EXPECT_GE(d.now, kIdlePollsPerClockRead + kBudget);
    const uint64_t reads = d.clock_reads;
    for (int round = 0; round < 100; ++round) {
        for (uint32_t i = 1; i < kIdlePollsPerYield; ++i)
            ASSERT_FALSE(d.poll()) << "round " << round << " poll " << i;
        ASSERT_TRUE(d.poll()) << "round " << round;
    }
    EXPECT_EQ(d.clock_reads, reads) << "the yielding phase reads no clock";
}

TEST(IdleBackoff, FindingWorkResetsTheBudget)
{
    constexpr Cycles kBudget = 10000;
    IdleDriver d(kBudget);
    while (!d.poll()) {
    }
    // A poll finds work; a new run of empty polls spins again for the
    // whole budget, however long the previous run went on.
    d.idle.reset();
    d.now += 1000 * kBudget;
    const Cycles run_start = d.now;
    while (d.now - run_start < kIdlePollsPerClockRead + kBudget)
        ASSERT_FALSE(d.poll()) << "yielded " << d.now - run_start
                               << " cycles into the new run";
    // A clock that jumps (the thread was descheduled) ends the spin at
    // the next read.
    d.idle.reset();
    for (uint32_t i = 1; i < kIdlePollsPerClockRead; ++i)
        ASSERT_FALSE(d.poll());
    ASSERT_FALSE(d.poll()); // first read: the budget starts here
    for (uint32_t i = 1; i < kIdlePollsPerClockRead; ++i)
        ASSERT_FALSE(d.poll());
    ASSERT_FALSE(d.poll(kBudget)); // second read sees the budget spent
    for (uint32_t i = 1; i < kIdlePollsPerYield; ++i)
        ASSERT_FALSE(d.poll());
    EXPECT_TRUE(d.poll());
}

} // namespace
} // namespace tq
