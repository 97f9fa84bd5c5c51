/**
 * @file
 * MiniKV — an in-memory ordered key-value store standing in for the
 * paper's RocksDB instance (sections 5.1, 5.5.2).
 *
 * A skiplist memtable (RocksDB's default) with the two operations the
 * paper's workload issues: GET (point lookup, ~1us class) and SCAN
 * (long range iteration, ~hundreds-of-us class). Both operations are
 * instrumented with TQ probes by the paper's compiler pass's rule: a
 * loop probes once every bound / (instructions of its body) iterations,
 * with the count read from `objdump -d` of the built library and bound =
 * `PassConfig{}.bound` (400 instructions); a descent step counts 17, a
 * SCAN entry 95. One operation's descent and scan share one budget, so
 * the descent's unprobed tail counts against the scan's first entries
 * (the few instructions of call and return between them are not
 * charged); GET's value copy runs after the descent's budget, before
 * GET's own probe. MiniKV jobs are therefore preemptable under forced
 * multitasking and pay no denser probing than the pass imposes.
 *
 * For the reuse-distance study (Figure 15), an optional trace hook
 * records the address of every node and value touched. With no trace
 * installed the hook costs one predictable branch per access.
 */
#ifndef TQ_WORKLOADS_MINIKV_H
#define TQ_WORKLOADS_MINIKV_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/zipf.h"

namespace tq::workloads {

/**
 * Zipfian hot-key generator for MiniKV request streams (the paper's
 * skewed YCSB-style point-lookup mix).
 *
 * Zipf ranks are popularity order, but a store loaded with sequential
 * keys would then concentrate all hot keys in one skiplist region —
 * unrealistically cache-friendly. The generator therefore scatters
 * ranks over the keyspace with a fixed odd-multiplier hash (a bijection
 * on [0, n) for power-of-two n), so the hot set is spread across the
 * structure while each rank still maps to one stable key.
 */
class ZipfKeyGen
{
  public:
    /**
     * @param num_keys keyspace size; must be a power of two (the rank
     *     scramble is only bijective then).
     * @param s Zipf skew (s = 0 uniform; s ~ 0.99 is the YCSB default).
     */
    ZipfKeyGen(uint64_t num_keys, double s);

    /** Sample a key in [0, num_keys): Zipf rank, then scrambled. */
    uint64_t
    sample_key(Rng &rng) const
    {
        return scramble(zipf_.sample(rng));
    }

    /** The stable key rank @p rank maps to (rank 0 is hottest). */
    uint64_t
    scramble(uint64_t rank) const
    {
        return (rank * kMult) & mask_;
    }

    uint64_t num_keys() const { return zipf_.n(); }
    const Zipf &dist() const { return zipf_; }

  private:
    /** Odd multiplier (from splitmix64's mixer): odd => invertible
     *  mod 2^k, so ranks map 1:1 onto the keyspace. */
    static constexpr uint64_t kMult = 0xbf58476d1ce4e5b9ULL;

    Zipf zipf_;
    uint64_t mask_;
};

/** Ordered in-memory KV store with probed GET/SCAN operations. */
class MiniKV
{
  public:
    static constexpr int kMaxLevel = 16;

    /**
     * @param seed randomness for skiplist tower heights.
     * @param value_size bytes stored per value.
     */
    explicit MiniKV(uint64_t seed = 1, size_t value_size = 100);
    ~MiniKV();

    MiniKV(const MiniKV &) = delete;
    MiniKV &operator=(const MiniKV &) = delete;

    /** Insert or overwrite @p key. Not probed (loading is offline). */
    void put(uint64_t key, std::string_view value);

    /**
     * Point lookup (the paper's ~1.2us GET class at RocksDB scale).
     * Probed: safe to run inside a TQ task coroutine.
     * @return true and fills @p value_out when the key exists.
     */
    bool get(uint64_t key, std::string *value_out) const;

    /**
     * Range scan of up to @p count entries starting at the first key
     * >= @p start_key (the paper's ~675us SCAN class). Probed.
     * @return number of entries visited; @p checksum_out accumulates a
     *     value checksum so the work cannot be optimized away.
     */
    size_t scan(uint64_t start_key, size_t count,
                uint64_t *checksum_out) const;

    size_t size() const { return size_; }

    /**
     * Install a memory-access trace sink: every node/value byte-range
     * touched by subsequent get/scan calls appends its address. Pass
     * nullptr to disable. Not thread-safe with concurrent operations.
     */
    void set_trace(std::vector<uint64_t> *sink) { trace_ = sink; }

    /**
     * Bulk-load @p n keys 0..n-1 with deterministic values into an empty
     * store. Each node is appended behind the last node of every level
     * it joins (O(n)); the skiplist, its tower heights and its
     * allocation order are those of put()ing the keys in order.
     */
    void load_sequential(size_t n);

  private:
    struct Node;

    /** First node with key >= @p key; fills @p prev[0, max_height_)
     *  with the last node before it on each level. Probed: each step
     *  spends from @p budget, the instructions left before the next
     *  probe is due. */
    Node *find_greater_or_equal(uint64_t key, Node **prev,
                                int &budget) const;
    int random_height();

    /** An unlinked node for @p key holding @p value, with a freshly drawn
     *  tower height. */
    Node *new_node(uint64_t key, std::string_view value);

    /** Trace hook: records @p addr when a trace is installed. */
    void
    touch(const void *addr) const
    {
        if (__builtin_expect(trace_ != nullptr, 0))
            record(addr);
    }

    /** Out-of-line traced path of touch(). */
    [[gnu::cold, gnu::noinline]] void record(const void *addr) const;

    Node *head_;
    size_t value_size_;
    /** Per-operation state (search key, iterator position) that real
     *  store code re-touches throughout an operation — the source of
     *  intra-op locality the reuse study measures (paper section 5.5). */
    mutable char op_state_[128] = {};
    size_t size_ = 0;
    int max_height_ = 1;
    mutable Rng rng_;
    std::vector<uint64_t> *trace_ = nullptr;
};

} // namespace tq::workloads

#endif // TQ_WORKLOADS_MINIKV_H
