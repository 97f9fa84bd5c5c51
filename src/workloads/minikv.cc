#include "workloads/minikv.h"

#include <algorithm>
#include <cstring>
#include <new>

#include "common/check.h"
#include "probe/probe.h"

namespace tq::workloads {

namespace {

// Probe placement. The TQ pass guards a loop with a probe every
// bound / (longest path through its body) iterations
// (tq_instrument_loops in src/compiler/passes.cc), bound =
// PassConfig{}.bound = 400 instructions. MiniKV applies that rule with
// each body's instruction count read from `objdump -d` of the built
// library (GCC 12, -O2, x86-64; the untraced body, leaving out the
// probe's own instructions). One operation's loops share one budget,
// so the descent's unprobed tail counts against the scan behind it; the
// call and return between the two loops are not charged.

/** The longest probe-free stretch the budget allows, in instructions. */
constexpr int kProbeBound = 400;

/**
 * Longest find_greater_or_equal step: a level change is 17 instructions
 * (15 when the next node is null), a step right 11. A probe every
 * 400 / 17 = 23 steps: 23 x 17 = 391 <= 400.
 */
constexpr int kStepInstrs = 17;

/**
 * One scan entry with 100-byte values (the default, and every store the
 * benchmark, figures and examples build) is 95 instructions: a probe
 * every 400 / 95 = 4 entries, 4 x 95 = 380 <= 400. Each further 64
 * bytes of value adds about 39.
 */
constexpr int kEntryInstrs = 95;

/**
 * Spend @p cost instructions of the probe-free @p budget, probing first
 * when they do not fit: the pass's loop guard, counted in instructions
 * so that loops with different bodies can share it.
 */
inline void
spend(int &budget, int cost)
{
    if (budget < cost) {
        tq_probe();
        budget = kProbeBound;
    }
    budget -= cost;
}

/** Fold the 8-byte word at @p p into a SCAN checksum. */
inline void
add_word(uint64_t &checksum, const char *p)
{
    uint64_t word;
    std::memcpy(&word, p, 8);
    checksum = checksum * 31 + word;
}

} // namespace

ZipfKeyGen::ZipfKeyGen(uint64_t num_keys, double s)
    : zipf_(num_keys, s), mask_(num_keys - 1)
{
    TQ_CHECK(num_keys > 0 && (num_keys & (num_keys - 1)) == 0);
}

/**
 * Skiplist node: key, value pointer, and a variable-height tower of
 * forward pointers, allocated in one block like LevelDB/RocksDB do.
 */
struct MiniKV::Node
{
    uint64_t key;
    char *value;
    int height;
    Node *next[1]; // over-allocated to `height`

    static Node *
    make(uint64_t key, int height)
    {
        const size_t bytes =
            sizeof(Node) + sizeof(Node *) * static_cast<size_t>(height - 1);
        void *mem = ::operator new(bytes);
        Node *n = static_cast<Node *>(mem);
        n->key = key;
        n->value = nullptr;
        n->height = height;
        for (int i = 0; i < height; ++i)
            n->next[i] = nullptr;
        return n;
    }
};

MiniKV::MiniKV(uint64_t seed, size_t value_size)
    : value_size_(value_size), rng_(seed)
{
    head_ = Node::make(0, kMaxLevel);
}

MiniKV::~MiniKV()
{
    Node *n = head_;
    while (n) {
        Node *next = n->next[0];
        delete[] n->value;
        ::operator delete(n);
        n = next;
    }
}

void
MiniKV::record(const void *addr) const
{
    trace_->push_back(reinterpret_cast<uint64_t>(addr));
}

int
MiniKV::random_height()
{
    // Geometric heights with p = 1/4 (RocksDB's kBranching = 4).
    int h = 1;
    while (h < kMaxLevel && rng_.below(4) == 0)
        ++h;
    return h;
}

MiniKV::Node *
MiniKV::find_greater_or_equal(uint64_t key, Node **prev, int &budget) const
{
    Node *x = head_;
    size_t level = static_cast<size_t>(max_height_) - 1;
    // A local copy stays in a register: the stores to prev[] could alias
    // the reference.
    int left = budget;
    for (;;) {
        // Probe site, one per kProbeBound / kStepInstrs steps.
        spend(left, kStepInstrs);
        touch(x);
        Node *next = x->next[level];
        if (next && next->key < key) {
            x = next;
        } else {
            // Level change: the comparator re-reads the search key and
            // the current node is re-examined at the next level down —
            // the intra-op reuse the cache study measures.
            touch(op_state_);
            prev[level] = x;
            if (level == 0) {
                budget = left;
                return next;
            }
            --level;
        }
    }
}

void
MiniKV::put(uint64_t key, std::string_view value)
{
    Node *prev[kMaxLevel];
    for (int i = 0; i < kMaxLevel; ++i)
        prev[i] = head_;
    int budget = kProbeBound;
    Node *existing = find_greater_or_equal(key, prev, budget);
    if (existing && existing->key == key) {
        const size_t n = std::min(value.size(), value_size_);
        std::memcpy(existing->value, value.data(), n);
        return;
    }
    // prev[] above the current height already holds head_.
    Node *node = new_node(key, value);
    max_height_ = std::max(max_height_, node->height);
    for (int i = 0; i < node->height; ++i) {
        node->next[i] = prev[i]->next[i];
        prev[i]->next[i] = node;
    }
    ++size_;
}

MiniKV::Node *
MiniKV::new_node(uint64_t key, std::string_view value)
{
    Node *node = Node::make(key, random_height());
    node->value = new char[value_size_]();
    std::memcpy(node->value, value.data(),
                std::min(value.size(), value_size_));
    return node;
}

bool
MiniKV::get(uint64_t key, std::string *value_out) const
{
    Node *prev[kMaxLevel];
    int budget = kProbeBound;
    const Node *n = find_greater_or_equal(key, prev, budget);
    if (!n || n->key != key)
        return false;
    touch(n->value);
    // The copy is a library call outside the budget: the stretch from the
    // descent's last probe to this one is the rest of the budget plus a
    // value_size_-byte copy.
    if (value_out)
        value_out->assign(n->value, value_size_);
    tq_probe();
    return true;
}

size_t
MiniKV::scan(uint64_t start_key, size_t count, uint64_t *checksum_out) const
{
    Node *prev[kMaxLevel];
    int budget = kProbeBound;
    const Node *n = find_greater_or_equal(start_key, prev, budget);
    // The checksum reads every whole 8-byte word of a value.
    const size_t word_bytes = value_size_ & ~size_t{7};
    size_t visited = 0;
    uint64_t checksum = 0;
    while (n && visited < count) {
        // Probe site, one per kProbeBound / kEntryInstrs entries.
        spend(budget, kEntryInstrs);
        touch(n);
        touch(op_state_ + 64); // iterator state updated per entry
        // Aggregate over the value so the scan does real memory work
        // (every value cache line is touched).
        const char *value = n->value;
        size_t i = 0;
        for (; i + 64 <= word_bytes; i += 64) {
            touch(value + i);
            // Unrolled, a whole line costs 38 instructions instead of 73,
            // which keeps an entry within kEntryInstrs.
#pragma GCC unroll 8
            for (size_t w = 0; w < 64; w += 8)
                add_word(checksum, value + i + w);
        }
        if (i < word_bytes) {
            touch(value + i);
            for (; i < word_bytes; i += 8)
                add_word(checksum, value + i);
        }
        ++visited;
        n = n->next[0];
    }
    if (checksum_out)
        *checksum_out = checksum;
    return visited;
}

void
MiniKV::load_sequential(size_t n)
{
    // The keys arrive in ascending order, so put()'s descent would end at
    // the last node of every level: keep those in `last` and append,
    // drawing heights and allocating as put() does.
    TQ_CHECK(size_ == 0);
    Node *last[kMaxLevel];
    std::fill(std::begin(last), std::end(last), head_);
    std::string value(value_size_, 'v');
    for (size_t i = 0; i < n; ++i) {
        // Deterministic, key-dependent value bytes.
        value[0] = static_cast<char>('a' + i % 26);
        Node *node = new_node(i, value);
        max_height_ = std::max(max_height_, node->height);
        for (int l = 0; l < node->height; ++l) {
            last[l]->next[l] = node;
            last[l] = node;
        }
        ++size_;
    }
}

} // namespace tq::workloads
