/**
 * @file
 * Paper Figure 15: reuse-distance histograms of the KV store's GET and
 * SCAN operations, measured with the exact (Olken) analyzer over real
 * MiniKV access traces (the paper used the MICA Pin tool over RocksDB).
 *
 * Expected shape: both operations concentrate at small reuse distances;
 * only a few percent of accesses exceed 8KB, which is why the paper
 * finds RocksDB jobs insensitive to quantum size (section 5.5.2 reports
 * 3.7% for GET and 4.5% for SCAN above 8KB).
 */
#include <cstdio>

#include "bench_util.h"
#include "cache/reuse.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "probe/probe.h"
#include "workloads/minikv.h"

using namespace tq;
using namespace tq::cache;
using namespace tq::workloads;

namespace {

/** Aggregated intra-operation reuse statistics. */
struct IntraOpReuse
{
    uint64_t accesses = 0;
    uint64_t reuses = 0;
    uint64_t above_8k = 0;
    Histogram hist; ///< reuse distances in bytes
};

/** Figure 15 rows: power-of-two byte buckets from 64 B up to 4 MB. */
constexpr int kFirstRowBucket = 6; // 64 B: one line
constexpr int kRows = 16;

/**
 * The paper studies *intra-job* locality (section 5.5.1): reuse
 * distances within one operation, since those are what preemptions
 * disturb. Analyze each GET/SCAN in its own window and aggregate.
 */
void
analyze(MiniKV &kv, bool scan, int ops, uint64_t seed, IntraOpReuse &agg)
{
    Rng rng(seed);
    uint64_t checksum = 0;
    for (int i = 0; i < ops; ++i) {
        std::vector<uint64_t> trace;
        kv.set_trace(&trace);
        if (scan) {
            kv.scan(rng.below(kv.size()), 2000, &checksum);
        } else {
            std::string v;
            kv.get(rng.below(kv.size()), &v);
        }
        kv.set_trace(nullptr);
        ReuseAnalyzer analyzer;
        for (uint64_t addr : trace)
            analyzer.access(addr);
        agg.accesses += analyzer.accesses();
        for (uint64_t d : analyzer.distances()) {
            ++agg.reuses;
            agg.hist.add(d << 6);
            agg.above_8k += (d << 6) > 8 * 1024;
        }
    }
}

/**
 * Cross-op reuse under a key distribution: one analyzer over the
 * concatenated GET traces. Key skew only matters *across* operations —
 * a hot key's path is re-walked by later GETs at short distance — so
 * this is where the Zipfian mix (workloads::ZipfKeyGen) moves the
 * histogram, while the paper's intra-op histograms above are
 * key-distribution-invariant by construction.
 */
void
analyze_cross_op(MiniKV &kv, const workloads::ZipfKeyGen &gen, int ops,
                 uint64_t seed, IntraOpReuse &agg)
{
    Rng rng(seed);
    ReuseAnalyzer analyzer;
    std::vector<uint64_t> trace;
    kv.set_trace(&trace);
    for (int i = 0; i < ops; ++i) {
        std::string v;
        kv.get(gen.sample_key(rng), &v);
    }
    kv.set_trace(nullptr);
    for (uint64_t addr : trace)
        analyzer.access(addr);
    agg.accesses = analyzer.accesses();
    for (uint64_t d : analyzer.distances()) {
        ++agg.reuses;
        agg.hist.add(d << 6);
        agg.above_8k += (d << 6) > 8 * 1024;
    }
}

void
report(const char *name, const IntraOpReuse &a)
{
    std::printf("## %s: %llu accesses, %llu intra-op reuses\n", name,
                static_cast<unsigned long long>(a.accesses),
                static_cast<unsigned long long>(a.reuses));
    // "lo - hi: count (pct)" per row, plus a 0 - 64 row for zero
    // distances and an open-ended row past 4 MB when either is non-empty.
    const uint64_t total = a.hist.count();
    const auto row = [total](uint64_t lo, uint64_t hi, uint64_t count) {
        const double pct = total ? 100.0 * static_cast<double>(count) /
                                       static_cast<double>(total)
                                 : 0.0;
        std::printf("%12llu - %12llu: %10llu (%5.1f%%)\n",
                    static_cast<unsigned long long>(lo),
                    static_cast<unsigned long long>(hi),
                    static_cast<unsigned long long>(count), pct);
    };
    const auto count_in = [&a](int from, int to) {
        uint64_t n = 0;
        for (int i = from; i < to; ++i)
            n += a.hist.bucket_count(i);
        return n;
    };
    constexpr int kEnd = kFirstRowBucket + kRows;
    if (const uint64_t below = count_in(0, kFirstRowBucket))
        row(0, uint64_t{1} << kFirstRowBucket, below);
    for (int i = kFirstRowBucket; i < kEnd; ++i)
        row(uint64_t{1} << i, uint64_t{1} << (i + 1), a.hist.bucket_count(i));
    if (const uint64_t above = count_in(kEnd, Histogram::kBuckets))
        row(uint64_t{1} << kEnd, ~0ULL, above);
    std::printf("accesses with intra-op reuse distance > 8KB: %.1f%% "
                "(paper: GET 3.7%%, SCAN 4.5%%)\n",
                100.0 * static_cast<double>(a.above_8k) /
                    static_cast<double>(a.accesses));
}

} // namespace

int
main()
{
    bench::banner("Figure 15",
                  "reuse-distance histograms of MiniKV GET and SCAN "
                  "(bytes, power-of-two buckets)");
    disarm_quantum();
    MiniKV kv(1, 100);
    kv.load_sequential(100'000);

    IntraOpReuse get, scan;
    analyze(kv, false, 400, 7, get);
    report("GET", get);
    analyze(kv, true, 3, 8, scan);
    report("SCAN", scan);

    // ROADMAP "Zipfian mix" leftover: the cross-op view, where hot-key
    // skew compresses reuse distances (uniform keys barely reuse across
    // GETs; Zipf hot keys re-walk the same skiplist path).
    const workloads::ZipfKeyGen uniform_keys(1 << 16, 0.0);
    const workloads::ZipfKeyGen zipf_keys(1 << 16, 0.99);
    IntraOpReuse cross_uniform, cross_zipf;
    analyze_cross_op(kv, uniform_keys, 400, 9, cross_uniform);
    analyze_cross_op(kv, zipf_keys, 400, 9, cross_zipf);
    report("GET cross-op, uniform keys", cross_uniform);
    report("GET cross-op, Zipf(0.99) keys", cross_zipf);
    return 0;
}
