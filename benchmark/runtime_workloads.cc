/**
 * @file
 * The three runtime workloads: the benchmark's own open-loop generator,
 * the closed loop of rpc_tiny, output checks, windowed statistics and
 * the traced run's per-request stamps.
 *
 * The generator draws the whole schedule and every payload from the
 * seed before the runtime starts, preallocates one record per request,
 * and times each request from its due time, so a generator stall shows
 * up as latency of the requests it delayed (and as client.gen_lag_*).
 */
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/cycles.h"
#include "common/rng.h"
#include "runtime/runtime.h"
#include "telemetry/telemetry.h"
#include "workloads.h"
#include "workloads/minikv.h"
#include "workloads/spin.h"

namespace tqbench {

namespace {

using tq::Cycles;
using tq::rdcycles;
using tq::runtime::Request;
using tq::runtime::Response;
using tq::runtime::WorkPolicy;
using tq::workloads::MiniKV;

/** Request-id spaces: open-loop ids are schedule indexes. */
constexpr uint64_t kClosedBit = 1ULL << 62;
constexpr uint64_t kWarmBit = 1ULL << 61;

/** Statistics are taken over windows of this many ns of due time. */
constexpr double kWindowNs = 50e6;
/** Share of each phase dropped before any statistic (warm-up). */
constexpr double kWarmShare = 0.1;
constexpr uint64_t kKeys = 1 << 16;
constexpr size_t kScanLen = 2000;
constexpr uint64_t kDemandMask = 0xffffffffULL;
constexpr size_t kMinWindowSamples = 1000;
constexpr double kDrainTimeoutS = 2.0;
/** Every this-many-th SCAN is recomputed single-threaded. */
constexpr uint64_t kScanCheckEvery = 16;
/** Chrome trace: every this-many-th request, plus tail requests. */
constexpr uint64_t kTraceEvery = 1000;
constexpr size_t kTraceTailCap = 2000;

enum class Kind { RpcTiny, ExtremeBimodal, KvZipfLas };

/** One runtime workload's shape (README.md "Workloads"). */
struct Spec
{
    Kind kind;
    double rate_mrps;   ///< open-loop Poisson rate
    double open_share;  ///< share of the run spent in the open loop
    int closed_k;       ///< closed-loop outstanding requests (0: none)
    WorkPolicy work;
    std::vector<double> class_quantum_us;
};

Spec
spec_of(const std::string &name)
{
    if (name == "rpc_tiny")
        return {Kind::RpcTiny, 0.4, 0.6, 256,
                WorkPolicy::ProcessorSharing, {}};
    if (name == "extreme_bimodal")
        return {Kind::ExtremeBimodal, 0.3, 1.0, 0,
                WorkPolicy::ProcessorSharing, {}};
    TQ_CHECK(name == "kv_zipf_las");
    return {Kind::KvZipfLas, 0.3, 1.0, 0, WorkPolicy::Las, {2.0, 5.0}};
}

/** Cycle offset of @p at after @p due, saturating (0 if earlier). */
uint32_t
offset(Cycles at, Cycles due)
{
    if (at <= due)
        return 0;
    const Cycles d = at - due;
    return d > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(d);
}

int64_t
steady_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Per-request stamps of a traced run, as cycle offsets from the
 * request's due time: submit begin/end, dispatcher arrival, handler
 * enter/exit, worker done, client drain. Consecutive stamps bound the
 * contiguous spans gen_lag, submit, rx_wait, queue, handler,
 * exit_to_done and tx_wait, which add up to the end-to-end latency.
 */
struct Stamps
{
    explicit Stamps(size_t n)
        : sb(n), se(n), ar(n), en(n), ex(n), dn(n), dr(n), steady_sb(n),
          residual_ns(n)
    {
    }
    std::vector<uint32_t> sb, se, ar, en, ex, dn, dr;
    /** steady_clock ns at submit begin: the independent e2e clock. */
    std::vector<int64_t> steady_sb;
    /** e2e by steady_clock minus the sum of the spans (see README). */
    std::vector<float> residual_ns;
};

/** State the handler reads; set before each Runtime is constructed. */
struct HandlerEnv
{
    Kind kind = Kind::RpcTiny;
    Stamps *stamps = nullptr;
    uint64_t traced_ids = 0; ///< open-loop ids [0, traced_ids) stamped
    std::vector<std::unique_ptr<MiniKV>> stores; ///< one per worker
    std::atomic<size_t> next_store{0};
};

HandlerEnv g_env;
thread_local MiniKV *t_store = nullptr;

uint64_t
expected_get(uint64_t key)
{
    return key ^ static_cast<uint64_t>('a' + key % 26);
}

/** GET returns key ^ first value byte; SCAN returns its checksum. */
uint64_t
kv_op(const MiniKV &kv, int job_class, uint64_t payload)
{
    if (job_class == 0) {
        // One string per call, as minikv.get_ns times it: MiniKV::get
        // probes after copying the value, so a GET can be preempted
        // there and a buffer shared by the worker's GETs overwritten.
        std::string value;
        if (!kv.get(payload, &value))
            return ~0ULL;
        return payload ^ static_cast<uint8_t>(value[0]);
    }
    uint64_t checksum = 0;
    const size_t visited = kv.scan(payload, kScanLen, &checksum);
    return visited == kScanLen ? checksum : ~0ULL;
}

uint64_t
handle(const Request &req)
{
    Stamps *st = g_env.stamps;
    const bool traced = st != nullptr && req.id < g_env.traced_ids;
    if (traced)
        st->en[req.id] = offset(rdcycles(), req.gen_cycles);
    uint64_t result;
    if (g_env.kind == Kind::KvZipfLas) {
        // Each worker thread claims its own store on its first request,
        // so each worker's working set stays in its own core's caches.
        if (t_store == nullptr) {
            const size_t i = g_env.next_store.fetch_add(1);
            TQ_CHECK(i < g_env.stores.size());
            t_store = g_env.stores[i].get();
        }
        result = kv_op(*t_store, req.job_class, req.payload);
    } else {
        tq::workloads::spin_for(
            static_cast<double>(req.payload & kDemandMask));
        result = req.id ^ req.payload;
    }
    if (traced)
        st->ex[req.id] = offset(rdcycles(), req.gen_cycles);
    return result;
}

std::unique_ptr<MiniKV>
loaded_store()
{
    auto kv = std::make_unique<MiniKV>(7, 100);
    kv->load_sequential(kKeys);
    return kv;
}

/** The open-loop schedule, drawn from the seed before start(). */
struct Schedule
{
    std::vector<uint64_t> due_ns;
    std::vector<uint64_t> payload;
    std::vector<uint8_t> cls;
    double phase_ns = 0;
};

Schedule
make_schedule(const Spec &spec, uint64_t seed, double phase_s)
{
    Schedule s;
    s.phase_ns = phase_s * 1e9;
    tq::Rng rng(seed);
    const tq::workloads::ZipfKeyGen keys(kKeys, 0.99);
    const double gap_ns = 1e3 / spec.rate_mrps;
    const size_t expect =
        static_cast<size_t>(s.phase_ns / gap_ns * 1.02) + 1024;
    s.due_ns.reserve(expect);
    s.payload.reserve(expect);
    s.cls.reserve(expect);
    for (double t = rng.exponential(gap_ns); t < s.phase_ns;
         t += rng.exponential(gap_ns)) {
        s.due_ns.push_back(static_cast<uint64_t>(t));
        const uint64_t tag = rng() & ~kDemandMask;
        switch (spec.kind) {
          case Kind::RpcTiny:
            s.cls.push_back(0);
            s.payload.push_back(tag | 1000);
            break;
          case Kind::ExtremeBimodal: {
            const bool long_job = rng.bernoulli(0.005);
            s.cls.push_back(long_job ? 1 : 0);
            s.payload.push_back(tag | (long_job ? 500000 : 500));
            break;
          }
          case Kind::KvZipfLas: {
            const bool scan = rng.bernoulli(0.005);
            s.cls.push_back(scan ? 1 : 0);
            s.payload.push_back(scan ? rng.below(kKeys - kScanLen + 1)
                                     : keys.sample_key(rng));
            break;
          }
        }
    }
    return s;
}

enum : uint8_t { kPending = 0, kSubmitted, kDone, kRefused };

/** One run of one runtime workload (set-ups, phases, analysis). */
class RuntimeBench
{
  public:
    RuntimeBench(const std::string &name, uint64_t seed, double seconds,
                 bool traced, double get_ns)
        : spec_(spec_of(name)), seed_(seed), seconds_(seconds),
          traced_(traced), get_ns_(get_ns), cpn_(tq::cycles_per_ns())
    {
    }

    Result run(int setups, const std::string &trace_path);

  private:
    void setup();
    void teardown();
    void warm_up();
    void open_phase();
    void closed_phase(double seconds);
    void submit_closed(size_t k, Cycles now);
    size_t collect();
    void process(const Response &r, Cycles t, int64_t steady);
    void closed_response(const Response &r, Cycles t);
    bool wait_for(const std::function<bool()> &done);
    void analyze();
    void analyze_layers();
    void check_scans();
    void write_trace(const std::string &path) const;

    Cycles
    due_of(uint64_t id) const
    {
        return open_start_ +
               static_cast<Cycles>(static_cast<double>(sched_.due_ns[id]) *
                                   cpn_);
    }

    const Spec spec_;
    const uint64_t seed_;
    const double seconds_;
    const bool traced_;
    const double get_ns_;
    const double cpn_;

    Schedule sched_;
    std::vector<float> lat_ns_;    ///< due -> drained, per open-loop id
    std::vector<uint8_t> state_;
    std::unique_ptr<Stamps> stamps_;
    std::unique_ptr<MiniKV> ref_store_; ///< single-thread SCAN checks
    std::unique_ptr<tq::runtime::Runtime> rt_;
    std::vector<Response> resp_;
    Result res_;

    Cycles open_start_ = 0;
    std::vector<uint32_t> done_per_window_; ///< open loop, by drain time
    uint64_t open_done_ = 0;
    uint64_t open_submitted_ = 0;
    uint64_t submit_retries_ = 0;
    Cycles max_lag_ = 0;
    std::vector<std::pair<uint64_t, uint64_t>> scans_; ///< (start, result)
    uint64_t scans_seen_ = 0;

    // Closed loop: K clients, each with exactly one request out.
    std::vector<uint64_t> closed_seq_;
    std::vector<uint64_t> closed_payload_;
    std::vector<bool> closed_out_;
    std::vector<uint64_t> payload_pool_;
    bool closed_running_ = false;
    uint64_t closed_outstanding_ = 0;
    Cycles closed_start_ = 0, closed_warm_end_ = 0;
    int64_t closed_window_ = -1;
    std::vector<float> closed_buf_;
    std::vector<double> closed_p50_, closed_kops_;

    uint64_t warm_out_ = 0;
    uint64_t drains_ = 0, drained_ = 0;
    std::vector<float> window_p99_; ///< primary class, per due window
};

Result
RuntimeBench::run(int setups, const std::string &trace_path)
{
    std::vector<double> setup_s;
    for (int i = 0; i < setups; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        setup();
        setup_s.push_back(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
        if (i + 1 < setups)
            teardown();
    }

    open_phase();
    if (spec_.closed_k > 0)
        closed_phase(seconds_ * (1.0 - spec_.open_share));

    const tq::telemetry::MetricsSnapshot snap = rt_->telemetry_snapshot();
    if (!rt_->drain(kDrainTimeoutS))
        res_.fail("runtime drain abandoned or dropped work");
    if (spec_.kind == Kind::KvZipfLas)
        check_scans();

    analyze();
    res_.metric("setup_s", median(setup_s), "s", setup_s.size());
    if (traced_) {
        analyze_layers();
        res_.layer("runtime.dispatch.batch_mean", snap.mean_dispatch_batch,
                   "count", snap.dispatch_batches);
        res_.layer("runtime.worker.preemptions_per_job",
                   snap.finished ? static_cast<double>(snap.yields) /
                                       static_cast<double>(snap.finished)
                                 : 0,
                   "count", snap.finished);
        res_.layer("runtime.worker.starvation_promotions",
                   static_cast<double>(snap.starvation_promotions), "count",
                   snap.finished);
        for (size_t c = 0; c < 2; ++c) {
            const uint64_t grants =
                c < snap.per_class.size() ? snap.per_class[c].grants : 0;
            res_.layer("runtime.worker.class_grants.c" + std::to_string(c),
                       static_cast<double>(grants), "count", grants);
        }
        res_.diagnostic("runtime.worker.preempt_overrun.mean_ns",
                        snap.preempt.mean_ns, "ns", snap.preempt.count);
        if (!trace_path.empty())
            write_trace(trace_path);
    }
    teardown();
    return res_;
}

void
RuntimeBench::setup()
{
    const double open_s = seconds_ * spec_.open_share;
    sched_ = make_schedule(spec_, seed_, open_s);
    const size_t n = sched_.due_ns.size();
    lat_ns_.assign(n, 0);
    state_.assign(n, kPending);
    done_per_window_.assign(
        static_cast<size_t>(sched_.phase_ns / kWindowNs) + 2, 0);
    stamps_.reset();
    if (traced_)
        stamps_ = std::make_unique<Stamps>(n);
    tq::Rng pool_rng(seed_ ^ 0x5bd1e995ULL);
    payload_pool_.resize(4096);
    for (uint64_t &p : payload_pool_)
        p = pool_rng() & ~kDemandMask; // zero-work closed-loop requests

    g_env.kind = spec_.kind;
    g_env.stamps = stamps_.get();
    g_env.traced_ids = traced_ ? n : 0;
    g_env.stores.clear();
    g_env.next_store = 0;
    if (spec_.kind == Kind::KvZipfLas) {
        for (int w = 0; w < 2; ++w)
            g_env.stores.push_back(loaded_store());
        ref_store_ = loaded_store();
    }

    tq::runtime::RuntimeConfig cfg;
    cfg.num_workers = 2;
    cfg.quantum_us = 2.0;
    cfg.work = spec_.work;
    cfg.class_quantum_us = spec_.class_quantum_us;
    cfg.seed = seed_;
    rt_ = std::make_unique<tq::runtime::Runtime>(cfg, handle);
    rt_->start();
    pin_threads();
    resp_.reserve(1 << 15);
    warm_up();
}

void
RuntimeBench::teardown()
{
    if (rt_)
        rt_->stop();
    rt_.reset();
    g_env.stamps = nullptr;
    g_env.stores.clear();
}

bool
RuntimeBench::wait_for(const std::function<bool()> &done)
{
    const Cycles limit =
        rdcycles() + static_cast<Cycles>(kDrainTimeoutS * 1e9 * cpn_);
    while (!done()) {
        if (rdcycles() > limit)
            return false;
        collect();
    }
    return true;
}

void
RuntimeBench::warm_up()
{
    // Bursts build queues on both workers (JSQ ties at idle would send
    // everything to worker 0), so both threads start and, for MiniKV,
    // each claims and touches its whole store before timing.
    const bool kv = spec_.kind == Kind::KvZipfLas;
    const uint64_t total = kv ? kKeys : 8192;
    constexpr uint64_t kBurst = 4096;
    for (uint64_t base = 0; base < total; base += kBurst) {
        for (uint64_t i = base; i < base + kBurst && i < total; ++i) {
            Request req;
            req.id = kWarmBit | i;
            req.payload = kv ? i : 0;
            req.gen_cycles = rdcycles();
            ++res_.attempted;
            if (rt_->submit(req))
                ++warm_out_;
            else
                res_.fail("warm-up request refused");
        }
        if (!wait_for([&] { return warm_out_ == 0; }))
            res_.fail("warm-up requests timed out", warm_out_);
    }
}

size_t
RuntimeBench::collect()
{
    resp_.clear();
    const size_t got = rt_->drain_responses(resp_);
    if (got == 0)
        return 0;
    const Cycles t = rdcycles();
    const int64_t steady = stamps_ ? steady_ns() : 0;
    ++drains_;
    drained_ += got;
    for (const Response &r : resp_)
        process(r, t, steady);
    return got;
}

void
RuntimeBench::process(const Response &r, Cycles t, int64_t steady)
{
    const uint64_t id = r.id;
    if (id & kWarmBit) {
        const uint64_t i = id & ~kWarmBit;
        const uint64_t want =
            spec_.kind == Kind::KvZipfLas ? expected_get(i) : id;
        if (r.result != want)
            res_.fail("wrong warm-up result");
        --warm_out_;
        return;
    }
    if (id & kClosedBit) {
        closed_response(r, t);
        return;
    }
    if (id >= state_.size() || state_[id] != kSubmitted) {
        res_.fail("duplicate or unknown response");
        return;
    }
    state_[id] = kDone;
    ++open_done_;
    const Cycles due = r.gen_cycles;
    lat_ns_[id] = static_cast<float>(static_cast<double>(t - due) / cpn_);
    const size_t w = static_cast<size_t>(
        static_cast<double>(t - open_start_) / cpn_ / kWindowNs);
    if (w < done_per_window_.size())
        ++done_per_window_[w];

    const uint64_t payload = sched_.payload[id];
    if (spec_.kind != Kind::KvZipfLas) {
        if (r.result != (id ^ payload))
            res_.fail("wrong spin result");
    } else if (sched_.cls[id] == 0) {
        if (r.result != expected_get(payload))
            res_.fail("GET key missing or wrong value");
    } else if (r.result == ~0ULL) {
        res_.fail("SCAN visited too few entries");
    } else if (scans_seen_++ % kScanCheckEvery == 0) {
        scans_.emplace_back(payload, r.result);
    }

    if (stamps_) {
        Stamps &st = *stamps_;
        st.ar[id] = offset(r.arrival_cycles, due);
        st.dn[id] = offset(r.done_cycles, due);
        st.dr[id] = offset(t, due);
        // Independent end-to-end: generator lag by the cycle clock,
        // submit -> drain by steady_clock. Minus the spans (each
        // clamped at 0, so disordered stamps show up here).
        const uint32_t s[8] = {0,        st.sb[id], st.se[id], st.ar[id],
                               st.en[id], st.ex[id], st.dn[id], st.dr[id]};
        double spans = 0;
        for (int k = 1; k < 8; ++k)
            spans += s[k] > s[k - 1] ? s[k] - s[k - 1] : 0;
        const double e2e = st.sb[id] / cpn_ +
                           static_cast<double>(steady - st.steady_sb[id]);
        st.residual_ns[id] = static_cast<float>(e2e - spans / cpn_);
    }
}

void
RuntimeBench::open_phase()
{
    const size_t n = sched_.due_ns.size();
    drains_ = drained_ = 0; // count the timed phases only
    open_start_ = rdcycles();
    for (size_t i = 0; i < n;) {
        const Cycles due = due_of(i);
        const Cycles now = rdcycles();
        if (now < due) {
            collect();
            continue;
        }
        Request req;
        req.id = i;
        req.gen_cycles = due;
        req.job_class = sched_.cls[i];
        req.payload = sched_.payload[i];
        if (stamps_) {
            stamps_->sb[i] = offset(now, due);
            stamps_->steady_sb[i] = steady_ns();
        }
        if (now - due > max_lag_)
            max_lag_ = now - due;
        // A full RX queue is backpressure, not a verdict: after a host
        // stall of the client the catch-up burst can briefly exceed it.
        // Keep collecting and retrying (the wait counts as latency);
        // only a queue that stays full for the drain timeout refuses.
        bool ok = rt_->submit(req);
        if (!ok) {
            ++submit_retries_;
            ok = wait_for([&] { return rt_->submit(req); });
        }
        if (stamps_)
            stamps_->se[i] = offset(rdcycles(), due);
        ++res_.attempted;
        if (ok) {
            state_[i] = kSubmitted;
            ++open_submitted_;
        } else {
            state_[i] = kRefused;
            res_.fail("open-loop request refused (RX full for 2 s)");
        }
        ++i;
    }
    const Cycles end =
        open_start_ + static_cast<Cycles>(sched_.phase_ns * cpn_);
    while (rdcycles() < end)
        collect();
    if (!wait_for([&] { return open_done_ == open_submitted_; }))
        res_.fail("open-loop requests timed out",
                  open_submitted_ - open_done_);
}

void
RuntimeBench::submit_closed(size_t k, Cycles now)
{
    Request req;
    req.id = kClosedBit | (static_cast<uint64_t>(k) << 32) | closed_seq_[k];
    req.payload =
        payload_pool_[(closed_seq_[k] * 7919 + k) % payload_pool_.size()];
    req.gen_cycles = now;
    ++res_.attempted;
    if (!rt_->submit(req)) {
        res_.fail("closed-loop request refused");
        return;
    }
    closed_payload_[k] = req.payload;
    closed_out_[k] = true;
    ++closed_outstanding_;
}

void
RuntimeBench::closed_response(const Response &r, Cycles t)
{
    const size_t k = static_cast<size_t>((r.id >> 32) & 0xffff);
    const uint64_t seq = r.id & 0xffffffffULL;
    if (k >= closed_out_.size() || !closed_out_[k] ||
        seq != closed_seq_[k]) {
        res_.fail("duplicate or unknown closed-loop response");
        return;
    }
    closed_out_[k] = false;
    --closed_outstanding_;
    if (r.result != (r.id ^ closed_payload_[k]))
        res_.fail("wrong closed-loop result");

    // Windows by drain time; finish a window when the next one starts.
    const int64_t w = static_cast<int64_t>(
        static_cast<double>(t - closed_start_) / cpn_ / kWindowNs);
    if (w != closed_window_) {
        const double wstart_ns =
            static_cast<double>(closed_window_) * kWindowNs;
        if (closed_window_ >= 0 &&
            wstart_ns * cpn_ >=
                static_cast<double>(closed_warm_end_ - closed_start_) &&
            closed_buf_.size() >= kMinWindowSamples) {
            closed_kops_.push_back(static_cast<double>(closed_buf_.size()) /
                                   (kWindowNs / 1e9) / 1e3);
            closed_p50_.push_back(quantile(closed_buf_, 0.5) / 1e3);
        }
        closed_buf_.clear();
        closed_window_ = w;
    }
    closed_buf_.push_back(
        static_cast<float>(static_cast<double>(t - r.gen_cycles) / cpn_));

    ++closed_seq_[k];
    if (closed_running_)
        submit_closed(k, t);
}

void
RuntimeBench::closed_phase(double seconds)
{
    const size_t K = static_cast<size_t>(spec_.closed_k);
    closed_seq_.assign(K, 0);
    closed_payload_.assign(K, 0);
    closed_out_.assign(K, false);
    closed_buf_.reserve(1 << 20);
    closed_start_ = rdcycles();
    closed_warm_end_ =
        closed_start_ + static_cast<Cycles>(kWarmShare * seconds * 1e9 * cpn_);
    const Cycles end =
        closed_start_ + static_cast<Cycles>(seconds * 1e9 * cpn_);
    closed_running_ = true;
    for (size_t k = 0; k < K; ++k)
        submit_closed(k, closed_start_);
    while (rdcycles() < end)
        collect();
    closed_running_ = false;
    if (!wait_for([&] { return closed_outstanding_ == 0; }))
        res_.fail("closed-loop requests timed out", closed_outstanding_);
}

void
RuntimeBench::check_scans()
{
    for (const auto &[start, result] : scans_) {
        uint64_t checksum = 0;
        ref_store_->scan(start, kScanLen, &checksum);
        if (checksum != result)
            res_.fail("SCAN checksum differs from single-threaded recompute");
    }
    res_.diagnostic("scan_checks", static_cast<double>(scans_.size()),
                    "count", scans_.size());
}

void
RuntimeBench::analyze()
{
    const size_t n = sched_.due_ns.size();
    const double warm_ns = kWarmShare * sched_.phase_ns;
    const size_t nwin = static_cast<size_t>(sched_.phase_ns / kWindowNs) + 1;
    window_p99_.assign(nwin, 0);

    // Primary class (0): per-window p50/p90/p99 over due-time windows.
    // The gated tail is p90: the window p99 swung by 20-46 % between
    // runs on the reference host (README.md), so it is printed only.
    std::vector<double> p50s, p90s, p99s;
    std::vector<float> buf;
    uint64_t windowed = 0;
    std::vector<std::vector<float>> whole(2);
    size_t i = 0;
    while (i < n) {
        const size_t w =
            static_cast<size_t>(static_cast<double>(sched_.due_ns[i]) /
                                kWindowNs);
        buf.clear();
        for (; i < n && static_cast<size_t>(static_cast<double>(
                            sched_.due_ns[i]) / kWindowNs) == w;
             ++i) {
            if (state_[i] != kDone ||
                static_cast<double>(sched_.due_ns[i]) < warm_ns)
                continue;
            whole[sched_.cls[i]].push_back(lat_ns_[i]);
            if (sched_.cls[i] == 0)
                buf.push_back(lat_ns_[i]);
        }
        if (buf.size() < kMinWindowSamples)
            continue;
        p50s.push_back(quantile(buf, 0.5) / 1e3);
        p90s.push_back(quantile(buf, 0.9) / 1e3);
        window_p99_[w] = static_cast<float>(quantile(buf, 0.99));
        p99s.push_back(window_p99_[w] / 1e3);
        windowed += buf.size();
    }
    res_.metric("lat_p50_us", median(p50s), "us", windowed);
    res_.metric("lat_p90_us", median(p90s), "us", windowed);
    res_.diagnostic("wmed_p99_us", median(p99s), "us", windowed);
    res_.diagnostic("windows", static_cast<double>(p50s.size()), "count",
                    p50s.size());

    if (spec_.closed_k > 0) {
        res_.metric("heavy_p50_us", median(closed_p50_), "us",
                    closed_p50_.size());
        res_.metric("throughput_kops", median(closed_kops_), "kop/s",
                    closed_kops_.size());
    } else {
        std::vector<float> heavy = whole[1];
        res_.metric("heavy_p50_us", quantile(heavy, 0.5) / 1e3, "us",
                    heavy.size());
        std::vector<double> kops;
        const size_t last = static_cast<size_t>(sched_.phase_ns / kWindowNs);
        for (size_t w = static_cast<size_t>(warm_ns / kWindowNs) + 1;
             w < last; ++w)
            kops.push_back(done_per_window_[w] / (kWindowNs / 1e9) / 1e3);
        res_.metric("throughput_kops", median(kops), "kop/s", kops.size());
    }

    // Whole-run tails and maxima: printed, never gated (README.md).
    const char *names[2] = {"class0", "class1"};
    for (size_t c = 0; c < 2; ++c) {
        std::vector<float> &v = whole[c];
        if (v.empty())
            continue;
        const std::string p = std::string(names[c]) + ".whole_";
        res_.diagnostic(p + "p50_us", quantile(v, 0.5) / 1e3, "us", v.size());
        res_.diagnostic(p + "p999_us", quantile(v, 0.999) / 1e3, "us",
                        v.size());
        res_.diagnostic(p + "max_us", maximum(v) / 1e3, "us", v.size());
    }
    res_.diagnostic("client.gen_lag_max_us",
                    static_cast<double>(max_lag_) / cpn_ / 1e3, "us", n);
    res_.diagnostic("client.submit_retries",
                    static_cast<double>(submit_retries_), "count", n);
}

void
RuntimeBench::analyze_layers()
{
    const Stamps &st = *stamps_;
    const size_t n = sched_.due_ns.size();
    const double warm_ns = kWarmShare * sched_.phase_ns;
    std::vector<float> lag, submit, rx, queue, inflation, exit_done, tx, resid;
    for (size_t i = 0; i < n; ++i) {
        if (state_[i] != kDone ||
            static_cast<double>(sched_.due_ns[i]) < warm_ns)
            continue;
        const auto span = [&](uint32_t a, uint32_t b) {
            return static_cast<float>((b > a ? b - a : 0) / cpn_);
        };
        lag.push_back(static_cast<float>(st.sb[i] / cpn_));
        submit.push_back(span(st.sb[i], st.se[i]));
        rx.push_back(span(st.se[i], st.ar[i]));
        queue.push_back(span(st.ar[i], st.en[i]));
        exit_done.push_back(span(st.ex[i], st.dn[i]));
        tx.push_back(span(st.dn[i], st.dr[i]));
        resid.push_back(st.residual_ns[i]);
        const double handler = span(st.en[i], st.ex[i]);
        double demand = 0;
        if (spec_.kind != Kind::KvZipfLas)
            demand = static_cast<double>(sched_.payload[i] & kDemandMask);
        else if (sched_.cls[i] == 0)
            demand = get_ns_;
        if (demand > 0)
            inflation.push_back(static_cast<float>(handler / demand));
    }
    const uint64_t m = lag.size();
    res_.layer("client.gen_lag_p99_us", quantile(lag, 0.99) / 1e3, "us", m);
    res_.layer("client.gen_lag_max_us", maximum(lag) / 1e3, "us", m);
    res_.layer("client.responses_per_drain",
               drains_ ? static_cast<double>(drained_) /
                             static_cast<double>(drains_)
                       : 0,
               "count", drains_);
    res_.layer("runtime.submit.p50_ns", quantile(submit, 0.5), "ns", m);
    res_.layer("runtime.rx_wait.p50_us", quantile(rx, 0.5) / 1e3, "us", m);
    res_.layer("runtime.rx_wait.p99_us", quantile(rx, 0.99) / 1e3, "us", m);
    res_.layer("runtime.worker.queue.p50_us", quantile(queue, 0.5) / 1e3,
               "us", m);
    res_.layer("runtime.worker.queue.p99_us", quantile(queue, 0.99) / 1e3,
               "us", m);
    res_.layer("runtime.worker.service_inflation.p50",
               quantile(inflation, 0.5), "x", inflation.size());
    res_.layer("runtime.worker.exit_to_done.p50_ns",
               quantile(exit_done, 0.5), "ns", m);
    res_.layer("runtime.tx_wait.p50_us", quantile(tx, 0.5) / 1e3, "us", m);
    res_.layer("trace.residual_p50_ns", quantile(resid, 0.5), "ns", m);
}

void
RuntimeBench::write_trace(const std::string &path) const
{
    // Every kTraceEvery-th request, plus requests above their window's
    // p99 (capped, evenly thinned): client -> runtime -> handler spans
    // and the seven contiguous segments, one track per request.
    const Stamps &st = *stamps_;
    const size_t n = sched_.due_ns.size();
    std::vector<uint64_t> tail;
    std::vector<uint64_t> ids;
    for (size_t i = 0; i < n; ++i) {
        if (state_[i] != kDone)
            continue;
        const size_t w = static_cast<size_t>(
            static_cast<double>(sched_.due_ns[i]) / kWindowNs);
        if (i % kTraceEvery == 0)
            ids.push_back(i);
        else if (w < window_p99_.size() && window_p99_[w] > 0 &&
                 lat_ns_[i] > window_p99_[w])
            tail.push_back(i);
    }
    const size_t step = tail.size() / kTraceTailCap + 1;
    for (size_t j = 0; j < tail.size(); j += step)
        ids.push_back(tail[j]);

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "tqbench: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    bool first = true;
    const auto event = [&](const char *name, const char *parent, uint64_t id,
                           double due_us, uint32_t a, uint32_t b) {
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                     "\"parent\":\"%s\"}}",
                     first ? "" : ",\n", name,
                     static_cast<unsigned long long>(id),
                     due_us + a / cpn_ / 1e3,
                     (b > a ? b - a : 0) / cpn_ / 1e3,
                     static_cast<unsigned long long>(id), parent);
        first = false;
    };
    for (uint64_t i : ids) {
        const double due_us = static_cast<double>(sched_.due_ns[i]) / 1e3;
        event("client", "", i, due_us, 0, st.dr[i]);
        event("runtime", "client", i, due_us, st.sb[i], st.dn[i]);
        event("handler", "runtime", i, due_us, st.en[i], st.ex[i]);
        event("gen_lag", "client", i, due_us, 0, st.sb[i]);
        event("submit", "runtime", i, due_us, st.sb[i], st.se[i]);
        event("rx_wait", "runtime", i, due_us, st.se[i], st.ar[i]);
        event("queue", "runtime", i, due_us, st.ar[i], st.en[i]);
        event("exit_to_done", "runtime", i, due_us, st.ex[i], st.dn[i]);
        event("tx_wait", "client", i, due_us, st.dn[i], st.dr[i]);
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
}

} // namespace

bool
is_runtime_workload(const std::string &name)
{
    return name == "rpc_tiny" || name == "extreme_bimodal" ||
           name == "kv_zipf_las";
}

Result
run_runtime_workload(const std::string &name, uint64_t seed, double seconds,
                     int setups, bool traced, double get_ns,
                     const std::string &trace_path)
{
    RuntimeBench bench(name, seed, seconds, traced, get_ns);
    return bench.run(setups, trace_path);
}

} // namespace tqbench
