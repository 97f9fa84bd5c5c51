/**
 * @file
 * Tests for the open-loop load generator against a deterministic fake
 * server: Poisson submission counts, latency bookkeeping, warm-up
 * discarding, per-class accounting, and backpressure counting.
 */
#include <gtest/gtest.h>

#include <deque>

#include "common/cycles.h"
#include "net/loadgen.h"

namespace tq::net {
namespace {

/** Fake server: echoes after a fixed (cycle-accurate) delay. */
class EchoServer : public Server
{
  public:
    explicit EchoServer(double delay_ns, size_t fail_first = 0)
        : delay_cycles_(ns_to_cycles(delay_ns)), fail_first_(fail_first)
    {
    }

    bool
    submit(const runtime::Request &req) override
    {
        if (fail_first_ > 0) {
            --fail_first_;
            return false;
        }
        runtime::Response resp;
        resp.id = req.id;
        resp.gen_cycles = req.gen_cycles;
        resp.arrival_cycles = rdcycles();
        resp.done_cycles = resp.arrival_cycles + delay_cycles_;
        resp.job_class = req.job_class;
        resp.result = req.payload;
        pending_.push_back(resp);
        return true;
    }

    size_t
    drain(std::vector<runtime::Response> &out) override
    {
        size_t n = 0;
        const Cycles now = rdcycles();
        while (!pending_.empty() && pending_.front().done_cycles <= now) {
            out.push_back(pending_.front());
            pending_.pop_front();
            ++n;
        }
        return n;
    }

  private:
    Cycles delay_cycles_;
    size_t fail_first_;
    std::deque<runtime::Response> pending_;
};

TEST(LoadGen, SubmitsApproximatelyRateTimesDuration)
{
    EchoServer server(100.0);
    auto dist = std::make_unique<FixedDist>(us(1), "job");
    LoadGenConfig cfg;
    cfg.rate_mrps = 0.05; // 50 Krps
    cfg.duration_sec = 0.2;
    const ClientStats stats =
        run_open_loop(server, *dist, spin_request_factory(), cfg);
    // Expect ~10000 submissions; Poisson sd ~100, allow generous slack
    // for host scheduling jitter.
    EXPECT_GT(stats.submitted, 8000u);
    EXPECT_LT(stats.submitted, 12000u);
    EXPECT_EQ(stats.completed, stats.submitted);
    EXPECT_GT(stats.achieved_mrps, 0.03);
    // The rate is exactly the in-window completions over the window.
    EXPECT_LE(stats.completed_in_window, stats.completed);
    EXPECT_NEAR(stats.achieved_mrps,
                static_cast<double>(stats.completed_in_window) /
                    (stats.gen_elapsed_sec * 1e6),
                1e-9);
}

// Regression (window-boundary accounting): a request still in flight
// when the generation window closes must either drain into `completed`
// (and the percentiles) or count as `timed_out` — but never into the
// achieved rate, which only credits completions observed *inside* the
// window. The old code divided the post-drain completion total by the
// window length, so a server whose every response landed after the
// window reported an achieved rate the window never sustained (~0.02
// Mrps here); it must be exactly zero.
TEST(LoadGen, AchievedRateExcludesDrainPhase)
{
    EchoServer server(100e6); // every response 100ms late
    auto dist = std::make_unique<FixedDist>(us(1), "job");
    LoadGenConfig cfg;
    cfg.rate_mrps = 0.02;
    cfg.duration_sec = 0.05;
    const ClientStats stats =
        run_open_loop(server, *dist, spin_request_factory(), cfg);
    EXPECT_EQ(stats.completed, stats.submitted);
    EXPECT_EQ(stats.timed_out, 0u);
    EXPECT_GE(stats.gen_elapsed_sec, cfg.duration_sec);
    EXPECT_LT(stats.gen_elapsed_sec, cfg.duration_sec * 2);
    // Nothing completed before the window closed...
    EXPECT_EQ(stats.completed_in_window, 0u);
    EXPECT_EQ(stats.achieved_mrps, 0.0);
    // ...yet the drained stragglers still reach the latency stats.
    EXPECT_EQ(stats.by_class("job").completed, stats.completed);
    EXPECT_GT(stats.by_class("job").completed, 0u);
}

// Responses that never arrive before the drain timeout are reported as
// timed out instead of silently shrinking `completed`.
TEST(LoadGen, CountsTimedOutRequests)
{
    EchoServer server(10e9); // 10s: far beyond the drain timeout
    auto dist = std::make_unique<FixedDist>(us(1), "job");
    LoadGenConfig cfg;
    cfg.rate_mrps = 0.02;
    cfg.duration_sec = 0.05;
    cfg.drain_timeout_sec = 0.1;
    const ClientStats stats =
        run_open_loop(server, *dist, spin_request_factory(), cfg);
    EXPECT_GT(stats.submitted, 0u);
    EXPECT_EQ(stats.completed, 0u);
    EXPECT_EQ(stats.timed_out, stats.submitted);
}

TEST(LoadGen, LatencyReflectsServerDelay)
{
    EchoServer server(50'000.0); // 50us server-side delay
    auto dist = std::make_unique<FixedDist>(us(1), "job");
    LoadGenConfig cfg;
    cfg.rate_mrps = 0.02;
    cfg.duration_sec = 0.1;
    const ClientStats stats =
        run_open_loop(server, *dist, spin_request_factory(), cfg);
    const auto &c = stats.by_class("job");
    EXPECT_GE(c.mean_sojourn_us, 49.0);
    EXPECT_LT(c.mean_sojourn_us, 80.0);
    EXPECT_GE(c.p999_sojourn_us, c.p99_sojourn_us);
    EXPECT_GE(c.p99_sojourn_us, 49.0);
    // End-to-end includes client-side queueing/drain delays.
    EXPECT_GE(c.p999_e2e_us, c.p999_sojourn_us);
}

TEST(LoadGen, CountsSendFailures)
{
    EchoServer server(100.0, /*fail_first=*/25);
    auto dist = std::make_unique<FixedDist>(us(1), "job");
    LoadGenConfig cfg;
    cfg.rate_mrps = 0.05;
    cfg.duration_sec = 0.05;
    const ClientStats stats =
        run_open_loop(server, *dist, spin_request_factory(), cfg);
    EXPECT_EQ(stats.send_failures, 25u);
    EXPECT_EQ(stats.completed, stats.submitted);
}

TEST(LoadGen, PerClassAccountingSeparatesClasses)
{
    EchoServer server(1000.0);
    auto dist = workload_table::high_bimodal();
    LoadGenConfig cfg;
    cfg.rate_mrps = 0.02;
    cfg.duration_sec = 0.1;
    const ClientStats stats =
        run_open_loop(server, *dist, spin_request_factory(), cfg);
    const auto &s = stats.by_class("Short");
    const auto &l = stats.by_class("Long");
    EXPECT_GT(s.completed, 0u);
    EXPECT_GT(l.completed, 0u);
    EXPECT_EQ(s.completed + l.completed, stats.completed);
    // ~50/50 mix.
    const double frac =
        static_cast<double>(s.completed) /
        static_cast<double>(stats.completed);
    EXPECT_NEAR(frac, 0.5, 0.1);
}

TEST(LoadGen, SpinFactoryEncodesDemandInPayload)
{
    const auto factory = spin_request_factory();
    ServiceSample s{us(7), 3};
    const runtime::Request req = factory(s, 42);
    EXPECT_EQ(req.job_class, 3);
    EXPECT_EQ(req.payload, static_cast<uint64_t>(us(7)));
}

// The recorded send schedule is a pure function of the seed: every draw
// (including the final past-window overshoot) lands in the trace, in
// strictly increasing order, and replays identically across runs.
TEST(LoadGen, SendTraceIsDeterministicAndCoversTheWindow)
{
    auto dist = std::make_unique<FixedDist>(us(1), "job");
    LoadGenConfig cfg;
    cfg.rate_mrps = 0.05;
    cfg.duration_sec = 0.02;
    cfg.seed = 99;

    std::vector<double> trace_a, trace_b;
    {
        EchoServer server(100.0);
        cfg.send_trace = &trace_a;
        const ClientStats stats =
            run_open_loop(server, *dist, spin_request_factory(), cfg);
        // One send per draw except the overshoot that ends the window.
        ASSERT_GE(trace_a.size(), 2u);
        EXPECT_EQ(stats.submitted + stats.send_failures,
                  trace_a.size() - 1);
        EXPECT_GE(trace_a.back(), cfg.duration_sec * 1e9);
        for (size_t i = 1; i < trace_a.size(); ++i)
            EXPECT_GT(trace_a[i], trace_a[i - 1]);
        for (size_t i = 0; i + 1 < trace_a.size(); ++i)
            EXPECT_LT(trace_a[i], cfg.duration_sec * 1e9);
    }
    {
        EchoServer server(100.0);
        cfg.send_trace = &trace_b;
        run_open_loop(server, *dist, spin_request_factory(), cfg);
    }
    ASSERT_EQ(trace_a.size(), trace_b.size());
    for (size_t i = 0; i < trace_a.size(); ++i)
        EXPECT_DOUBLE_EQ(trace_a[i], trace_b[i]);
}

} // namespace
} // namespace tq::net
