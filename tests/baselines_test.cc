/**
 * @file
 * Tests for the real baseline runtimes: the Shinjuku-style centralized
 * preemptive scheduler (quanta granted from a global queue, jobs migrate
 * between workers) and the Caladan-style FCFS work-stealing runtime.
 */
#include <gtest/gtest.h>

#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <map>

#include "baselines/centralized.h"
#include "baselines/stealing.h"
#include "workloads/spin.h"

namespace tq::baselines {
namespace {

runtime::Handler
spin_handler()
{
    return [](const runtime::Request &req) {
        workloads::spin_for(static_cast<double>(req.payload));
        return req.id;
    };
}

runtime::Request
make_spin_request(uint64_t id, double ns, int job_class = 0)
{
    runtime::Request req;
    req.id = id;
    req.gen_cycles = rdcycles();
    req.job_class = job_class;
    req.payload = static_cast<uint64_t>(ns);
    return req;
}

template <typename Server>
std::vector<runtime::Response>
run_requests(Server &server, const std::vector<runtime::Request> &reqs,
             double timeout_sec = 120.0)
{
    for (const auto &r : reqs)
        while (!server.submit(r))
            std::this_thread::yield();
    std::vector<runtime::Response> responses;
    const Cycles deadline = rdcycles() + ns_to_cycles(timeout_sec * 1e9);
    while (responses.size() < reqs.size() && rdcycles() < deadline) {
        server.drain(responses);
        std::this_thread::yield();
    }
    return responses;
}

TEST(Centralized, EndToEndAllRequestsAnswered)
{
    CentralizedConfig cfg;
    cfg.num_workers = 2;
    CentralizedRuntime rt(cfg, spin_handler());
    rt.start();
    std::vector<runtime::Request> reqs;
    for (uint64_t i = 0; i < 200; ++i)
        reqs.push_back(make_spin_request(i, 2000 + (i % 4) * 1000));
    const auto responses = run_requests(rt, reqs);
    ASSERT_EQ(responses.size(), reqs.size());
    std::map<uint64_t, int> seen;
    for (const auto &r : responses) {
        ++seen[r.id];
        EXPECT_EQ(r.result, r.id);
    }
    EXPECT_EQ(seen.size(), reqs.size());
    rt.stop();
}

TEST(Centralized, PreemptsLongJobsSoShortsOvertake)
{
    CentralizedConfig cfg;
    cfg.num_workers = 1;
    cfg.quantum_us = 5.0;
    CentralizedRuntime rt(cfg, spin_handler());
    rt.start();
    std::vector<runtime::Request> reqs;
    reqs.push_back(make_spin_request(999, 10e6, 1)); // 10ms
    for (uint64_t i = 0; i < 10; ++i)
        reqs.push_back(make_spin_request(i, 20e3, 0));
    const auto responses = run_requests(rt, reqs);
    ASSERT_EQ(responses.size(), reqs.size());
    Cycles long_done = 0;
    Cycles last_short = 0;
    for (const auto &r : responses) {
        if (r.id == 999)
            long_done = r.done_cycles;
        else
            last_short = std::max(last_short, r.done_cycles);
    }
    EXPECT_LT(last_short, long_done)
        << "single-queue PS must let shorts pass the 10ms job";
    // The 10ms job at 5us quanta needs ~2000 grants.
    EXPECT_GT(rt.grants(), 500u);
    rt.stop();
}

TEST(Centralized, JobsMigrateAcrossWorkers)
{
    // With 2 workers sharing one queue of preemptable jobs, a job's
    // quanta land on both workers over time, and the system must stay
    // correct while coroutines hop threads (the property that matters
    // for centralized scheduling's cache behaviour). Each job checks the
    // thread it runs on every microsecond of service, so a hop is seen
    // wherever it happens. The job count is odd: when the two workers
    // take turns in lockstep, an even count would hand every job back
    // to the same worker each round. Which worker *finishes* a job is
    // not asserted: that depends on where its final quantum runs, and
    // on the host running both worker threads at once.
    CentralizedConfig cfg;
    cfg.num_workers = 2;
    cfg.quantum_us = 5.0;
    std::atomic<int> migrated{0};
    CentralizedRuntime rt(cfg, [&migrated](const runtime::Request &req) {
        // gettid is a real system call: std::this_thread::get_id() may be
        // folded to one value per function (pthread_self is declared
        // const), which a coroutine that changes threads breaks.
        const long first = syscall(SYS_gettid);
        bool moved = false;
        for (uint64_t ns = 0; ns < req.payload; ns += 1000) {
            workloads::spin_for(1000);
            moved |= syscall(SYS_gettid) != first;
        }
        migrated.fetch_add(moved ? 1 : 0);
        return req.id;
    });
    rt.start();
    std::vector<runtime::Request> reqs;
    for (uint64_t i = 0; i < 25; ++i)
        reqs.push_back(make_spin_request(i, 0.5e6, 0)); // 25 x 0.5ms
    const auto responses = run_requests(rt, reqs);
    ASSERT_EQ(responses.size(), reqs.size());
    for (const auto &r : responses)
        EXPECT_EQ(r.result, r.id);
    EXPECT_GT(migrated.load(), 0) << "no job ever resumed on another worker";
    rt.stop();
}

TEST(Stealing, EndToEndAllRequestsAnswered)
{
    StealingConfig cfg;
    cfg.num_workers = 2;
    StealingRuntime rt(cfg, spin_handler());
    rt.start();
    std::vector<runtime::Request> reqs;
    for (uint64_t i = 0; i < 200; ++i)
        reqs.push_back(make_spin_request(i, 2000));
    const auto responses = run_requests(rt, reqs);
    ASSERT_EQ(responses.size(), reqs.size());
    rt.stop();
}

TEST(Stealing, IdleWorkerStealsFromLoadedQueue)
{
    // All requests hash-steered wherever; with 4 workers and a burst of
    // jobs, steals must happen (idle workers raid busy queues).
    StealingConfig cfg;
    cfg.num_workers = 4;
    cfg.steal_attempts = 3;
    StealingRuntime rt(cfg, spin_handler());
    rt.start();
    std::vector<runtime::Request> reqs;
    for (uint64_t i = 0; i < 400; ++i)
        reqs.push_back(make_spin_request(i, 5000));
    const auto responses = run_requests(rt, reqs);
    ASSERT_EQ(responses.size(), reqs.size());
    EXPECT_GT(rt.steals(), 0u);
    rt.stop();
}

TEST(Stealing, FcfsNeverPreempts)
{
    // A long job followed by shorts hashed to the same queue: with one
    // worker, the long job must finish before any short (pure FCFS).
    StealingConfig cfg;
    cfg.num_workers = 1;
    StealingRuntime rt(cfg, spin_handler());
    rt.start();
    std::vector<runtime::Request> reqs;
    reqs.push_back(make_spin_request(999, 3e6, 1));
    for (uint64_t i = 0; i < 5; ++i)
        reqs.push_back(make_spin_request(i, 10e3, 0));
    const auto responses = run_requests(rt, reqs);
    ASSERT_EQ(responses.size(), reqs.size());
    Cycles long_done = 0;
    Cycles first_short = ~Cycles{0};
    for (const auto &r : responses) {
        if (r.id == 999)
            long_done = r.done_cycles;
        else
            first_short = std::min(first_short, r.done_cycles);
    }
    EXPECT_LT(long_done, first_short);
    rt.stop();
}

} // namespace
} // namespace tq::baselines
