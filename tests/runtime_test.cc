/**
 * @file
 * Integration tests for the real TQ runtime: requests flow client ->
 * dispatcher -> worker -> response; forced multitasking preempts long
 * jobs so short ones overtake them (the system's whole point); FCFS
 * variant does not; counters and JSQ views stay consistent; the open-
 * loop load generator round-trips everything.
 *
 * These run on real threads that may outnumber the host's cores, so
 * tests assert ordering and conservation, never absolute throughput.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <thread>

#include "net/loadgen.h"
#include "net/runtime_server.h"
#include "runtime/runtime.h"
#include "telemetry/telemetry.h"
#include "workloads/spin.h"

namespace tq::runtime {
namespace {

/** Handler: spin for payload nanoseconds, return the id. */
Handler
spin_handler()
{
    return [](const Request &req) {
        workloads::spin_for(static_cast<double>(req.payload));
        return req.id;
    };
}

Request
make_spin_request(uint64_t id, double ns, int job_class = 0)
{
    Request req;
    req.id = id;
    req.gen_cycles = rdcycles();
    req.job_class = job_class;
    req.payload = static_cast<uint64_t>(ns);
    return req;
}

/** Submit-and-wait helper. */
std::vector<Response>
run_requests(Runtime &rt, const std::vector<Request> &reqs,
             double timeout_sec = 60.0)
{
    for (const auto &r : reqs)
        while (!rt.submit(r))
            std::this_thread::yield();
    std::vector<Response> responses;
    const Cycles deadline =
        rdcycles() + ns_to_cycles(timeout_sec * 1e9);
    while (responses.size() < reqs.size() && rdcycles() < deadline) {
        rt.drain_responses(responses);
        std::this_thread::yield();
    }
    return responses;
}

/** Builds a Runtime from @p cfg and throws it away. */
void
construct(const RuntimeConfig &cfg)
{
    Runtime rt(cfg, spin_handler());
}

TEST(RuntimeDeathTest, ConfigIsCheckedBeforeAnythingIsBuilt)
{
    // Each bad field must stop at the constructor's check, before a
    // negative worker count reaches a vector's reserve() or a negative
    // time a double -> unsigned conversion.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    RuntimeConfig workers;
    workers.num_workers = -1;
    EXPECT_DEATH(construct(workers), "check failed");
    RuntimeConfig quantum;
    quantum.quantum_us = -1.0;
    EXPECT_DEATH(construct(quantum), "check failed");
    RuntimeConfig clamp;
    clamp.deficit_clamp_us = -1.0;
    EXPECT_DEATH(construct(clamp), "check failed");
}

TEST(Runtime, EndToEndAllRequestsAnswered)
{
    RuntimeConfig cfg;
    cfg.num_workers = 2;
    Runtime rt(cfg, spin_handler());
    rt.start();

    std::vector<Request> reqs;
    for (uint64_t i = 0; i < 300; ++i)
        reqs.push_back(make_spin_request(i, 1000 + (i % 5) * 1000));
    const auto responses = run_requests(rt, reqs);
    ASSERT_EQ(responses.size(), reqs.size());

    std::map<uint64_t, const Response *> by_id;
    for (const auto &r : responses)
        by_id[r.id] = &r;
    ASSERT_EQ(by_id.size(), reqs.size()) << "no duplicate ids";
    for (const auto &req : reqs) {
        ASSERT_TRUE(by_id.count(req.id));
        const Response &resp = *by_id[req.id];
        EXPECT_EQ(resp.result, req.id) << "handler result preserved";
        EXPECT_GE(resp.worker, 0);
        EXPECT_LT(resp.worker, cfg.num_workers);
        EXPECT_GE(resp.sojourn_ns(), static_cast<double>(req.payload) * 0.5)
            << "sojourn at least ~the service demand";
    }
    EXPECT_EQ(rt.dispatched(), reqs.size());
    rt.stop();
}

TEST(Runtime, ShortJobsOvertakeLongJobUnderPs)
{
    // One worker: a 20ms job enters first, then 20 x ~20us jobs. With
    // 2us quanta the shorts must all complete long before the long job.
    RuntimeConfig cfg;
    cfg.num_workers = 1;
    cfg.quantum_us = 2.0;
    Runtime rt(cfg, spin_handler());
    rt.start();

    std::vector<Request> reqs;
    reqs.push_back(make_spin_request(999, 20e6, /*job_class=*/1));
    for (uint64_t i = 0; i < 20; ++i)
        reqs.push_back(make_spin_request(i, 20e3, 0));
    const auto responses = run_requests(rt, reqs, 120.0);
    ASSERT_EQ(responses.size(), reqs.size());

    Cycles long_done = 0;
    std::vector<Cycles> short_done;
    for (const auto &r : responses) {
        if (r.id == 999)
            long_done = r.done_cycles;
        else
            short_done.push_back(r.done_cycles);
    }
    ASSERT_NE(long_done, 0u);
    ASSERT_EQ(short_done.size(), 20u);
    for (Cycles c : short_done)
        EXPECT_LT(c, long_done) << "short job blocked behind long job";
    rt.stop();
}

TEST(Runtime, FcfsRunsInOrder)
{
    RuntimeConfig cfg;
    cfg.num_workers = 1;
    cfg.work = WorkPolicy::Fcfs;
    Runtime rt(cfg, spin_handler());
    rt.start();

    std::vector<Request> reqs;
    reqs.push_back(make_spin_request(999, 3e6, 1)); // 3ms first
    for (uint64_t i = 0; i < 5; ++i)
        reqs.push_back(make_spin_request(i, 10e3, 0));
    const auto responses = run_requests(rt, reqs, 120.0);
    ASSERT_EQ(responses.size(), reqs.size());
    Cycles long_done = 0;
    Cycles first_short_done = ~Cycles{0};
    for (const auto &r : responses) {
        if (r.id == 999)
            long_done = r.done_cycles;
        else
            first_short_done = std::min(first_short_done, r.done_cycles);
    }
    EXPECT_LT(long_done, first_short_done)
        << "FCFS must finish the long job before any short";
    rt.stop();
}

TEST(Runtime, LasSchedulesFreshJobsFirst)
{
    // LAS: a fresh short job must finish before an old long job even
    // though the long job was admitted first.
    RuntimeConfig cfg;
    cfg.num_workers = 1;
    cfg.quantum_us = 2.0;
    cfg.work = WorkPolicy::Las;
    Runtime rt(cfg, spin_handler());
    rt.start();
    std::vector<Request> reqs;
    reqs.push_back(make_spin_request(999, 5e6, 1)); // 5ms first
    for (uint64_t i = 0; i < 10; ++i)
        reqs.push_back(make_spin_request(i, 20e3, 0));
    const auto responses = run_requests(rt, reqs, 120.0);
    ASSERT_EQ(responses.size(), reqs.size());
    Cycles long_done = 0;
    Cycles last_short = 0;
    for (const auto &r : responses) {
        if (r.id == 999)
            long_done = r.done_cycles;
        else
            last_short = std::max(last_short, r.done_cycles);
    }
    EXPECT_LT(last_short, long_done);
    rt.stop();
}

TEST(Runtime, LasIsFifoAmongEqualQuanta)
{
    // Regression for the LAS heap rewrite: the old implementation
    // scanned its ready deque for the minimum-quanta task, which made
    // equal-quanta tasks run in admission order. The heap keys on
    // (quanta, admit_seq) and must preserve that order exactly. A long
    // blocker admitted first accumulates quanta; the shorts all wait at
    // zero, so their first slices start in admission (= submission)
    // order. Completion order would not show this: a worker descheduled
    // mid-short can preempt it, and the next short then finishes first.
    RuntimeConfig cfg;
    cfg.num_workers = 1;
    cfg.quantum_us = 200.0;
    cfg.work = WorkPolicy::Las;
    // One worker runs every handler, so the entry log needs no lock;
    // the drained responses order each entry before the reads below.
    std::vector<uint64_t> entries;
    entries.reserve(16);
    Runtime rt(cfg, [&entries](const Request &req) {
        entries.push_back(req.id);
        workloads::spin_for(static_cast<double>(req.payload));
        return req.id;
    });
    rt.start();
    std::vector<Request> reqs;
    reqs.push_back(make_spin_request(999, 5e6, 1)); // 5ms blocker first
    constexpr uint64_t kShorts = 8;
    for (uint64_t i = 0; i < kShorts; ++i)
        reqs.push_back(make_spin_request(i, 50e3, 0)); // 50us each
    const auto responses = run_requests(rt, reqs, 120.0);
    ASSERT_EQ(responses.size(), reqs.size());
    std::vector<uint64_t> short_entries;
    for (const uint64_t id : entries)
        if (id != 999)
            short_entries.push_back(id);
    ASSERT_EQ(short_entries.size(), kShorts);
    for (uint64_t i = 0; i < kShorts; ++i)
        EXPECT_EQ(short_entries[i], i)
            << "equal-quanta jobs must start in admission order";
    std::map<uint64_t, Cycles> done;
    for (const auto &r : responses)
        done[r.id] = r.done_cycles;
    for (uint64_t i = 0; i < kShorts; ++i)
        EXPECT_LT(done[i], done[999]) << "blocker has higher quanta";
    rt.stop();
}

TEST(Runtime, WorkerCountersConsistentAfterDrain)
{
    RuntimeConfig cfg;
    cfg.num_workers = 2;
    Runtime rt(cfg, spin_handler());
    rt.start();

    std::vector<Request> reqs;
    for (uint64_t i = 0; i < 200; ++i)
        reqs.push_back(make_spin_request(i, 5000));
    const auto responses = run_requests(rt, reqs);
    ASSERT_EQ(responses.size(), reqs.size());

    uint64_t finished = 0;
    for (int w = 0; w < cfg.num_workers; ++w) {
        auto &line = rt.worker(w).stats_line();
        finished += line.finished.load();
        EXPECT_EQ(line.current_quanta.load(), 0u)
            << "current-jobs quanta must return to zero when idle";
    }
    EXPECT_EQ(finished, reqs.size());
    for (uint64_t len : rt.queue_lengths())
        EXPECT_EQ(len, 0u);
    rt.stop();
}

TEST(Runtime, DoneStampFollowsHandlerExitAndArrival)
{
    // done_cycles is the slice-end clock read the worker takes after
    // the task coroutine returns to it, so it can never precede the
    // handler's own last instant, nor the dispatcher's arrival stamp.
    // Payloads of 0-6 us at a 2 us quantum mix one-slice jobs with
    // preempted ones whose last slice is not their first.
    constexpr uint64_t kJobs = 240;
    for (const WorkPolicy work :
         {WorkPolicy::ProcessorSharing, WorkPolicy::Las, WorkPolicy::Fcfs}) {
        std::vector<Cycles> exit_stamp(kJobs, 0);
        RuntimeConfig cfg;
        cfg.num_workers = 2;
        cfg.work = work;
        Runtime rt(cfg, [&exit_stamp](const Request &req) {
            workloads::spin_for(static_cast<double>(req.payload));
            exit_stamp[req.id] = rdcycles();
            return req.id;
        });
        rt.start();
        std::vector<Request> reqs;
        for (uint64_t i = 0; i < kJobs; ++i)
            reqs.push_back(make_spin_request(i, 1000.0 * (i % 7)));
        const auto responses = run_requests(rt, reqs);
        rt.stop();
        ASSERT_EQ(responses.size(), reqs.size());
        for (const Response &r : responses) {
            ASSERT_LT(r.id, kJobs);
            EXPECT_NE(exit_stamp[r.id], 0u) << "id " << r.id;
            EXPECT_GE(r.done_cycles, exit_stamp[r.id]) << "id " << r.id;
            EXPECT_GE(r.done_cycles, r.arrival_cycles) << "id " << r.id;
        }
    }
}

TEST(Runtime, PreemptionChargesQuantaCounters)
{
    RuntimeConfig cfg;
    cfg.num_workers = 1;
    cfg.quantum_us = 1.0;
    Runtime rt(cfg, spin_handler());
    rt.start();
    // A 2ms job at 1us quanta => >1000 serviced quanta.
    const auto responses =
        run_requests(rt, {make_spin_request(1, 2e6)}, 120.0);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_GT(rt.worker(0).stats_line().total_quanta.load(), 100u);
    rt.stop();
}

TEST(Runtime, JsqSpreadsLoadAcrossWorkers)
{
    RuntimeConfig cfg;
    cfg.num_workers = 2;
    Runtime rt(cfg, spin_handler());
    rt.start();

    std::vector<Request> reqs;
    for (uint64_t i = 0; i < 100; ++i)
        reqs.push_back(make_spin_request(i, 50e3)); // 50us each
    const auto responses = run_requests(rt, reqs, 120.0);
    ASSERT_EQ(responses.size(), reqs.size());
    int per_worker[2] = {0, 0};
    for (const auto &r : responses)
        ++per_worker[r.worker];
    // JSQ must not starve a worker (perfect balance not required: the
    // host timeshares, so queue snapshots vary).
    EXPECT_GT(per_worker[0], 10);
    EXPECT_GT(per_worker[1], 10);
    rt.stop();
}

TEST(Runtime, ThreeWorkersDeliverEverything)
{
    RuntimeConfig cfg;
    cfg.num_workers = 3;
    Runtime rt(cfg, spin_handler());
    rt.start();
    std::vector<Request> reqs;
    for (uint64_t i = 0; i < 150; ++i)
        reqs.push_back(make_spin_request(i, 2000));
    const auto responses = run_requests(rt, reqs);
    EXPECT_EQ(responses.size(), reqs.size());
    // The one dispatcher serves all three workers and forwards every
    // job exactly once.
    for (const auto &r : responses) {
        EXPECT_GE(r.worker, 0);
        EXPECT_LT(r.worker, cfg.num_workers);
    }
    EXPECT_EQ(rt.dispatched(), responses.size());
    rt.stop();
}

TEST(Lifecycle, StatesProgressAcrossStartAndStop)
{
    RuntimeConfig cfg;
    cfg.num_workers = 1;
    Runtime rt(cfg, spin_handler());
    EXPECT_EQ(rt.lifecycle(), Lifecycle::Created);
    rt.start();
    EXPECT_EQ(rt.lifecycle(), Lifecycle::Running);
    rt.stop();
    EXPECT_EQ(rt.lifecycle(), Lifecycle::Stopped);
    EXPECT_FALSE(rt.submit(make_spin_request(0, 1000)))
        << "submit must reject after stop";
    rt.stop(); // idempotent
    EXPECT_EQ(rt.lifecycle(), Lifecycle::Stopped);
}

TEST(Lifecycle, StopWithUndrainedTxRingReturns)
{
    // Regression: a client that stops draining responses must not wedge
    // shutdown. Small TX rings fill after a handful of jobs; the worker's
    // push loop must notice the forced stop and drop instead of spinning.
    RuntimeConfig cfg;
    cfg.num_workers = 1;
    cfg.ring_capacity = 4;
    Runtime rt(cfg, spin_handler());
    rt.start();
    // With 4-slot rings and no collector the whole pipeline backs up
    // (TX full -> worker blocked -> dispatch ring full -> RX full), so
    // bound the submission attempts: the jobs that do get in are enough
    // to wedge every stage, which is the scenario under test.
    uint64_t accepted = 0;
    for (uint64_t i = 0; i < 32; ++i)
        for (int attempt = 0; attempt < 1000; ++attempt) {
            if (rt.submit(make_spin_request(i, 1000))) {
                ++accepted;
                break;
            }
            std::this_thread::yield();
        }
    ASSERT_GT(accepted, 4u) << "need enough jobs to fill the TX ring";

    const Cycles t0 = rdcycles();
    // Nobody ever drains: must still return.
    EXPECT_FALSE(rt.drain(/*deadline_sec=*/0.2));
    const double stop_sec = cycles_to_ns(rdcycles() - t0) / 1e9;
    EXPECT_LT(stop_sec, 30.0) << "drain() must be bounded by its deadline";
    EXPECT_EQ(rt.lifecycle(), Lifecycle::Stopped);
    // Every accepted job is accounted: response still in the TX ring,
    // response dropped at the full ring, or job abandoned by the forced
    // stop before it ran.
    std::vector<Response> leftovers;
    rt.drain_responses(leftovers);
    EXPECT_EQ(leftovers.size() + rt.dropped_responses() +
                  rt.abandoned_jobs(),
              accepted);
    EXPECT_GT(rt.dropped_responses() + rt.abandoned_jobs(), 0u);
}

// Regression: jobs submitted before start() (legal — submit is accepted
// in Created) used to vanish when the runtime was torn down without
// ever starting: drain() reported a clean shutdown while the RX ring
// still held the requests and no counter mentioned them. They must
// surface as abandoned, and the drain must not claim to be clean.
TEST(Lifecycle, NeverStartedRuntimeAbandonsQueuedJobs)
{
    RuntimeConfig cfg;
    cfg.num_workers = 1;
    constexpr uint64_t kJobs = 8;
    {
        Runtime rt(cfg, spin_handler());
        for (uint64_t i = 0; i < kJobs; ++i)
            ASSERT_TRUE(rt.submit(make_spin_request(i, 1000)));
        EXPECT_FALSE(rt.drain(/*deadline_sec=*/1.0))
            << "queued jobs were lost; the drain must not report clean";
        EXPECT_EQ(rt.lifecycle(), Lifecycle::Stopped);
        EXPECT_EQ(rt.abandoned_jobs(), kJobs);
        EXPECT_EQ(rt.dropped_responses(), 0u);
    }
    // A never-started runtime with nothing queued drains clean.
    Runtime idle(cfg, spin_handler());
    EXPECT_TRUE(idle.drain(/*deadline_sec=*/1.0));
    EXPECT_EQ(idle.abandoned_jobs(), 0u);
}

TEST(Lifecycle, DrainFinishesQueuedJobsBeforeJoining)
{
    RuntimeConfig cfg;
    cfg.num_workers = 2;
    Runtime rt(cfg, spin_handler());
    rt.start();
    constexpr uint64_t kJobs = 64;
    for (uint64_t i = 0; i < kJobs; ++i)
        while (!rt.submit(make_spin_request(i, 2000)))
            std::this_thread::yield();

    // Default rings hold every response, so a drain with a generous
    // deadline must finish all queued work without any collector.
    EXPECT_TRUE(rt.drain(/*deadline_sec=*/60.0));
    EXPECT_EQ(rt.lifecycle(), Lifecycle::Stopped);
    EXPECT_EQ(rt.abandoned_jobs(), 0u);
    EXPECT_EQ(rt.dropped_responses(), 0u);
    std::vector<Response> responses;
    rt.drain_responses(responses);
    EXPECT_EQ(responses.size(), kJobs);
    EXPECT_EQ(rt.dispatched(), kJobs);
}

TEST(Lifecycle, BatchedDispatchAccountsForEveryAcceptedJob)
{
    // The dispatcher consumes RX in pop_n batches; a drain must still
    // account for every accepted request exactly once. Small rings make
    // every push wait on a full ring at some point; while running a
    // full ring only waits, so with a collector that keeps going
    // through the drain every accepted job is delivered.
    RuntimeConfig cfg;
    cfg.num_workers = 2;
    cfg.ring_capacity = 8;
    Runtime rt(cfg, spin_handler());
    rt.start();
    uint64_t accepted = 0;
    std::vector<Response> responses;
    for (uint64_t i = 0; i < 400; ++i) {
        if (rt.submit(make_spin_request(i, 500)))
            ++accepted;
        if ((i & 63) == 63)
            rt.drain_responses(responses); // keep TX mostly drained
    }
    ASSERT_GT(accepted, 0u);
    // The workers block on the 8-slot TX rings until someone collects,
    // so this thread keeps collecting while another runs the drain. A
    // drain that stalls until its deadline still fails: it must finish
    // well inside it.
    const auto drain_start = std::chrono::steady_clock::now();
    std::atomic<bool> drained{false};
    bool clean = false;
    std::thread drainer([&] {
        clean = rt.drain(/*deadline_sec=*/60.0);
        drained.store(true, std::memory_order_release);
    });
    while (!drained.load(std::memory_order_acquire)) {
        rt.drain_responses(responses);
        std::this_thread::yield();
    }
    drainer.join();
    EXPECT_LT(std::chrono::steady_clock::now() - drain_start,
              std::chrono::seconds(30))
        << "drain ran into its deadline";
    rt.drain_responses(responses);
    EXPECT_TRUE(clean);
    EXPECT_EQ(rt.dropped_responses(), 0u);
    EXPECT_EQ(rt.abandoned_jobs(), 0u);
    EXPECT_EQ(responses.size(), accepted)
        << "every accepted job must be delivered";
    EXPECT_EQ(rt.lifecycle(), Lifecycle::Stopped);
}

TEST(Lifecycle, StopIsIdempotentAndThreadSafe)
{
    RuntimeConfig cfg;
    cfg.num_workers = 2;
    Runtime rt(cfg, spin_handler());
    rt.start();
    for (uint64_t i = 0; i < 50; ++i)
        while (!rt.submit(make_spin_request(i, 1000)))
            std::this_thread::yield();

    std::vector<std::thread> stoppers;
    for (int t = 0; t < 4; ++t)
        stoppers.emplace_back([&rt] { rt.stop(); });
    rt.stop();
    for (auto &t : stoppers)
        t.join();
    EXPECT_EQ(rt.lifecycle(), Lifecycle::Stopped);
}

TEST(Lifecycle, ForcedStopAccountsEveryJob)
{
    // A deep backlog against a deliberately missed deadline: delivered
    // + dropped + abandoned must equal accepted, with the abandoned
    // jobs counted wherever the forced stop found them (RX, a worker
    // ring, or admitted to a task).
    RuntimeConfig cfg;
    cfg.num_workers = 4;
    Runtime rt(cfg, spin_handler());
    rt.start();
    uint64_t accepted = 0;
    for (uint64_t i = 0; i < 2000; ++i)
        if (rt.submit(make_spin_request(i, 50000)))
            ++accepted;
    ASSERT_GT(accepted, 0u);
    EXPECT_FALSE(rt.drain(/*deadline_sec=*/0.005));
    EXPECT_EQ(rt.lifecycle(), Lifecycle::Stopped);
    std::vector<Response> responses;
    rt.drain_responses(responses);
    EXPECT_EQ(responses.size() + rt.dropped_responses() +
                  rt.abandoned_jobs(),
              accepted)
        << "every accepted job must be delivered, dropped, or abandoned";
    EXPECT_GT(rt.abandoned_jobs(), 0u)
        << "100ms of queued spin cannot drain in 5ms";
}

TEST(Runtime, QueueLengthsAndSnapshotsSafeWhileDispatching)
{
    // External queue_lengths() and telemetry_snapshot() calls read the
    // workers' stats lines with plain relaxed loads and take no lock.
    // Hammer both from two threads during a dispatch storm; TSan (CI)
    // proves the absence of races, and the final counters prove
    // nothing was corrupted.
    RuntimeConfig cfg;
    cfg.num_workers = 2;
    Runtime rt(cfg, spin_handler());
    rt.start();

    std::atomic<bool> done{false};
    std::thread observer1([&] {
        while (!done.load()) {
            for (uint64_t len : rt.queue_lengths())
                EXPECT_LT(len, 1u << 20) << "queue length corrupted";
            (void)rt.dispatched();
            std::this_thread::yield();
        }
    });
    std::thread observer2([&] {
        while (!done.load()) {
            const auto snap = rt.telemetry_snapshot();
            EXPECT_LE(snap.finished, snap.dispatched + 1000000u);
            std::this_thread::yield();
        }
    });

    std::vector<Request> reqs;
    for (uint64_t i = 0; i < 400; ++i)
        reqs.push_back(make_spin_request(i, 1000 + (i % 7) * 500));
    const auto responses = run_requests(rt, reqs);
    done.store(true);
    observer1.join();
    observer2.join();
    ASSERT_EQ(responses.size(), reqs.size());
    EXPECT_EQ(rt.dispatched(), reqs.size());
    for (uint64_t len : rt.queue_lengths())
        EXPECT_EQ(len, 0u);
    rt.stop();
}

TEST(PerClassQuanta, BudgetsResolvedAtAdmissionFollowTheTable)
{
    // {4us, 1us} per-class quanta on one worker: both classes complete,
    // and the post-join scheduling accounts show class 0's mean armed
    // budget above class 1's (granted_cycles counts armed budgets, so
    // the ordering survives deficit adjustment: class 0 jobs finish
    // inside their budget and bank credit, class 1 jobs run into debt).
    {
        // Fixed path: every class reads the scalar quantum exactly.
        RuntimeConfig fixed;
        fixed.num_workers = 1;
        Runtime rt(fixed, spin_handler());
        EXPECT_DOUBLE_EQ(rt.class_quantum_us(0), fixed.quantum_us);
        EXPECT_DOUBLE_EQ(rt.class_quantum_us(3), fixed.quantum_us);
    }
    RuntimeConfig cfg;
    cfg.num_workers = 1;
    cfg.class_quantum_us = {4.0, 1.0};
    Runtime rt(cfg, spin_handler());
    EXPECT_NEAR(rt.class_quantum_us(0), 4.0, 0.01);
    EXPECT_NEAR(rt.class_quantum_us(1), 1.0, 0.01);
    // Classes beyond the table keep the scalar default (slot clamp).
    EXPECT_NEAR(rt.class_quantum_us(5), cfg.quantum_us, 0.01);
    rt.start();

    std::vector<Request> reqs;
    for (uint64_t i = 0; i < 60; ++i)
        reqs.push_back(make_spin_request(i, 30e3, i % 2 == 0 ? 0 : 1));
    const auto responses = run_requests(rt, reqs);
    rt.stop();
    ASSERT_EQ(responses.size(), reqs.size());

    const Worker &w = rt.worker(0);
    const auto &c0 = w.class_sched(0);
    const auto &c1 = w.class_sched(1);
    ASSERT_GT(c0.grants, 0u);
    ASSERT_GT(c1.grants, 0u);
    const double eff0 = static_cast<double>(c0.granted) /
                        static_cast<double>(c0.grants);
    const double eff1 = static_cast<double>(c1.granted) /
                        static_cast<double>(c1.grants);
    EXPECT_GT(eff0, eff1) << "eff0=" << eff0 << " eff1=" << eff1;
    EXPECT_EQ(c0.runnable, 0u) << "all admitted jobs completed";
    EXPECT_EQ(c1.runnable, 0u);
}

TEST(PerClassQuanta, NeverArrivingClassIsInertNoPromotionsNoGrants)
{
    // Three classes configured, only class 0 ever arrives. The
    // starvation guard keys on runnable counts, so a class that never
    // shows up can neither starve nor be promoted, and its account
    // stays zero.
    RuntimeConfig cfg;
    cfg.num_workers = 1;
    cfg.class_quantum_us = {2.0, 2.0, 2.0};
    cfg.starvation_promote_after = 4; // aggressive: still must not fire
    Runtime rt(cfg, spin_handler());
    rt.start();

    std::vector<Request> reqs;
    for (uint64_t i = 0; i < 80; ++i)
        reqs.push_back(make_spin_request(i, 10e3, 0));
    const auto responses = run_requests(rt, reqs);
    rt.stop();
    ASSERT_EQ(responses.size(), reqs.size());

    const Worker &w = rt.worker(0);
    EXPECT_EQ(w.starvation_promotions(), 0u);
    for (int slot = 1; slot < sched::kMaxClasses; ++slot) {
        EXPECT_EQ(w.class_sched(slot).grants, 0u) << "slot " << slot;
        EXPECT_EQ(w.class_sched(slot).runnable, 0u) << "slot " << slot;
        EXPECT_EQ(w.class_sched(slot).deficit, 0) << "slot " << slot;
    }
    EXPECT_GT(w.class_sched(0).grants, 0u);
}

TEST(PerClassQuanta, SingleClassDegeneratesToPlainScheduling)
{
    // One configured class is the degenerate case: no other class can
    // be skipped, so the guard never fires, and everything completes
    // exactly as on the fixed path.
    RuntimeConfig cfg;
    cfg.num_workers = 2;
    cfg.class_quantum_us = {2.0};
    cfg.starvation_promote_after = 2;
    Runtime rt(cfg, spin_handler());
    rt.start();

    std::vector<Request> reqs;
    for (uint64_t i = 0; i < 120; ++i)
        reqs.push_back(make_spin_request(i, 5e3 + (i % 4) * 5e3, 0));
    const auto responses = run_requests(rt, reqs);
    rt.stop();
    ASSERT_EQ(responses.size(), reqs.size());
    EXPECT_EQ(rt.dispatched(), reqs.size());
    for (int wi = 0; wi < cfg.num_workers; ++wi)
        EXPECT_EQ(rt.worker(wi).starvation_promotions(), 0u);
}

/**
 * One factor for the quanta, deficit clamp and job sizes of the
 * PerClassQuanta cases that depend on sub-microsecond slices. TSan
 * stretches every probe-to-probe iteration of the spin loop, so a 0.5 us
 * slice can expire before the loop books any progress (the class-1 jobs
 * below then never finish) and a 1 us short overruns a 2 us budget.
 * Scaling every duration by the same factor keeps the ratios the tests
 * check; the uninstrumented build runs the sizes as written.
 */
#ifdef __SANITIZE_THREAD__
constexpr double kSliceScale = 20;
#else
constexpr double kSliceScale = 1;
#endif

TEST(PerClassQuanta, DeficitStaysWithinConfiguredClamp)
{
    // DESIGN.md §4i invariant: |deficit| <= deficit_clamp at every
    // settlement. Mix early-completing shorts (credit) with
    // quantum-overrunning longs (debt) and check the post-join
    // accounts of every slot on every worker.
    RuntimeConfig cfg;
    cfg.num_workers = 2;
    cfg.class_quantum_us = {4.0 * kSliceScale, 0.5 * kSliceScale};
    cfg.deficit_clamp_us = 3.0 * kSliceScale;
    Runtime rt(cfg, spin_handler());
    rt.start();

    std::vector<Request> reqs;
    // Kept small: every 0.5us slice of a class-1 job pays the full
    // switch overhead, which sanitizer builds inflate ~100x.
    for (uint64_t i = 0; i < 60; ++i) // 1us < 4us budget
        reqs.push_back(make_spin_request(i, 1e3 * kSliceScale, 0));
    for (uint64_t i = 60; i < 64; ++i) // 120 x 0.5us
        reqs.push_back(make_spin_request(i, 60e3 * kSliceScale, 1));
    const auto responses = run_requests(rt, reqs);
    rt.stop();
    ASSERT_EQ(responses.size(), reqs.size());

    const int64_t clamp =
        static_cast<int64_t>(ns_to_cycles(cfg.deficit_clamp_us * 1e3));
    for (int wi = 0; wi < cfg.num_workers; ++wi) {
        for (int slot = 0; slot < sched::kMaxClasses; ++slot) {
            const int64_t d = rt.worker(wi).class_sched(slot).deficit;
            EXPECT_LE(d, clamp) << "worker " << wi << " slot " << slot;
            EXPECT_GE(d, -clamp) << "worker " << wi << " slot " << slot;
        }
    }
}

TEST(PerClassQuanta, PreemptedLongJobsLeaveNoDebtTrapForShorts)
{
    // LAS with {2us, 5us} quanta on one worker. Two probed class-0 jobs
    // of 100us come first: every one of their ~100 slices is preempted
    // past its deadline by the probe latency. A ledger that sums those
    // overruns pins class 0 at -clamp, where the 1us shorts that follow
    // get the 0.5us floor budget and take about three grants each.
    // Under DRR settlement the debt is the last overrun only, so each
    // short finishes inside its first grant and the class ends in
    // credit.
    RuntimeConfig cfg;
    cfg.num_workers = 1;
    cfg.work = WorkPolicy::Las;
    cfg.class_quantum_us = {2.0 * kSliceScale, 5.0 * kSliceScale};
    cfg.deficit_clamp_us *= kSliceScale;
    Runtime rt(cfg, spin_handler());
    rt.start();

    constexpr uint64_t kLongs = 2, kShorts = 4000;
    std::vector<Request> longs;
    for (uint64_t i = 0; i < kLongs; ++i)
        longs.push_back(make_spin_request(i, 100e3 * kSliceScale, 0));
    ASSERT_EQ(run_requests(rt, longs).size(), kLongs);
    std::vector<Request> shorts;
    uint64_t class1 = 0;
    for (uint64_t i = kLongs; i < kLongs + kShorts; ++i) {
        const bool scan = i % 200 == 0; // a few class-1 jobs ride along
        class1 += scan ? 1 : 0;
        shorts.push_back(make_spin_request(
            i, (scan ? 20e3 : 1e3) * kSliceScale, scan ? 1 : 0));
    }
    ASSERT_EQ(run_requests(rt, shorts).size(), kShorts);
    rt.stop();

    const Worker::ClassSched &c0 = rt.worker(0).class_sched(0);
    const uint64_t finished0 = kLongs + kShorts - class1;
    const double grants_per_job = static_cast<double>(c0.grants) /
                                  static_cast<double>(finished0);
    EXPECT_LE(grants_per_job, 1.05)
        << c0.grants << " class-0 grants for " << finished0 << " jobs";
    const int64_t clamp =
        static_cast<int64_t>(ns_to_cycles(cfg.deficit_clamp_us * 1e3));
    EXPECT_GT(c0.deficit, -clamp) << "class 0 pinned at max debt";
}

TEST(PerClassQuanta, FcfsDropsTheTableEntirely)
{
    // FCFS never arms probes, so per-class budgets are meaningless:
    // the runtime must fall back to the fixed path even with a
    // populated class_quantum_us — one ledger slot that books every
    // class, with no deficit and no guard.
    RuntimeConfig cfg;
    cfg.num_workers = 1;
    cfg.work = WorkPolicy::Fcfs;
    cfg.class_quantum_us = {4.0, 1.0};
    Runtime rt(cfg, spin_handler());
    EXPECT_DOUBLE_EQ(rt.class_quantum_us(0), cfg.quantum_us);
    rt.start();
    std::vector<Request> reqs;
    for (uint64_t i = 0; i < 40; ++i)
        reqs.push_back(make_spin_request(i, 5e3, i % 2 == 0 ? 0 : 1));
    const auto responses = run_requests(rt, reqs);
    rt.stop();
    ASSERT_EQ(responses.size(), reqs.size());
    EXPECT_EQ(rt.worker(0).class_sched(1).grants, 0u)
        << "fixed path: class 1 must not get a slot of its own";
    EXPECT_EQ(rt.worker(0).class_sched(0).grants, reqs.size())
        << "FCFS: one grant per job, all booked to the single slot";
    EXPECT_EQ(rt.worker(0).class_sched(0).deficit, 0);
    EXPECT_EQ(rt.worker(0).starvation_promotions(), 0u);
}

TEST(PerClassQuanta, StarvationGuardForcesPromotionUnderLasFlood)
{
    // LAS always favors least-attained work, so a long job that has
    // already attained service starves behind a continuous flood of
    // fresh shorts. The guard must force-promote it after
    // starvation_promote_after consecutive foreign grants — that is
    // the bounded-starvation contract (DESIGN.md §4i).
    RuntimeConfig cfg;
    cfg.num_workers = 1;
    cfg.work = WorkPolicy::Las;
    cfg.quantum_us = 2.0;
    cfg.class_quantum_us = {2.0, 2.0};
    cfg.starvation_promote_after = 8;
    Runtime rt(cfg, spin_handler());
    rt.start();

    // Let the long job attain a few quanta alone first.
    const auto first =
        run_requests(rt, {make_spin_request(999, 20e6, /*job_class=*/1)},
                     /*timeout_sec=*/0.0);
    ASSERT_TRUE(first.empty()) << "long job should still be running";
    // Let it attain well over 25 quanta (a short's lifetime worth) so
    // LAS ranks it strictly behind every in-progress short. Poll the
    // atomic grant counter instead of sleeping a fixed interval: a
    // fixed sleep can overshoot the long's entire service on a loaded
    // host, leaving the flood nothing to starve. Its 20ms leave room
    // for this thread to be descheduled for milliseconds after the
    // poll on a loaded host.
    const Cycles poll_deadline = rdcycles() + ns_to_cycles(10e9);
    while (rt.worker(0).stats_line().total_quanta.load(
               std::memory_order_relaxed) < 250u &&
           rdcycles() < poll_deadline)
        std::this_thread::yield();
    std::vector<Request> shorts;
    for (uint64_t i = 0; i < 150; ++i)
        shorts.push_back(make_spin_request(i, 50e3, 0));
    // Drain shorts AND the long job (promotion grants keep it moving;
    // it may even finish amid the flood) before joining the worker.
    std::vector<Response> responses = run_requests(rt, shorts, 120.0);
    const Cycles deadline = rdcycles() + ns_to_cycles(120e9);
    while (responses.size() < shorts.size() + 1 && rdcycles() < deadline) {
        rt.drain_responses(responses);
        std::this_thread::yield();
    }
    rt.stop();
    ASSERT_EQ(responses.size(), shorts.size() + 1);
    EXPECT_TRUE(std::any_of(responses.begin(), responses.end(),
                            [](const Response &r) { return r.id == 999; }));
    EXPECT_GT(rt.worker(0).starvation_promotions(), 0u)
        << "guard never fired despite a " << shorts.size()
        << "-job flood against promote_after="
        << cfg.starvation_promote_after;
}

// ------------------------------------------------------------ stepped --
//
// Thread-free runs: one thread drives a runtime that is never started
// through the same iterations its threads run (Runtime::dispatch_step(),
// Worker::step()), so every interleaving below is a pure function of
// the step order.

/** Submits @p reqs in slices of @p per_round, each slice followed by a
 *  stepped round (a dispatcher step, one step of each worker, then a
 *  collect), and keeps stepping until every response is in or
 *  @p max_rounds rounds have run. */
std::vector<Response>
run_stepped(Runtime &rt, const std::vector<Request> &reqs, size_t per_round,
            int max_rounds = 100'000)
{
    std::vector<Response> out;
    size_t next = 0;
    for (int round = 0; round < max_rounds && out.size() < reqs.size();
         ++round) {
        for (size_t k = 0; k < per_round && next < reqs.size(); ++k)
            EXPECT_TRUE(rt.submit(reqs[next++]));
        rt.dispatch_step();
        for (int w = 0; w < rt.config().num_workers; ++w)
            rt.worker(w).step();
        rt.drain_responses(out);
    }
    return out;
}

TEST(Stepped, EveryJobIsDeliveredOnce)
{
    constexpr uint64_t kJobs = 64;
    RuntimeConfig cfg;
    cfg.num_workers = 2;
    cfg.work = WorkPolicy::ProcessorSharing;
    cfg.quantum_us = 2.0;
    Runtime rt(cfg, spin_handler());
    std::vector<Request> reqs;
    for (uint64_t i = 0; i < kJobs; ++i)
        reqs.push_back(make_spin_request(i, 7000)); // ~3.5 quanta each
    const auto responses = run_stepped(rt, reqs, kJobs);

    std::map<uint64_t, int> seen;
    for (const Response &r : responses) {
        ++seen[r.id];
        EXPECT_EQ(r.result, r.id);
    }
    ASSERT_EQ(seen.size(), kJobs);
    for (const auto &[id, n] : seen)
        EXPECT_EQ(n, 1) << "job " << id;
    EXPECT_EQ(responses.size(), kJobs);
    EXPECT_EQ(rt.dispatched(), kJobs);
    for (uint64_t len : rt.queue_lengths())
        EXPECT_EQ(len, 0u);

    const telemetry::MetricsSnapshot snap = rt.telemetry_snapshot();
    EXPECT_EQ(snap.dispatched, kJobs);
    EXPECT_EQ(snap.finished, kJobs);
    EXPECT_GT(snap.stats_total_quanta, 0u) << "no probe ever preempted";
    if (telemetry::kEnabled) {
        EXPECT_EQ(snap.quanta, snap.yields + snap.finished);
        EXPECT_EQ(snap.stats_total_quanta, snap.yields);
    }
    EXPECT_TRUE(rt.drain(0));
    EXPECT_EQ(rt.abandoned_jobs(), 0u);
}

TEST(Stepped, SameStepOrderGivesTheSameTargets)
{
    // Zero-work FCFS jobs, submitted a few per round so the queue
    // lengths the picks see vary: the id -> worker map is a function of
    // the step order alone.
    constexpr uint64_t kJobs = 200;
    std::vector<Request> reqs;
    for (uint64_t i = 0; i < kJobs; ++i)
        reqs.push_back(make_spin_request(i, 0));
    const auto targets = [&] {
        RuntimeConfig cfg;
        cfg.num_workers = 4;
        cfg.work = WorkPolicy::Fcfs;
        Runtime rt(cfg, spin_handler());
        std::map<uint64_t, int> by_id;
        for (const Response &r : run_stepped(rt, reqs, 3))
            by_id[r.id] = r.worker;
        EXPECT_EQ(by_id.size(), kJobs);
        return by_id;
    };
    const auto first = targets();
    EXPECT_EQ(first, targets());
    std::map<int, int> per_worker;
    for (const auto &[id, w] : first)
        ++per_worker[w];
    EXPECT_GT(per_worker.size(), 1u) << "every job went to one worker";
}

TEST(Stepped, LeftoversAreCountedAbandoned)
{
    // Jobs left in RX, in a dispatch ring and in an admitted task that a
    // probe preempted mid-job: a drain of the never-started runtime
    // must count every one of them.
    RuntimeConfig cfg;
    cfg.num_workers = 2;
    cfg.quantum_us = 2.0;
    Runtime rt(cfg, spin_handler());
    uint64_t accepted = 0;
    for (uint64_t i = 0; i < 20; ++i)
        accepted += rt.submit(make_spin_request(i, 50'000)) ? 1 : 0;
    EXPECT_EQ(rt.dispatch_step(), accepted);
    for (uint64_t i = 20; i < 24; ++i) // these stay in RX
        accepted += rt.submit(make_spin_request(i, 50'000)) ? 1 : 0;
    EXPECT_TRUE(rt.worker(0).step()) << "a slice of an admitted job ran";
    EXPECT_GT(rt.worker(0).stats_line().total_quanta.load(), 0u)
        << "the 50us job was not preempted";

    std::vector<Response> delivered;
    rt.drain_responses(delivered);
    EXPECT_FALSE(rt.drain(1.0));
    EXPECT_EQ(rt.lifecycle(), Lifecycle::Stopped);
    EXPECT_EQ(accepted, 24u);
    EXPECT_EQ(rt.abandoned_jobs(), accepted - delivered.size());
    EXPECT_EQ(rt.dropped_responses(), 0u);
}

TEST(LoadGen, OpenLoopRoundTripsAgainstRuntime)
{
    RuntimeConfig cfg;
    cfg.num_workers = 2;
    Runtime rt(cfg, spin_handler());
    rt.start();
    net::RuntimeServer server(rt);

    auto dist = std::make_unique<FixedDist>(us(2), "spin");
    net::LoadGenConfig lg;
    lg.rate_mrps = 0.01; // 10 Krps: trivially sustainable even timeshared
    lg.duration_sec = 0.2;
    const net::ClientStats stats =
        net::run_open_loop(server, *dist, net::spin_request_factory(), lg);

    EXPECT_GT(stats.submitted, 100u);
    EXPECT_EQ(stats.completed, stats.submitted);
    EXPECT_EQ(stats.send_failures, 0u);
    const auto &c = stats.by_class("spin");
    EXPECT_EQ(c.completed, stats.completed);
    EXPECT_GE(c.mean_sojourn_us, 1.0);
    EXPECT_GE(c.p999_e2e_us, c.p999_sojourn_us * 0.5);
    rt.stop();
}

} // namespace
} // namespace tq::runtime
