/**
 * @file
 * The isolated ledger (single thread, timed public calls into each
 * library layer) and the host-noise guard.
 *
 * Each ledger row is the median of five timed repetitions, so a host
 * hiccup during one repetition does not move the row.
 */
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <ctime>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/cycles.h"
#include "common/rng.h"
#include "conc/mpmc_queue.h"
#include "conc/spsc_ring.h"
#include "coro/coroutine.h"
#include "probe/probe.h"
#include "runtime/dispatch_view.h"
#include "runtime/request.h"
#include "workloads.h"
#include "workloads/minikv.h"
#include "workloads/spin.h"

namespace tqbench {

namespace {

using Clock = std::chrono::steady_clock;
constexpr int kReps = 5;

/** Median over kReps of the ns per op of @p body(ops). */
template <typename Body>
double
ns_per_op(size_t ops, Body &&body)
{
    std::vector<double> per_op;
    for (int r = 0; r < kReps; ++r) {
        const auto t0 = Clock::now();
        body(ops);
        const auto t1 = Clock::now();
        per_op.push_back(std::chrono::duration<double, std::nano>(t1 - t0)
                             .count() /
                         static_cast<double>(ops));
    }
    return median(per_op);
}

double
pick_ns(size_t workers)
{
    tq::runtime::DispatchView view(workers);
    for (size_t i = 0; i < workers; ++i)
        view.set_quanta(i, static_cast<uint32_t>(i * 3 % 7));
    return ns_per_op(2'000'000, [&](size_t ops) {
        for (size_t j = 0; j < ops; ++j) {
            if ((j & 4095) == 0)
                for (size_t i = 0; i < workers; ++i)
                    view.set_len(i, i % 3);
            view.bump_len(static_cast<size_t>(view.pick_jsq_msq()));
        }
    });
}

/** Mean overshoot of a 2 us slice past its deadline: arm, resume a
 *  probed spin job, switch back at the first expired probe. */
double
preempt_overrun_ns()
{
    tq::Coroutine co([](tq::Coroutine &) { tq::workloads::spin_for(1e15); });
    tq::bind_yield([](void *c) { static_cast<tq::Coroutine *>(c)->yield(); },
                   &co);
    const tq::Cycles budget = tq::ns_to_cycles(2000);
    std::vector<double> means;
    for (int r = 0; r < kReps; ++r) {
        double over = 0;
        constexpr int kSlices = 4000;
        for (int s = 0; s < kSlices; ++s) {
            const tq::Cycles t0 = tq::rdcycles();
            tq::arm_quantum(budget);
            co.resume();
            tq::disarm_quantum();
            const tq::Cycles slice = tq::rdcycles() - t0;
            over += slice > budget ? tq::cycles_to_ns(slice - budget) : 0;
        }
        means.push_back(over / kSlices);
    }
    tq::probe_state() = tq::ProbeState{}; // unbind the abandoned job
    return median(means);
}

} // namespace

Result
run_ledger()
{
    Result res;
    tq::probe_state() = tq::ProbeState{};
    tq::arm_quantum(~tq::Cycles{0} >> 1);
    res.layer("probe.not_expired_ns", ns_per_op(4'000'000, [](size_t ops) {
                  for (size_t i = 0; i < ops; ++i)
                      tq::tq_probe();
              }),
              "ns", kReps);
    tq::disarm_quantum();
    res.layer("probe.preempt_overrun_ns", preempt_overrun_ns(), "ns", kReps);

    {
        tq::Coroutine co([](tq::Coroutine &self) {
            for (;;)
                self.yield();
        });
        res.layer("coro.switch_pair_ns", ns_per_op(1'000'000, [&](size_t ops) {
                      for (size_t i = 0; i < ops; ++i)
                          co.resume();
                  }),
                  "ns", kReps);
    }

    tq::runtime::Request req;
    {
        tq::SpscRing<tq::runtime::Request> ring(1024);
        res.layer("conc.spsc.push_pop_ns", ns_per_op(2'000'000, [&](size_t ops) {
                      for (size_t i = 0; i < ops; ++i) {
                          req.id = i;
                          ring.push(req);
                          ring.pop_into(req);
                      }
                  }),
                  "ns", kReps);
    }
    {
        constexpr size_t kBatch = 32;
        tq::MpmcQueue<tq::runtime::Request> q(1024);
        tq::runtime::Request out[kBatch];
        res.layer("conc.mpmc.push_pop_n_ns", ns_per_op(2'000'000, [&](size_t ops) {
                      for (size_t i = 0; i < ops; i += kBatch) {
                          for (size_t j = 0; j < kBatch; ++j) {
                              req.id = i + j;
                              q.push(req);
                          }
                          q.pop_n(out, kBatch);
                      }
                  }),
                  "ns", kReps);
    }
    res.layer("dispatch_view.pick_ns.w2", pick_ns(2), "ns", kReps);
    res.layer("dispatch_view.pick_ns.w16", pick_ns(16), "ns", kReps);

    {
        // Same store shape and key skew as kv_zipf_las.
        tq::workloads::MiniKV kv(7, 100);
        kv.load_sequential(1 << 16);
        const tq::workloads::ZipfKeyGen keys(1 << 16, 0.99);
        tq::Rng rng(12345);
        std::vector<uint64_t> key(1 << 16);
        for (uint64_t &k : key)
            k = keys.sample_key(rng);
        // One string per GET, as the kv_zipf_las handler makes it, so
        // service_inflation divides like by like.
        res.layer("minikv.get_ns", ns_per_op(200'000, [&](size_t ops) {
                      for (size_t i = 0; i < ops; ++i) {
                          std::string value;
                          kv.get(key[i & (key.size() - 1)], &value);
                      }
                  }),
                  "ns", kReps);
        uint64_t checksum = 0;
        res.layer("minikv.scan2000_us",
                  ns_per_op(100, [&](size_t ops) {
                      for (size_t i = 0; i < ops; ++i)
                          kv.scan(key[i] % ((1 << 16) - 2000), 2000,
                                  &checksum);
                  }) / 1e3,
                  "us", kReps);
    }
    return res;
}

namespace {

std::vector<int>
allowed_cpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof set, &set);
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set))
            cpus.push_back(c);
    return cpus;
}

void
pin_tid(pid_t tid, int cpu)
{
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(tid, sizeof one, &one);
}

} // namespace

void
pin_threads()
{
    // Read once: after the first call this thread's own mask is one CPU,
    // and threads created later inherit it until they are pinned here.
    static const std::vector<int> cpus = allowed_cpus();
    const pid_t self = static_cast<pid_t>(syscall(SYS_gettid));
    std::vector<pid_t> others;
    for (const auto &entry : std::filesystem::directory_iterator(
             "/proc/self/task")) {
        const pid_t tid =
            static_cast<pid_t>(std::stol(entry.path().filename().string()));
        if (tid != self)
            others.push_back(tid);
    }
    std::sort(others.begin(), others.end());
    pin_tid(self, cpus[0]);
    for (size_t i = 0; i < others.size(); ++i)
        pin_tid(others[i], cpus[(i + 1) % cpus.size()]);
}

NoiseCheck
check_host_noise(int threads)
{
    const double cpn = tq::cycles_per_ns(); // calibrated before timing
    const auto t0 = Clock::now();
    const tq::Cycles c0 = tq::rdcycles();

    std::vector<double> share(static_cast<size_t>(threads), 0);
    std::atomic<bool> go{false};
    const auto spin = [&](size_t i) {
        while (!go.load()) {
        }
        timespec cpu0{}, cpu1{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu0);
        const auto w0 = Clock::now();
        auto w1 = w0;
        while (w1 - w0 < std::chrono::milliseconds(500))
            w1 = Clock::now();
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu1);
        const double cpu = static_cast<double>(cpu1.tv_sec - cpu0.tv_sec) +
                           static_cast<double>(cpu1.tv_nsec - cpu0.tv_nsec) /
                               1e9;
        share[i] = cpu / std::chrono::duration<double>(w1 - w0).count();
    };
    std::vector<std::thread> others;
    for (size_t i = 1; i < share.size(); ++i)
        others.emplace_back(spin, i);
    pin_threads(); // spin where the run's threads will sit
    go.store(true);
    spin(0);
    for (std::thread &t : others)
        t.join();

    std::this_thread::sleep_until(t0 + std::chrono::seconds(1));
    const tq::Cycles c1 = tq::rdcycles();
    const auto t1 = Clock::now();
    const double measured =
        static_cast<double>(c1 - c0) /
        std::chrono::duration<double, std::nano>(t1 - t0).count();

    NoiseCheck nc;
    nc.cpu_share = share.front();
    for (double s : share)
        nc.cpu_share = std::min(nc.cpu_share, s);
    nc.calib_err = std::fabs(cpn / measured - 1);
    nc.noisy = nc.cpu_share < 0.9 || nc.calib_err > 0.01;
    return nc;
}

} // namespace tqbench
