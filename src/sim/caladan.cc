#include "sim/caladan.h"

#include <deque>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "sim/event_core.h"
#include "sim/overheads.h"

namespace tq::sim {

namespace {

constexpr uint32_t kNone = ~0u;

constexpr int kCores = 16;
/** Random victims an idle core probes before parking. */
constexpr int kStealAttempts = 2;
/** IOKernel per-packet cost (serial resource). */
constexpr SimNanos kIoKernelCost = 110;
/** Directpath: extra per-request packet work on the worker. */
constexpr SimNanos kDirectpathCost = 150;
/** Cost of one work-stealing attempt (successful or not). */
constexpr SimNanos kStealCost = 90;
/** Response path at the worker: the other engines' default. */
constexpr SimNanos kResponseCost = Overheads{}.response_cost;

enum EventKind : uint32_t { kArrival, kIoDone, kCoreDone };

struct Core
{
    std::deque<uint32_t> runq;
    uint32_t running = kNone;
};

class CaladanSim
{
  public:
    CaladanSim(const CaladanConfig &cfg, const ServiceDist &dist,
               double rate)
        : cfg_(cfg),
          core_(dist, rate, cfg.seed, cfg.duration, cfg.stop_when_saturated),
          cores_(kCores)
    {
    }

    SimResult
    run()
    {
        core_.schedule(core_.next_arrival_after(0), kArrival, -1);
        core_.drive([this](uint32_t kind, int c) {
            switch (kind) {
              case kArrival:
                on_arrival();
                break;
              case kIoDone:
                on_io_done();
                break;
              case kCoreDone:
                on_core_done(c);
                break;
            }
        });

        SimResult result;
        core_.finalize(result);
        return result;
    }

  private:
    Job &job(uint32_t idx) { return core_.job(idx); }

    void
    on_arrival()
    {
        const uint32_t idx = core_.try_admit();
        if (idx != EngineCore::kNoJob) {
            if (cfg_.directpath) {
                deliver(idx);
            } else {
                io_q_.push_back(idx);
                maybe_start_io();
            }
        }
        const SimNanos t = core_.next_arrival_after(core_.now());
        if (t < cfg_.duration)
            core_.schedule(t, kArrival, -1);
    }

    void
    maybe_start_io()
    {
        if (io_busy_ || io_q_.empty())
            return;
        io_busy_ = true;
        core_.schedule(core_.now() + kIoKernelCost, kIoDone, -1);
    }

    void
    on_io_done()
    {
        TQ_CHECK(io_busy_ && !io_q_.empty());
        const uint32_t idx = io_q_.front();
        io_q_.pop_front();
        io_busy_ = false;
        deliver(idx);
        maybe_start_io();
    }

    /** RSS: a hash of the flow picks the core — uniform random here. */
    void
    deliver(uint32_t idx)
    {
        const int c = static_cast<int>(
            core_.rng().below(static_cast<uint64_t>(kCores)));
        Core &core = cores_[static_cast<size_t>(c)];
        core.runq.push_back(idx);
        if (core.running == kNone) {
            start_job(c, /*steal_delay=*/0);
            return;
        }
        // The hashed core is busy. Real Caladan workers poll for steals
        // continuously, so a concurrently idle core picks the job up
        // almost immediately; emulate by letting the first idle core
        // steal it now (one steal attempt's cost of delay).
        for (int v = 0; v < kCores; ++v) {
            Core &thief = cores_[static_cast<size_t>(v)];
            if (v != c && thief.running == kNone) {
                core.runq.pop_back();
                thief.runq.push_back(idx);
                start_job(v, kStealCost);
                return;
            }
        }
    }

    void
    start_job(int c, SimNanos steal_delay)
    {
        Core &core = cores_[static_cast<size_t>(c)];
        TQ_CHECK(core.running == kNone);
        uint32_t idx = kNone;
        SimNanos extra = steal_delay;
        if (!core.runq.empty()) {
            idx = core.runq.front();
            core.runq.pop_front();
        } else {
            // Work stealing: probe random victims.
            for (int a = 0; a < kStealAttempts; ++a) {
                extra += kStealCost;
                const int v = static_cast<int>(
                    core_.rng().below(static_cast<uint64_t>(kCores)));
                Core &victim = cores_[static_cast<size_t>(v)];
                if (v != c && !victim.runq.empty()) {
                    idx = victim.runq.back(); // steal from the tail
                    victim.runq.pop_back();
                    break;
                }
            }
        }
        if (idx == kNone)
            return; // park idle; next delivery wakes the core
        core.running = idx;
        const Job &j = job(idx);
        const SimNanos packet_cost = cfg_.directpath ? kDirectpathCost : 0;
        core_.schedule(core_.now() + extra + packet_cost + j.remaining +
                           kResponseCost,
                       kCoreDone, c);
    }

    void
    on_core_done(int c)
    {
        Core &core = cores_[static_cast<size_t>(c)];
        const uint32_t idx = core.running;
        core.running = kNone;
        job(idx).remaining = 0;
        core_.complete(idx, core_.now());
        start_job(c, 0);
    }

    const CaladanConfig &cfg_;
    EngineCore core_;

    std::deque<uint32_t> io_q_;
    bool io_busy_ = false;
    std::vector<Core> cores_;
};

} // namespace

SimResult
run_caladan(const CaladanConfig &cfg, const ServiceDist &dist, double rate)
{
    CaladanSim sim(cfg, dist, rate);
    return sim.run();
}

} // namespace tq::sim
