#include "sim/central.h"

#include <deque>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "sim/event_core.h"

namespace tq::sim {

namespace {

constexpr uint32_t kNone = ~0u;

enum EventKind : uint32_t { kArrival, kOpDone, kCoreDone };

/** A unit of serial dispatcher work. */
struct DispatchOp
{
    enum Kind : uint8_t { kAdmit, kSliceEnd } kind;
    uint32_t job;
    int core;
};

struct Core
{
    uint32_t running = kNone;
    SimNanos slice = 0;
    SimNanos last_grant = -1;
    SimNanos last_overhead = 0;
    double grant_intervals = 0;
    uint64_t grants = 0;
};

class CentralSim
{
  public:
    CentralSim(const CentralConfig &cfg, const ServiceDist &dist,
               double rate)
        : cfg_(cfg),
          core_(dist, rate, cfg.seed, cfg.duration, cfg.stop_when_saturated),
          cores_(static_cast<size_t>(cfg.num_cores))
    {
        TQ_CHECK(cfg.num_cores > 0);
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
              case kOpDone:
                on_op_done();
                break;
              case kCoreDone:
                on_core_done(c);
                break;
            }
        });

        SimResult result;
        core_.finalize(result);
        double intervals = 0;
        uint64_t grants = 0;
        for (const auto &core : cores_) {
            intervals += core.grant_intervals;
            grants += core.grants;
        }
        result.avg_effective_quantum =
            grants ? intervals / static_cast<double>(grants) : 0;
        return result;
    }

  private:
    Job &job(uint32_t idx) { return core_.job(idx); }

    void
    on_arrival()
    {
        const uint32_t idx = core_.try_admit();
        if (idx != EngineCore::kNoJob) {
            ops_.push_back(DispatchOp{DispatchOp::kAdmit, idx, -1});
            maybe_start_op();
        }
        const SimNanos t = core_.next_arrival_after(core_.now());
        if (t < cfg_.duration)
            core_.schedule(t, kArrival, -1);
    }

    void
    maybe_start_op()
    {
        if (op_busy_ || ops_.empty())
            return;
        op_busy_ = true;
        core_.schedule(core_.now() + cfg_.overheads.sched_op_cost,
                       kOpDone, -1);
    }

    void
    on_op_done()
    {
        TQ_CHECK(op_busy_ && !ops_.empty());
        const DispatchOp op = ops_.front();
        ops_.pop_front();
        op_busy_ = false;

        switch (op.kind) {
          case DispatchOp::kAdmit:
            runq_.push_back(op.job);
            grant_if_possible();
            break;
          case DispatchOp::kSliceEnd: {
            Core &core = cores_[static_cast<size_t>(op.core)];
            const uint32_t idx = core.running;
            core.running = kNone;
            Job &j = job(idx);
            j.remaining -= core.slice;
            if (j.remaining <= 1e-9) {
                core_.complete(idx,
                               core_.now() + cfg_.overheads.response_cost);
            } else {
                runq_.push_back(idx); // PS rotation of the global queue
            }
            grant_if_possible();
            break;
          }
        }
        maybe_start_op();
    }

    void
    grant_if_possible()
    {
        // Greedily fill every idle core (the op that ran may have freed
        // one core and enqueued one job; a single sweep is cheap).
        for (int c = 0; c < cfg_.num_cores && !runq_.empty(); ++c) {
            Core &core = cores_[static_cast<size_t>(c)];
            if (core.running != kNone)
                continue;
            const uint32_t idx = runq_.front();
            runq_.pop_front();
            core.running = idx;
            Job &j = job(idx);
            const SimNanos slice = std::min(cfg_.quantum, j.remaining);
            core.slice = slice;
            const bool preempted = j.remaining > slice + 1e-9;
            const SimNanos overhead =
                preempted ? cfg_.overheads.switch_overhead : 0;
            const SimNanos now = core_.now();
            if (core.last_grant >= 0) {
                // Effective-quantum metric (Figure 16): grant spacing net
                // of the constant per-slice costs (interrupt overhead and
                // the dispatcher's own reaction time for one op). What
                // remains is the stretch caused by dispatcher *queueing*,
                // i.e. the scalability limit under study.
                core.grant_intervals += now - core.last_grant -
                                        core.last_overhead -
                                        cfg_.overheads.sched_op_cost;
                ++core.grants;
            }
            core.last_grant = now;
            core.last_overhead = overhead;
            core_.schedule(now + slice + overhead, kCoreDone, c);
        }
    }

    void
    on_core_done(int c)
    {
        ops_.push_back(DispatchOp{DispatchOp::kSliceEnd, kNone, c});
        maybe_start_op();
    }

    const CentralConfig &cfg_;
    EngineCore core_;

    std::deque<DispatchOp> ops_;
    bool op_busy_ = false;
    std::deque<uint32_t> runq_;
    std::vector<Core> cores_;
};

} // namespace

SimResult
run_central(const CentralConfig &cfg, const ServiceDist &dist, double rate)
{
    CentralSim sim(cfg, dist, rate);
    return sim.run();
}

} // namespace tq::sim
