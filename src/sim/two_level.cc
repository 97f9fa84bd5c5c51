#include "sim/two_level.h"

#include <algorithm>
#include <deque>
#include <vector>

#include "common/check.h"
#include "common/dispatch_view.h"
#include "common/sched_core.h"
#include "common/shard.h"
#include "sim/event_core.h"

namespace tq::sim {

namespace {

constexpr uint32_t kNone = ~0u;

enum EventKind : uint32_t { kArrival, kDispatchDone, kCoreDone, kFrontDone };

/** The shared per-core scheduler on simulated ns and job arena indices. */
using CoreSched = sched::SchedCore<SimNanos, uint32_t>;

/** Per-core state around the shared scheduler. */
struct Core
{
    explicit Core(const sched::SchedShape<SimNanos> &shape) : sched(shape) {}

    CoreSched sched;             ///< admitted jobs not running
    CoreSched::Entry running{kNone}; ///< handle kNone while idle
    SimNanos slice = 0;          ///< service granted to `running`
    SimNanos granted = 0;        ///< budget `running` was armed with
    uint64_t quanta_sum = 0;     ///< MSQ metric: serviced quanta of
                                 ///< currently admitted jobs
    uint64_t assigned = 0;       ///< jobs dispatched to this core
    uint64_t finished = 0;       ///< completions (the shared counter)
    uint32_t shard = 0;          ///< dispatcher whose view holds it
    uint32_t lane = 0;           ///< its lane in that view
    // Figure-16 style effective-quantum accounting.
    double grant_intervals = 0;
    uint64_t grants = 0;
};

/** One dispatcher shard: its serial queue and its view of the cores it
 *  owns, the same DispatchView and pick the runtime's dispatcher runs. */
struct Dispatcher
{
    explicit Dispatcher(ShardSpan s)
        : span(s), view(static_cast<size_t>(s.count))
    {
    }

    ShardSpan span; ///< owned cores [first, first + count)
    DispatchView view;
    std::deque<uint32_t> q;
    bool busy = false;
    uint32_t in_hand = kNone;
};

class TwoLevelSim
{
  public:
    TwoLevelSim(const TwoLevelConfig &cfg, const ServiceDist &dist,
                double rate)
        : cfg_(cfg),
          core_(dist, rate, cfg.seed, cfg.duration, cfg.stop_when_saturated)
    {
        TQ_CHECK(cfg.num_cores > 0);
        TQ_CHECK(cfg.num_dispatchers > 0);
        TQ_CHECK(cfg.num_dispatchers <= cfg.num_cores);
        core_.set_arrival_trace(cfg.arrival_trace);
        dispatchers_.reserve(static_cast<size_t>(cfg.num_dispatchers));
        for (int d = 0; d < cfg.num_dispatchers; ++d)
            dispatchers_.emplace_back(
                shard_span(cfg.num_cores, cfg.num_dispatchers, d));
        front_pending_.resize(static_cast<size_t>(cfg.num_dispatchers));
        front_loads_.resize(static_cast<size_t>(cfg.num_dispatchers), 0);
        // Scheduling shape (DESIGN.md §4i), resolved by the rule the
        // runtime shares.
        if (!cfg.class_quantum.empty()) {
            TQ_CHECK(cfg.class_quantum.size() == dist.class_names().size());
            TQ_CHECK(cfg.class_quantum.size() <=
                     static_cast<size_t>(sched::kMaxClasses));
        }
        const sched::SchedShape<SimNanos> shape = sched::resolve_shape(
            cfg.core_policy, cfg.quantum, cfg.class_quantum,
            cfg.deficit_clamp, cfg.starvation_promote_after);
        cores_.assign(static_cast<size_t>(cfg.num_cores), Core(shape));
        for (int d = 0; d < cfg.num_dispatchers; ++d) {
            const ShardSpan span = dispatchers_[static_cast<size_t>(d)].span;
            for (int i = 0; i < span.count; ++i) {
                Core &core = cores_[static_cast<size_t>(span.first + i)];
                core.shard = static_cast<uint32_t>(d);
                core.lane = static_cast<uint32_t>(i);
            }
        }
        num_classes_ = dist.class_names().size();
        class_grant_intervals_.resize(num_classes_, 0);
        class_grants_.resize(num_classes_, 0);
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
              case kDispatchDone:
                on_dispatch_done(c);
                break;
              case kCoreDone:
                on_core_done(c);
                break;
              case kFrontDone:
                on_front_done(c);
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
        result.class_effective_quantum.resize(num_classes_, 0);
        for (size_t c = 0; c < num_classes_; ++c)
            if (class_grants_[c])
                result.class_effective_quantum[c] =
                    class_grant_intervals_[c] /
                    static_cast<double>(class_grants_[c]);
        result.starvation_promotions = starvation_promotions_;
        return result;
    }

  private:
    Job &job(uint32_t idx) { return core_.job(idx); }

    // ------------------------------------------------------- arrivals --
    void
    on_arrival()
    {
        const uint32_t idx =
            core_.try_admit(1.0 + cfg_.probe_overhead_frac);
        if (idx != EngineCore::kNoJob) {
            if (cfg_.num_dispatchers == 1) {
                // Single dispatcher: the paper's configuration, and
                // byte-identical to the pre-sharding simulator — no
                // front tier exists, arrivals enqueue directly.
                dispatchers_[0].q.push_back(idx);
                maybe_start_dispatch(0);
            } else {
                // Sharded tier (DESIGN.md §4g): the front tier steers
                // the request to one shard by rotated JSQ over
                // the shards' load estimates, charging front_tier_cost
                // as pure latency (submitters are parallel, so the
                // steering pick adds delay but no serial bottleneck —
                // each shard's dispatch_cost stays the serial
                // resource). The constant delay preserves FIFO order
                // per shard, so a deque models the in-flight picks.
                const int d = pick_shard();
                front_pending_[static_cast<size_t>(d)].push_back(idx);
                core_.schedule(core_.now() +
                                   cfg_.overheads.front_tier_cost,
                               kFrontDone, d);
            }
        }
        const SimNanos t = core_.next_arrival_after(core_.now());
        if (t < cfg_.duration)
            core_.schedule(t, kArrival, -1);
    }

    /** Front-tier pick latency elapsed: the request lands in shard
     *  @p d's dispatch queue. */
    void
    on_front_done(int d)
    {
        auto &pending = front_pending_[static_cast<size_t>(d)];
        TQ_DCHECK(!pending.empty());
        dispatchers_[static_cast<size_t>(d)].q.push_back(pending.front());
        pending.pop_front();
        maybe_start_dispatch(d);
    }

    /**
     * Front-tier JSQ (common/shard.h): steer to the shard with the
     * smallest aggregate load — dispatch backlog (queued + in hand +
     * still crossing the front latency) plus the owned cores' queue
     * lengths in the shard's view, which the cores keep current.
     * Rotation by arrival count spreads tied picks round-robin.
     */
    int
    pick_shard()
    {
        const int n = cfg_.num_dispatchers;
        for (int d = 0; d < n; ++d) {
            const Dispatcher &disp = dispatchers_[static_cast<size_t>(d)];
            uint64_t load =
                disp.q.size() + (disp.busy ? 1 : 0) +
                front_pending_[static_cast<size_t>(d)].size();
            for (size_t i = 0; i < disp.view.workers(); ++i)
                load += disp.view.len(i);
            front_loads_[static_cast<size_t>(d)] =
                load > UINT32_MAX ? UINT32_MAX
                                  : static_cast<uint32_t>(load);
        }
        return pick_min_rotated(front_loads_.data(),
                                static_cast<size_t>(n), core_.arrivals());
    }

    void
    maybe_start_dispatch(int d)
    {
        Dispatcher &disp = dispatchers_[static_cast<size_t>(d)];
        if (disp.busy || disp.q.empty())
            return;
        disp.busy = true;
        disp.in_hand = disp.q.front();
        disp.q.pop_front();
        core_.schedule(core_.now() + cfg_.overheads.dispatch_cost,
                       kDispatchDone, d);
    }

    void
    on_dispatch_done(int d)
    {
        Dispatcher &disp = dispatchers_[static_cast<size_t>(d)];
        const uint32_t idx = disp.in_hand;
        disp.in_hand = kNone;
        disp.busy = false;

        const int target = pick_core(d);
        Core &core = cores_[static_cast<size_t>(target)];
        core.sched.admit(idx, job(idx).job_class);
        ++core.assigned;
        if (core.running.handle == kNone)
            start_slice(target);

        maybe_start_dispatch(d);
    }

    // -------------------------------------------------- load balancing --
    /**
     * Write @p core's counters into its lane of its dispatcher's view
     * (paper section 4: the dispatcher reads the workers' counter
     * lines): length = assigned - finished, quanta = the MSQ metric.
     * The winner of a pick is bumped by the pick itself, so calling
     * this whenever `finished` or `quanta_sum` changes keeps every lane
     * equal to a fresh read of the counters at every pick.
     */
    void
    publish(const Core &core)
    {
        DispatchView &view = dispatchers_[core.shard].view;
        view.set_len(core.lane, core.assigned - core.finished);
        view.set_quanta(core.lane,
                        static_cast<uint32_t>(
                            std::min<uint64_t>(core.quanta_sum, UINT32_MAX)));
    }

    /** Dispatcher @p d's pick over its owned span (one all-cores span
     *  when unsharded), translated to a global core id. */
    int
    pick_core(int d)
    {
        Dispatcher &disp = dispatchers_[static_cast<size_t>(d)];
        const int i = disp.view.pick(cfg_.lb, core_.rng());
        disp.view.bump_len(static_cast<size_t>(i));
        return disp.span.first + i;
    }

    // ------------------------------------------------------- workers --
    // Selection, budgets, deficit and the starvation guard are the
    // shared scheduler (common/sched_core.h), the same code the runtime
    // worker runs; what stays here is slicing simulated service and
    // scheduling the completion event.
    void
    start_slice(int c)
    {
        Core &core = cores_[static_cast<size_t>(c)];
        TQ_CHECK(core.running.handle == kNone);
        if (core.sched.empty())
            return;
        const auto [e, promoted] = core.sched.next();
        starvation_promotions_ += promoted ? 1 : 0;
        core.running = e;
        const Job &j = job(e.handle);
        const SimNanos remaining = j.remaining;
        const SimNanos budget = core.sched.grant(e);
        const SimNanos slice = cfg_.core_policy == CorePolicy::Fcfs
                                   ? remaining
                                   : std::min(budget, remaining);
        TQ_DCHECK(slice > 0);
        core.slice = slice;
        core.granted = budget;
        const SimNanos busy = slice + cfg_.overheads.switch_overhead;
        // Effective-quantum metric (Figure 16): spacing between grants
        // net of the constant per-slice mechanism overhead.
        core.grant_intervals += slice;
        ++core.grants;
        if (num_classes_ != 0) {
            const size_t cls = static_cast<size_t>(j.job_class);
            class_grant_intervals_[cls] += slice;
            ++class_grants_[cls];
        }
        core_.schedule(core_.now() + busy, kCoreDone, c);
    }

    void
    on_core_done(int c)
    {
        Core &core = cores_[static_cast<size_t>(c)];
        const CoreSched::Entry e = core.running;
        core.running.handle = kNone;
        double &remaining = job(e.handle).remaining;
        remaining -= core.slice;
        core.sched.settle(e, core.granted, core.slice);

        if (remaining <= 1e-9) {
            // Job done: the response leaves directly from the worker.
            core.sched.finish(e);
            ++core.finished;
            core.quanta_sum -= e.quanta;
            core_.complete(e.handle,
                           core_.now() + cfg_.overheads.response_cost);
        } else {
            ++core.quanta_sum;
            core.sched.requeue(e);
        }
        publish(core);
        start_slice(c);
    }

    const TwoLevelConfig &cfg_;
    EngineCore core_;

    std::vector<Dispatcher> dispatchers_;
    /** Jobs steered to shard d, still crossing the front-tier pick
     *  latency (constant delay => FIFO per shard). */
    std::vector<std::deque<uint32_t>> front_pending_;
    /** Scratch for the front tier's per-shard load estimates. */
    std::vector<uint32_t> front_loads_;
    std::vector<Core> cores_;

    // Per-class effective-quantum metrics (DESIGN.md §4i).
    size_t num_classes_ = 0;
    std::vector<double> class_grant_intervals_;
    std::vector<uint64_t> class_grants_;
    uint64_t starvation_promotions_ = 0;
};

} // namespace

SimResult
run_two_level(const TwoLevelConfig &cfg, const ServiceDist &dist, double rate)
{
    TwoLevelSim sim(cfg, dist, rate);
    return sim.run();
}

} // namespace tq::sim
