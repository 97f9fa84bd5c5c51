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

/** The shared per-core scheduler on simulated ns and unit ids. */
using CoreSched = sched::SchedCore<SimNanos, uint32_t>;

/** Per-core state around the shared scheduler. */
struct Core
{
    explicit Core(const sched::SchedShape<SimNanos> &shape) : sched(shape) {}

    CoreSched sched;             ///< admitted units not running
    CoreSched::Entry running{kNone}; ///< handle kNone while idle
    SimNanos slice = 0;          ///< service granted to `running`
    SimNanos granted = 0;        ///< budget `running` was armed with
    uint64_t quanta_sum = 0;     ///< MSQ metric: serviced quanta of
                                 ///< currently admitted jobs
    uint64_t assigned = 0;       ///< units dispatched to this core
    uint64_t finished = 0;       ///< completions (the shared counter)
    // Figure-16 style effective-quantum accounting.
    double grant_intervals = 0;
    uint64_t grants = 0;
};

/** One dispatcher shard: its serial queue and its view of the cores it
 *  owns, the same DispatchView and pick the runtime's shards run. */
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
          core_(dist, rate, cfg.seed, cfg.duration, cfg.stop_when_saturated,
                cfg.arrival),
          fanout_(static_cast<uint32_t>(cfg.fanout))
    {
        TQ_CHECK(cfg.num_cores > 0);
        TQ_CHECK(cfg.num_dispatchers > 0);
        TQ_CHECK(cfg.num_dispatchers <= cfg.num_cores);
        TQ_CHECK(cfg.fanout >= 1);
        core_.set_arrival_trace(cfg.arrival_trace);
        dispatchers_.reserve(static_cast<size_t>(cfg.num_dispatchers));
        for (int d = 0; d < cfg.num_dispatchers; ++d)
            dispatchers_.emplace_back(
                shard_span(cfg.num_cores, cfg.num_dispatchers, d));
        front_pending_.resize(static_cast<size_t>(cfg.num_dispatchers));
        front_loads_.resize(static_cast<size_t>(cfg.num_dispatchers), 0);
        // Scheduling shape (DESIGN.md §4i), resolved as the runtime
        // resolves it: per-class quanta give each class a ledger slot
        // with the deficit clamp and the starvation guard; the fixed
        // quantum — and FCFS, whose cores never slice — is one slot
        // with both off.
        sched::SchedShape<SimNanos> shape;
        shape.las = cfg.core_policy == CorePolicy::Las;
        if (!cfg.class_quantum.empty()) {
            TQ_CHECK(cfg.class_quantum.size() == dist.class_names().size());
            TQ_CHECK(cfg.class_quantum.size() <=
                     static_cast<size_t>(sched::kMaxClasses));
            if (cfg.core_policy != CorePolicy::Fcfs) {
                shape.slots = static_cast<int>(cfg.class_quantum.size());
                shape.deficit_clamp = cfg.deficit_clamp;
                shape.promote_after = cfg.starvation_promote_after;
            }
        }
        cores_.assign(static_cast<size_t>(cfg.num_cores), Core(shape));
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

    // --------------------------------------------------------- units --
    // Queues and core slots hold *units*: at fanout 1 a unit IS the
    // arena index (same values, same arithmetic, byte-identical runs);
    // at fanout k unit = idx * k + shard, with per-shard remaining
    // kept in a side array and the logical job completing when its
    // last shard drains (scatter-gather, last-response-wins).
    uint32_t
    idx_of(uint32_t unit) const
    {
        return fanout_ == 1 ? unit : unit / fanout_;
    }

    double &
    remaining_of(uint32_t unit)
    {
        return fanout_ == 1 ? job(unit).remaining
                            : shard_remaining_[unit];
    }

    // ------------------------------------------------------- arrivals --
    void
    on_arrival()
    {
        const uint32_t idx =
            core_.try_admit(1.0 + cfg_.probe_overhead_frac);
        if (idx != EngineCore::kNoJob) {
            if (fanout_ > 1)
                split_into_shards(idx);
            if (cfg_.num_dispatchers == 1) {
                // Single dispatcher: the paper's configuration, and
                // byte-identical to the pre-sharding simulator — no
                // front tier exists, arrivals enqueue directly. A
                // fanned-out request's units all cross the one
                // dispatcher (one serial dispatch_cost each, like the
                // real dispatcher's per-shard pick+push loop).
                for (uint32_t s = 0; s < fanout_; ++s)
                    dispatchers_[0].q.push_back(idx * fanout_ + s);
                maybe_start_dispatch(0);
            } else {
                // Sharded tier (DESIGN.md §4g): the front tier steers
                // the whole request to one shard by rotated JSQ over
                // the shards' load estimates, charging front_tier_cost
                // as pure latency (submitters are parallel, so the
                // steering pick adds delay but no serial bottleneck —
                // each shard's dispatch_cost stays the serial
                // resource). The constant delay preserves FIFO order
                // per shard, so a deque models the in-flight picks.
                const int d = pick_shard();
                for (uint32_t s = 0; s < fanout_; ++s)
                    front_pending_[static_cast<size_t>(d)].push_back(
                        idx * fanout_ + s);
                core_.schedule(core_.now() +
                                   cfg_.overheads.front_tier_cost,
                               kFrontDone, d);
            }
        }
        const SimNanos t = core_.next_arrival_after(core_.now());
        if (t < cfg_.duration)
            core_.schedule(t, kArrival, -1);
    }

    /** Front-tier pick latency elapsed: the request's units land in
     *  shard @p d's dispatch queue. */
    void
    on_front_done(int d)
    {
        auto &pending = front_pending_[static_cast<size_t>(d)];
        for (uint32_t s = 0; s < fanout_; ++s) {
            TQ_DCHECK(!pending.empty());
            dispatchers_[static_cast<size_t>(d)].q.push_back(
                pending.front());
            pending.pop_front();
        }
        maybe_start_dispatch(d);
    }

    /**
     * Front-tier JSQ (common/shard.h): steer to the shard with the
     * smallest aggregate load — dispatch backlog (queued + in hand +
     * still crossing the front latency) plus the owned cores' queue
     * lengths in the shard's view, which carries the dispatchers'
     * periodically refreshed staleness, mirroring the runtime's
     * advertised load lines. Rotation by arrival count spreads tied
     * picks like the runtime's submitter-local counter.
     */
    int
    pick_shard()
    {
        refresh_stats_if_due();
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
    split_into_shards(uint32_t idx)
    {
        const size_t need = static_cast<size_t>(idx + 1) * fanout_;
        if (shard_remaining_.size() < need)
            shard_remaining_.resize(need, 0);
        if (shards_live_.size() <= idx)
            shards_live_.resize(static_cast<size_t>(idx) + 1, 0);
        shards_live_[idx] = fanout_;
        const double per_shard = job(idx).remaining / fanout_;
        for (uint32_t s = 0; s < fanout_; ++s)
            shard_remaining_[idx * fanout_ + s] = per_shard;
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
        const uint32_t unit = disp.in_hand;
        disp.in_hand = kNone;
        disp.busy = false;

        const int target = pick_core(d);
        Core &core = cores_[static_cast<size_t>(target)];
        core.sched.admit(unit, job(idx_of(unit)).job_class);
        ++core.assigned;
        if (core.running.handle == kNone)
            start_slice(target);

        maybe_start_dispatch(d);
    }

    // -------------------------------------------------- load balancing --
    /**
     * Re-read the cores' counters into every dispatcher's view (paper
     * section 4: the counter lines are "periodically read by the
     * dispatcher"): length = assigned - finished, quanta = the MSQ
     * metric. Between refreshes each view goes stale except for its own
     * dispatcher's assignments, which bump_len() adds.
     */
    void
    refresh_stats_if_due()
    {
        if (cfg_.stats_refresh_period > 0 &&
            core_.now() - last_refresh_ < cfg_.stats_refresh_period)
            return;
        last_refresh_ = core_.now();
        for (Dispatcher &disp : dispatchers_)
            for (int i = 0; i < disp.span.count; ++i) {
                const Core &core =
                    cores_[static_cast<size_t>(disp.span.first + i)];
                disp.view.set_len(static_cast<size_t>(i),
                                  core.assigned - core.finished);
                disp.view.set_quanta(
                    static_cast<size_t>(i),
                    static_cast<uint32_t>(
                        std::min<uint64_t>(core.quanta_sum, UINT32_MAX)));
            }
    }

    /** Dispatcher @p d's pick over its owned span (one all-cores span
     *  when unsharded), translated to a global core id. */
    int
    pick_core(int d)
    {
        refresh_stats_if_due();
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
        const Job &j = job(idx_of(e.handle));
        const SimNanos remaining = remaining_of(e.handle);
        const SimNanos budget = core.sched.grant(
            e, cfg_.class_quantum.empty()
                   ? cfg_.quantum
                   : cfg_.class_quantum[static_cast<size_t>(j.job_class)]);
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
        double &remaining = remaining_of(e.handle);
        remaining -= core.slice;
        core.sched.settle(e, core.granted, core.slice);

        if (remaining <= 1e-9) {
            // Unit done: at fanout 1 the response leaves directly from
            // the worker; a fanned-out request completes only when its
            // LAST shard drains (scatter-gather gathers at the client).
            core.sched.finish(e);
            ++core.finished;
            core.quanta_sum -= e.quanta;
            if (fanout_ == 1) {
                core_.complete(e.handle, core_.now() +
                                             cfg_.overheads.response_cost);
            } else {
                const uint32_t idx = idx_of(e.handle);
                if (--shards_live_[idx] == 0)
                    core_.complete(
                        idx, core_.now() + cfg_.overheads.response_cost);
            }
        } else {
            ++core.quanta_sum;
            core.sched.requeue(e);
        }
        start_slice(c);
    }

    const TwoLevelConfig &cfg_;
    EngineCore core_;
    uint32_t fanout_;

    /** Per-unit shard state, only populated at fanout > 1. */
    std::vector<double> shard_remaining_;
    std::vector<uint32_t> shards_live_; ///< per job index

    std::vector<Dispatcher> dispatchers_;
    /** Units steered to shard d, still crossing the front-tier pick
     *  latency (constant delay => FIFO per shard). */
    std::vector<std::deque<uint32_t>> front_pending_;
    /** Scratch for the front tier's per-shard load estimates. */
    std::vector<uint32_t> front_loads_;
    std::vector<Core> cores_;
    SimNanos last_refresh_ = -1;

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
