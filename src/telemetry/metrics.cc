#include "telemetry/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace tq::telemetry {

StageStats
summarize(const std::vector<const Histogram *> &sources)
{
    StageStats s;
    uint64_t buckets[Histogram::kBuckets] = {};
    uint64_t total = 0;
    Cycles sum = 0;
    for (const Histogram *h : sources) {
        for (int i = 0; i < Histogram::kBuckets; ++i) {
            const uint64_t n = h->bucket_count(i);
            buckets[i] += n;
            total += n;
        }
        s.count += h->count();
        sum += h->sum();
    }
    if (s.count > 0)
        s.mean_ns = cycles_to_ns(sum) / static_cast<double>(s.count);
    if (total == 0)
        return s;

    const uint64_t target =
        static_cast<uint64_t>(std::ceil(0.99 * static_cast<double>(total)));
    uint64_t cumulative = 0;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
        cumulative += buckets[i];
        if (cumulative >= target) {
            const double mid =
                i == 0 ? 1.0
                       : static_cast<double>(uint64_t{1} << i) *
                             std::sqrt(2.0);
            s.p99_ns = cycles_to_ns(static_cast<Cycles>(mid));
            break;
        }
    }
    return s;
}

MetricsRegistry::MetricsRegistry(int num_workers, size_t trace_capacity)
    : dispatcher_(std::make_unique<DispatcherTelemetry>(trace_capacity))
{
    workers_.reserve(static_cast<size_t>(num_workers));
    for (int w = 0; w < num_workers; ++w)
        workers_.push_back(
            std::make_unique<WorkerTelemetry>(w, trace_capacity));
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot s;
    const DispatcherTelemetry &d = *dispatcher_;
    s.trace_dropped = d.trace.dropped();
    s.dispatch_batches = d.batch_occupancy.count();
    if (s.dispatch_batches > 0)
        s.mean_dispatch_batch =
            static_cast<double>(d.batch_occupancy.sum()) /
            static_cast<double>(s.dispatch_batches);
    std::vector<const Histogram *> queue, service, sojourn, preempt;
    for (const auto &w : workers_) {
        const WorkerCounters &c = w->counters;
        s.admitted += c.admitted.load(std::memory_order_relaxed);
        s.quanta += c.quanta.load(std::memory_order_relaxed);
        s.guard_deferrals +=
            c.guard_deferrals.load(std::memory_order_relaxed);
        s.trace_dropped += w->trace.dropped();
        queue.push_back(&w->queue_cycles);
        preempt.push_back(&w->preempt_cycles);
        for (int c = 0; c < sched::kMaxClasses; ++c) {
            service.push_back(&w->class_service[c]);
            sojourn.push_back(&w->class_sojourn[c]);
        }
    }
    // Per-class quantum instruments (§4i): fold worker-wise, then trim
    // to the highest class that saw a grant so the fixed-quantum path
    // (nothing recorded) yields an empty vector.
    {
        std::vector<ClassQuantaStats> classes(
            static_cast<size_t>(sched::kMaxClasses));
        std::vector<uint64_t> granted(
            static_cast<size_t>(sched::kMaxClasses), 0);
        size_t highest = 0;
        for (int c = 0; c < sched::kMaxClasses; ++c) {
            ClassQuantaStats &cs = classes[static_cast<size_t>(c)];
            std::vector<const Histogram *> service_h, sojourn_h;
            for (const auto &w : workers_) {
                cs.grants +=
                    w->class_grants[c].load(std::memory_order_relaxed);
                granted[static_cast<size_t>(c)] +=
                    w->class_granted_cycles[c].load(
                        std::memory_order_relaxed);
                cs.deficit_cycles +=
                    w->class_deficit[c].load(std::memory_order_relaxed);
                service_h.push_back(&w->class_service[c]);
                sojourn_h.push_back(&w->class_sojourn[c]);
            }
            if (cs.grants > 0) {
                cs.mean_granted_us =
                    cycles_to_ns(granted[static_cast<size_t>(c)]) /
                    static_cast<double>(cs.grants) / 1e3;
                cs.service = summarize(service_h);
                cs.sojourn = summarize(sojourn_h);
                cs.finished = cs.sojourn.count;
                highest = static_cast<size_t>(c) + 1;
            }
        }
        classes.resize(highest);
        s.per_class = std::move(classes);
    }
    s.dispatch = summarize({&d.dispatch_cycles});
    s.queueing = summarize(queue);
    s.service = summarize(service);
    s.preempt = summarize(preempt);
    s.sojourn = summarize(sojourn);
    return s;
}

size_t
MetricsRegistry::drain_trace(std::vector<TraceEvent> &out)
{
    const size_t before = out.size();
    dispatcher_->trace.drain(out);
    for (auto &w : workers_)
        w->trace.drain(out);
    std::sort(out.begin() + static_cast<ptrdiff_t>(before), out.end(),
              [](const TraceEvent &a, const TraceEvent &b) {
                  return a.tsc < b.tsc;
              });
    return out.size() - before;
}

std::string
MetricsSnapshot::to_string() const
{
    char buf[256];
    std::string out;
    std::snprintf(buf, sizeof(buf),
                  "jobs: dispatched %llu, admitted %llu, finished %llu\n",
                  static_cast<unsigned long long>(dispatched),
                  static_cast<unsigned long long>(admitted),
                  static_cast<unsigned long long>(finished));
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "quanta: %llu (probe yields %llu, guard-deferred %llu)\n",
                  static_cast<unsigned long long>(quanta),
                  static_cast<unsigned long long>(yields),
                  static_cast<unsigned long long>(guard_deferrals));
    out += buf;
    std::snprintf(buf, sizeof(buf), "trace events dropped: %llu\n",
                  static_cast<unsigned long long>(trace_dropped));
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "dispatch batches: %llu (mean occupancy %.2f)\n",
                  static_cast<unsigned long long>(dispatch_batches),
                  mean_dispatch_batch);
    out += buf;
    std::snprintf(
        buf, sizeof(buf),
        "backpressure: tx-full spins %llu, dispatch-full spins %llu, "
        "dropped responses %llu, abandoned jobs %llu\n",
        static_cast<unsigned long long>(tx_ring_full_spins),
        static_cast<unsigned long long>(dispatch_ring_full_spins),
        static_cast<unsigned long long>(dropped_responses),
        static_cast<unsigned long long>(abandoned_jobs));
    out += buf;
    out += "stage\tcount\tmean_us\tp99_us\n";
    const auto row = [&](const char *name, const StageStats &st) {
        std::snprintf(buf, sizeof(buf), "%s\t%llu\t%.3f\t%.3f\n", name,
                      static_cast<unsigned long long>(st.count),
                      st.mean_ns / 1e3, st.p99_ns / 1e3);
        out += buf;
    };
    row("dispatch", dispatch);
    row("queueing", queueing);
    row("service", service);
    row("preempt", preempt);
    row("sojourn", sojourn);
    if (!per_class.empty()) {
        // Only rendered when the per-class scheduler recorded grants,
        // so the default snapshot output stays byte-stable.
        std::snprintf(buf, sizeof(buf),
                      "starvation promotions: %llu\n"
                      "class\tgrants\tfinished\tgranted_us\tdeficit_cyc\t"
                      "service_us\tsojourn_p99_us\n",
                      static_cast<unsigned long long>(
                          starvation_promotions));
        out += buf;
        for (size_t c = 0; c < per_class.size(); ++c) {
            const ClassQuantaStats &cs = per_class[c];
            std::snprintf(buf, sizeof(buf),
                          "%zu\t%llu\t%llu\t%.3f\t%lld\t%.3f\t%.3f\n", c,
                          static_cast<unsigned long long>(cs.grants),
                          static_cast<unsigned long long>(cs.finished),
                          cs.mean_granted_us,
                          static_cast<long long>(cs.deficit_cycles),
                          cs.service.mean_ns / 1e3,
                          cs.sojourn.p99_ns / 1e3);
            out += buf;
        }
    }
    return out;
}

} // namespace tq::telemetry
