#include "telemetry/chrome_trace.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <optional>
#include <set>

namespace tq::telemetry {

const char *
event_name(EventKind kind)
{
    switch (kind) {
      case EventKind::JobDispatched:
        return "JobDispatched";
      case EventKind::QuantumStart:
        return "QuantumStart";
      case EventKind::ProbeYield:
        return "ProbeYield";
      case EventKind::GuardDeferredYield:
        return "GuardDeferredYield";
      case EventKind::JobFinished:
        return "JobFinished";
    }
    return "Unknown";
}

namespace {

constexpr int kPid = 1;

void
emit(std::ostream &os, bool &first, const std::string &line)
{
    if (!first)
        os << ",\n";
    first = false;
    os << "  " << line;
}

std::string
fmt(const char *format, ...)
{
    char buf[256];
    va_list args;
    va_start(args, format);
    std::vsnprintf(buf, sizeof(buf), format, args);
    va_end(args);
    return buf;
}

} // namespace

void
write_chrome_trace(std::ostream &os, const std::vector<TraceEvent> &events,
                   const ChromeTraceOptions &opts)
{
    const double cpn =
        opts.cycles_per_ns > 0 ? opts.cycles_per_ns : cycles_per_ns();
    const Cycles t0 = events.empty() ? 0 : events.front().tsc;
    const auto us_since_start = [&](Cycles tsc) {
        return static_cast<double>(tsc - t0) / cpn / 1e3;
    };

    os << "{\"traceEvents\":[\n";
    bool first = true;
    emit(os, first,
         fmt("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
             "\"args\":{\"name\":\"tinyquanta\"}}",
             kPid));
    std::set<uint8_t> tids;
    for (const TraceEvent &ev : events)
        tids.insert(ev.tid);
    for (uint8_t tid : tids) {
        const std::string name = tid == kDispatcherTid
                                     ? std::string("dispatcher")
                                     : fmt("worker %u", tid);
        emit(os, first,
             fmt("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                 "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                 kPid, tid, name.c_str()));
    }

    // One task coroutine runs per worker at a time, so each tid has at
    // most one open quantum; pair it with the yield/finish that ends it.
    std::map<uint8_t, TraceEvent> open_quantum;
    for (const TraceEvent &ev : events) {
        switch (ev.kind) {
          case EventKind::QuantumStart: {
            // A start with a still-open quantum means the closing event
            // was dropped; flush the orphan as an instant.
            auto it = open_quantum.find(ev.tid);
            if (it != open_quantum.end()) {
                emit(os, first,
                     fmt("{\"name\":\"QuantumStart\",\"ph\":\"i\","
                         "\"s\":\"t\",\"ts\":%.3f,\"pid\":%d,\"tid\":%u,"
                         "\"args\":{\"job\":%" PRIu64 "}}",
                         us_since_start(it->second.tsc), kPid, ev.tid,
                         it->second.job));
            }
            open_quantum[ev.tid] = ev;
            break;
          }
          case EventKind::ProbeYield:
          case EventKind::JobFinished: {
            auto it = open_quantum.find(ev.tid);
            if (it != open_quantum.end() && it->second.job == ev.job) {
                const TraceEvent &start = it->second;
                emit(os, first,
                     fmt("{\"name\":\"quantum\",\"ph\":\"X\","
                         "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,"
                         "\"tid\":%u,\"args\":{\"job\":%" PRIu64
                         ",\"slice\":%u,\"end\":\"%s\"}}",
                         us_since_start(start.tsc),
                         static_cast<double>(ev.tsc - start.tsc) / cpn /
                             1e3,
                         kPid, ev.tid, ev.job, start.arg,
                         event_name(ev.kind)));
                open_quantum.erase(it);
            }
            if (ev.kind == EventKind::JobFinished) {
                emit(os, first,
                     fmt("{\"name\":\"JobFinished\",\"ph\":\"i\","
                         "\"s\":\"t\",\"ts\":%.3f,\"pid\":%d,\"tid\":%u,"
                         "\"args\":{\"job\":%" PRIu64 "}}",
                         us_since_start(ev.tsc), kPid, ev.tid, ev.job));
            }
            break;
          }
          case EventKind::JobDispatched:
            emit(os, first,
                 fmt("{\"name\":\"JobDispatched\",\"ph\":\"i\","
                     "\"s\":\"t\",\"ts\":%.3f,\"pid\":%d,\"tid\":%u,"
                     "\"args\":{\"job\":%" PRIu64 ",\"worker\":%u}}",
                     us_since_start(ev.tsc), kPid, ev.tid, ev.job,
                     ev.arg));
            break;
          case EventKind::GuardDeferredYield:
            emit(os, first,
                 fmt("{\"name\":\"GuardDeferredYield\",\"ph\":\"i\","
                     "\"s\":\"t\",\"ts\":%.3f,\"pid\":%d,\"tid\":%u,"
                     "\"args\":{\"job\":%" PRIu64 "}}",
                     us_since_start(ev.tsc), kPid, ev.tid, ev.job));
            break;
        }
    }
    // Quanta still open at the end of the window (e.g. the run stopped
    // mid-slice) surface as instants rather than being silently lost.
    for (const auto &[tid, start] : open_quantum) {
        emit(os, first,
             fmt("{\"name\":\"QuantumStart\",\"ph\":\"i\",\"s\":\"t\","
                 "\"ts\":%.3f,\"pid\":%d,\"tid\":%u,"
                 "\"args\":{\"job\":%" PRIu64 "}}",
                 us_since_start(start.tsc), kPid, tid, start.job));
    }
    os << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

} // namespace tq::telemetry
