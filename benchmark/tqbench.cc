/**
 * @file
 * tqbench — one benchmark workload per process.
 *
 *   tqbench --workload NAME --seed N --seconds S --trace 0|1
 *           [--out DIR] [--golden FILE] [--accept-noisy]
 *
 * First checks the host (workloads.h NoiseCheck). A noisy host ends the
 * process with exit code 3 before any work unless --accept-noisy is
 * given; run.py retries such runs. Otherwise the workload runs and the
 * last line of stdout is one JSON object: the end-to-end metrics
 * (--trace 0) or the per-layer rows (--trace 1), each with its unit and
 * sample count, plus request counts, failed checks and diagnostics.
 * Exit code 0 whenever a result line is printed (check "correct").
 */
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

using namespace tqbench;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string out_dir = ".bench_out";
    std::string golden = "benchmark/golden/sim_grid.digest";
    bool accept_noisy = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "tqbench: %s\nusage: tqbench --workload "
                 "rpc_tiny|extreme_bimodal|kv_zipf_las|sim_grid --seed N "
                 "--seconds S --trace 0|1 [--out DIR] [--golden FILE] "
                 "[--accept-noisy]\n",
                 why);
    std::exit(2);
}

Args
parse(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--accept-noisy") {
            a.accept_noisy = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(v.c_str());
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--out")
            a.out_dir = v;
        else if (k == "--golden")
            a.golden = v;
        else
            usage(("unknown option " + k).c_str());
    }
    if (!is_runtime_workload(a.workload) && a.workload != "sim_grid")
        usage("unknown workload");
    if (!(a.seconds > 0 && a.seconds <= 600))
        usage("--seconds must be in (0, 600]");
    return a;
}

void
json_string(const std::string &s)
{
    std::putchar('"');
    for (char c : s) {
        if (c == '"' || c == '\\')
            std::putchar('\\');
        std::putchar(c >= 0x20 ? c : ' ');
    }
    std::putchar('"');
}

void
json_metrics(const char *key, const std::vector<Metric> &ms)
{
    std::printf(",\"%s\":{", key);
    for (size_t i = 0; i < ms.size(); ++i) {
        std::printf("%s", i ? "," : "");
        json_string(ms[i].name);
        std::printf(":{\"value\":%.17g,\"unit\":",
                    std::isfinite(ms[i].value) ? ms[i].value : 0.0);
        json_string(ms[i].unit);
        std::printf(",\"samples\":%llu}",
                    static_cast<unsigned long long>(ms[i].samples));
    }
    std::printf("}");
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Value of a metric every run of this shape reports. */
double
value_of(const Result &r, const char *name)
{
    const Metric *m = r.find(name);
    return m != nullptr ? m->value : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parse(argc, argv);
    const bool runtime = is_runtime_workload(args.workload);
    // Runtime workloads: client (this thread), dispatcher, two workers.
    const int threads = runtime ? 4 : 1;
    if (std::thread::hardware_concurrency() < static_cast<unsigned>(threads)) {
        std::fprintf(stderr, "tqbench: needs %d CPUs, host has %u\n", threads,
                     std::thread::hardware_concurrency());
        return 2;
    }

    const NoiseCheck nc = check_host_noise(threads);
    std::printf("# host check: cpu_share %.3f, calibration error %.4f%%%s\n",
                nc.cpu_share, nc.calib_err * 100,
                nc.noisy ? " -> noisy" : "");
    if (nc.noisy && !args.accept_noisy) {
        std::printf("{\"noisy\":true,\"cpu_share\":%.17g,\"calib_err\":%.17g}\n",
                    nc.cpu_share, nc.calib_err);
        return 3;
    }

    Result out;
    std::vector<Metric> diag;
    const std::string trace_path = args.out_dir + "/trace-" + args.workload +
                                   "-seed" + std::to_string(args.seed) +
                                   ".json";
    if (!args.trace) {
        out = runtime ? run_runtime_workload(args.workload, args.seed,
                                             args.seconds, 3, false, 0, "")
                      : run_sim_grid(args.seed, args.seconds, 3, true,
                                     args.golden, "");
        out.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
        diag = out.diag;
    } else {
        // Per-layer rows: the traced run for the layers this workload
        // exercises, a fixed reference run for the engine it does not,
        // and the isolated ledger; trace.overhead_pct compares the
        // traced run against an untraced one of the same seed.
        std::filesystem::create_directories(args.out_dir);
        const Result ledger = run_ledger();
        double get_ns = 0;
        for (const Metric &m : ledger.layers)
            if (m.name == "minikv.get_ns")
                get_ns = m.value;
        const double half = args.seconds / 2;
        Result untraced, traced, reference;
        if (runtime) {
            untraced = run_runtime_workload(args.workload, args.seed, half,
                                            1, false, get_ns, "");
            traced = run_runtime_workload(args.workload, args.seed, half, 1,
                                          true, get_ns, trace_path);
            reference = run_sim_grid(args.seed, 0, 1, false, "", "");
        } else {
            untraced = run_sim_grid(args.seed, half, 1, true, args.golden, "");
            traced = run_sim_grid(args.seed, half, 1, true, args.golden,
                                  trace_path);
            reference = run_runtime_workload("rpc_tiny", args.seed, 1.5, 1,
                                             true, get_ns, "");
        }
        out.absorb(ledger);
        out.absorb(untraced);
        out.absorb(traced);
        out.absorb(reference);
        out.metrics = traced.layers;
        out.metrics.insert(out.metrics.end(), reference.layers.begin(),
                           reference.layers.end());
        out.metrics.insert(out.metrics.end(), ledger.layers.begin(),
                           ledger.layers.end());
        const double u = value_of(untraced, "lat_p50_us");
        const double t = value_of(traced, "lat_p50_us");
        out.metrics.push_back({"trace.overhead_pct",
                               u > 0 ? 100 * (t - u) / u : 0, "%", 2});
        diag = traced.diag;
        for (const Metric &m : traced.metrics)
            diag.push_back({"traced." + m.name, m.value, m.unit, m.samples});
        for (const Metric &m : untraced.metrics)
            diag.push_back({"untraced." + m.name, m.value, m.unit, m.samples});
        diag.push_back({"peak_rss_mb", peak_rss_mb(), "MB", 1});
    }

    std::printf("{\"workload\":");
    json_string(args.workload);
    std::printf(",\"seed\":%llu,\"seconds\":%.17g,\"trace\":%d,"
                "\"noise\":{\"cpu_share\":%.17g,\"calib_err\":%.17g,"
                "\"noisy\":%s},\"correct\":%s,\"attempted\":%llu,"
                "\"failed\":%llu,\"errors\":[",
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, nc.cpu_share, nc.calib_err,
                nc.noisy ? "true" : "false",
                out.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    for (size_t i = 0; i < out.errors.size(); ++i) {
        std::printf("%s", i ? "," : "");
        json_string(out.errors[i]);
    }
    std::printf("]");
    json_metrics("metrics", out.metrics);
    json_metrics("diag", diag);
    std::printf("}\n");
    return 0;
}
