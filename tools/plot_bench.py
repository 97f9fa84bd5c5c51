#!/usr/bin/env python3
"""Plot the TSV series printed by the bench/ binaries.

The figure benches print self-describing tab-separated tables:

    # Figure 1 — ...
    rate_mrps   q0.5us  q1.0us ...
    0.50        1       1
    ...

This script turns one bench's stdout (or a saved file) into a PNG per
table, with log-scaled y axes for latency series. matplotlib is the only
dependency; the benches themselves never need it.

A .json input is treated as a recorded calibration run and dispatched
on its keys: dispatcher_throughput rows (BENCH_dispatch.json) become a
per-worker-count Mrps bar chart plus the sharded-dispatcher scaling
panel; event_queue_hold rows (BENCH_sim.json) become events/sec bars
over queue size plus the per-bench figure-suite speedup chart;
a scenarios document (BENCH_scenarios.json) becomes baseline-vs-bursty
p999 bars plus the fan-out sojourn curves; a quanta document
(BENCH_quanta.json) becomes the fixed-quantum sweep with per-class and
adaptive reference lines; a compiler document (BENCH_compiler.json)
becomes TQ-vs-TQopt probe-count and proven-bound bar charts.

Usage:
    build/bench/fig01_quantum_slowdown | tools/plot_bench.py -o fig01.png
    tools/plot_bench.py bench_output_fig07.txt -o fig07.png
    tools/plot_bench.py BENCH_dispatch.json -o dispatch.png
    tools/plot_bench.py BENCH_sim.json -o sim_core.png
"""

import argparse
import json
import sys


def cell_value(cell):
    """Numeric value of a table cell, or None. Accepts the benches'
    '2.04x' speedup/scaling suffix; 'sat' and blanks are None."""
    if cell in ("sat", ""):
        return None
    try:
        return float(cell.rstrip("x"))
    except ValueError:
        return None


def parse_tables(lines):
    """Split bench output into (title, header, rows) tables."""
    tables = []
    title = ""
    header = None
    rows = []

    def flush():
        nonlocal header, rows
        if header and rows:
            tables.append((title, header, rows))
        header, rows = None, []

    for line in lines:
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("##"):
                flush()
            if not tables or line.startswith("##"):
                title = line.lstrip("# ").strip()
            continue
        cells = line.split("\t")
        if len(cells) < 2:
            continue
        try:
            float(cells[0])
        except ValueError:
            flush()
            header = cells
            continue
        if header:
            rows.append(cells)
    flush()
    return tables


def plot_dispatch_json(path, output):
    """Render BENCH_dispatch.json: hot-path Mrps bars and the
    sharded-dispatcher scaling panel when the run recorded one."""
    with open(path) as f:
        data = json.load(f)
    rows = data["dispatcher_throughput"]
    workers = [r["workers"] for r in rows]
    sharded = data.get("sharded_scaling")

    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    ncols = 2 if sharded else 1
    fig, axes = plt.subplots(1, ncols, figsize=(5.5 * ncols, 4.5),
                             squeeze=False)
    ax = axes[0][0]
    xs = range(len(workers))
    width = 0.38
    ax.bar(list(xs), [r["packed_mrps"] for r in rows], width)
    for x, r in zip(xs, rows):
        ax.annotate(f'{r["packed_ns"]:.1f} ns', (x, r["packed_mrps"]),
                    ha="center", va="bottom", fontsize=8)
    ax.set_xticks(list(xs))
    ax.set_xticklabels([str(w) for w in workers])
    ax.set_xlabel("workers")
    ax.set_ylabel("dispatcher Mrps")
    ax.set_title("dispatcher throughput, one shard", fontsize=9)
    ax.grid(True, axis="y", alpha=0.3)

    if sharded:
        ax2 = axes[0][1]
        rt = sharded["runtime_isolated"]
        sim = sharded["sim_capacity_64c_0p5us_slo10"]
        shard_counts = [r["shards"] for r in rt]
        xs2 = range(len(shard_counts))
        ax2.bar([x - width / 2 for x in xs2],
                [r["scaling_x"] for r in rt], width,
                label="runtime (isolated per-shard)")
        ax2.bar([x + width / 2 for x in xs2],
                [r["scaling_x"] for r in sim], width,
                label="sim cluster capacity")
        for x, r in zip(xs2, sim):
            ax2.annotate(f'{r["max_mrps"]:.0f} Mrps',
                         (x + width / 2, r["scaling_x"]), ha="center",
                         va="bottom", fontsize=7)
        ax2.plot([x - 0.5 for x in xs2] + [len(shard_counts) - 0.5],
                 [s for s in shard_counts] + [shard_counts[-1]],
                 drawstyle="steps-post", linestyle=":", alpha=0.6,
                 label="linear")
        ax2.set_xticks(list(xs2))
        ax2.set_xticklabels([str(s) for s in shard_counts])
        ax2.set_xlabel("dispatcher shards")
        ax2.set_ylabel("aggregate scaling vs 1 shard (x)")
        ax2.set_title("sharded tier scaling (fig17)", fontsize=9)
        ax2.legend(fontsize=8)
        ax2.grid(True, axis="y", alpha=0.3)

    fig.tight_layout()
    fig.savefig(output, dpi=130)
    print(f"wrote {output}")


def plot_sim_json(path, output):
    """Render BENCH_sim.json: event-queue hold bars + suite speedups."""
    with open(path) as f:
        data = json.load(f)
    hold = data["event_queue_hold"]
    suite = data.get("figure_suite", {}).get("rows", [])

    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    ncols = 2 if suite else 1
    fig, axes = plt.subplots(1, ncols, figsize=(6 * ncols, 4.5),
                             squeeze=False)
    ax = axes[0][0]
    xs = range(len(hold))
    ax.bar(list(xs), [r["meps"] for r in hold], 0.5)
    ax.set_xticks(list(xs))
    ax.set_xticklabels([f'{r["queue_size"]:,}' for r in hold])
    ax.set_xlabel("steady queue size (events)")
    ax.set_ylabel("hold-model Mevents/s")
    ax.set_title("EventQueue hold model", fontsize=9)
    ax.grid(True, axis="y", alpha=0.3)

    if suite:
        ax2 = axes[0][1]
        ys = range(len(suite))
        ax2.barh(list(ys), [r["speedup"] for r in suite])
        ax2.set_yticks(list(ys))
        ax2.set_yticklabels([r["bench"] for r in suite], fontsize=7)
        ax2.invert_yaxis()
        ax2.axvline(1.0, linestyle="--", alpha=0.5)
        ax2.set_xlabel("wall-clock speedup vs seed (x)")
        cpus = data["figure_suite"].get("cpus")
        host = f" ({cpus}-CPU host)" if cpus else ""
        ax2.set_title(f"figure-suite wall clock{host}", fontsize=9)
        ax2.grid(True, axis="x", alpha=0.3)

    fig.tight_layout()
    fig.savefig(output, dpi=130)
    print(f"wrote {output}")


def plot_scenarios_json(path, output):
    """Render BENCH_scenarios.json: burst/zipf tail bars + fan-out."""
    with open(path) as f:
        data = json.load(f)
    sc = data["scenarios"]

    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 2, figsize=(12, 4.5), squeeze=False)

    ax = axes[0][0]
    pairs = [
        ("burst (sim)", sc["burst_sim"]["poisson_p999_us"],
         sc["burst_sim"]["mmpp_p999_us"]),
        ("burst (runtime)", sc["burst_runtime"]["poisson_p999_us"],
         sc["burst_runtime"]["mmpp_p999_us"]),
        ("minikv (runtime)", sc["zipf_minikv"]["uniform_p999_us"],
         sc["zipf_minikv"]["zipf_p999_us"]),
    ]
    xs = range(len(pairs))
    width = 0.38
    ax.bar([x - width / 2 for x in xs], [p[1] for p in pairs], width,
           label="smooth baseline")
    ax.bar([x + width / 2 for x in xs], [p[2] for p in pairs], width,
           label="bursty / skewed")
    for x, p in zip(xs, pairs):
        if p[1] > 0:
            ax.annotate(f"{p[2] / p[1]:.2f}x", (x + width / 2, p[2]),
                        ha="center", va="bottom", fontsize=8)
    ax.set_xticks(list(xs))
    ax.set_xticklabels([p[0] for p in pairs], fontsize=8)
    ax.set_ylabel("p999 sojourn (us)")
    ax.set_yscale("log")
    ax.set_title("tail under MMPP bursts / Zipf hot keys", fontsize=9)
    ax.legend(fontsize=8)
    ax.grid(True, axis="y", alpha=0.3)

    ax2 = axes[0][1]
    for key, label in (("fanout_sim", "sim"),
                       ("fanout_runtime", "runtime")):
        rows = sc.get(key, [])
        if rows:
            ax2.plot([r["k"] for r in rows], [r["mean_us"] for r in rows],
                     marker="o", label=f"mean sojourn ({label})")
    ax2.set_xlabel("fan-out k (shards of demand/k)")
    ax2.set_ylabel("mean logical sojourn (us)")
    ax2.set_xscale("log", base=2)
    ax2.set_yscale("log")
    ax2.set_title("scatter-gather fan-out", fontsize=9)
    ax2.legend(fontsize=8)
    ax2.grid(True, alpha=0.3)

    fig.tight_layout()
    fig.savefig(output, dpi=130)
    print(f"wrote {output}")


def plot_quanta_json(path, output):
    """Render BENCH_quanta.json: per workload, the fixed-quantum sweep
    of short-class p999 slowdown with the per-class and adaptive arms
    overlaid as horizontal reference lines."""
    with open(path) as f:
        data = json.load(f)
    loads = data["workloads"]

    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, len(loads), figsize=(6 * len(loads), 4.5),
                             squeeze=False)
    for ax, (name, w) in zip(axes[0], sorted(loads.items())):
        fixed = [r for r in w["fixed"] if not r["saturated"]]
        ax.plot([r["quantum_us"] for r in fixed],
                [r["short_p999_slowdown"] for r in fixed], marker="o",
                label="fixed quantum")
        for key, style in (("per_class", "--"), ("adaptive", ":")):
            arm = w[key]
            if not arm["saturated"]:
                ax.axhline(arm["short_p999_slowdown"], linestyle=style,
                           alpha=0.8,
                           label=f'{key} ({arm["quanta_us"]}us)')
        ax.set_xscale("log")
        ax.set_xlabel("fixed quantum (us)")
        ax.set_ylabel(f'{w["short_class"]} p999 slowdown')
        ax.set_title(f'{name} @ {w["rate_mrps"]} Mrps', fontsize=9)
        ax.legend(fontsize=8)
        ax.grid(True, alpha=0.3)

    fig.tight_layout()
    fig.savefig(output, dpi=130)
    print(f"wrote {output}")


def plot_compiler_json(path, output):
    """Render BENCH_compiler.json: per-workload TQ-vs-TQopt probe counts
    and proven bounds from the verify-guided placement optimizer."""
    with open(path) as f:
        data = json.load(f)
    rows = data["per_workload"]
    names = [r["workload"] for r in rows]

    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(2, 1, figsize=(12, 8), squeeze=False)
    xs = range(len(rows))
    width = 0.38

    ax = axes[0][0]
    ax.bar([x - width / 2 for x in xs],
           [r["probes"]["tq"] for r in rows], width, label="tq")
    ax.bar([x + width / 2 for x in xs],
           [r["probes"]["tq_opt"] for r in rows], width, label="tq_opt")
    ax.set_ylabel("static probes")
    ax.set_title("probe count before/after optimize_placement", fontsize=9)
    ax.set_xticks(list(xs))
    ax.set_xticklabels(names, rotation=60, ha="right", fontsize=7)
    ax.legend(fontsize=8)
    ax.grid(True, axis="y", alpha=0.3)

    ax2 = axes[1][0]
    ax2.bar([x - width / 2 for x in xs],
            [r["proven_bound"]["tq"] for r in rows], width, label="tq")
    ax2.bar([x + width / 2 for x in xs],
            [r["proven_bound"]["tq_opt"] for r in rows], width,
            label="tq_opt")
    ax2.set_ylabel("proven stretch bound")
    ax2.set_yscale("log")
    ax2.set_title("verifier's proven worst-case probe-free stretch",
                  fontsize=9)
    ax2.set_xticks(list(xs))
    ax2.set_xticklabels(names, rotation=60, ha="right", fontsize=7)
    ax2.legend(fontsize=8)
    ax2.grid(True, axis="y", alpha=0.3)

    fig.tight_layout()
    fig.savefig(output, dpi=130)
    print(f"wrote {output}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("input", nargs="?", help="bench output file (default stdin)")
    ap.add_argument("-o", "--output", default="bench.png", help="output PNG")
    args = ap.parse_args()

    if args.input and args.input.endswith(".json"):
        with open(args.input) as f:
            keys = json.load(f)
        if "scenarios" in keys:
            plot_scenarios_json(args.input, args.output)
        elif "workloads" in keys:
            plot_quanta_json(args.input, args.output)
        elif "per_workload" in keys:
            plot_compiler_json(args.input, args.output)
        elif "event_queue_hold" in keys:
            plot_sim_json(args.input, args.output)
        else:
            plot_dispatch_json(args.input, args.output)
        return

    text = open(args.input).readlines() if args.input else sys.stdin.readlines()
    tables = parse_tables(text)
    if not tables:
        sys.exit("no tables found in input")

    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, len(tables),
                             figsize=(6 * len(tables), 4.5), squeeze=False)
    for ax, (title, header, rows) in zip(axes[0], tables):
        xs = [float(r[0]) for r in rows]
        for col in range(1, len(header)):
            ys, pts_x = [], []
            for x, r in zip(xs, rows):
                v = cell_value(r[col]) if col < len(r) else None
                if v is not None:
                    pts_x.append(x)
                    ys.append(v)
            if ys:
                ax.plot(pts_x, ys, marker="o", label=header[col])
        ax.set_xlabel(header[0])
        ax.set_title(title, fontsize=9)
        if any(v is not None and v > 50 for _, h, rr in tables
               for r in rr for v in map(cell_value, r[1:])):
            ax.set_yscale("log")
        ax.legend(fontsize=7)
        ax.grid(True, alpha=0.3)
    fig.tight_layout()
    fig.savefig(args.output, dpi=130)
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
