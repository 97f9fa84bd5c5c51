#include "workloads/spin.h"

#include "probe/probe.h"

namespace tq::workloads {

namespace {

/** ~20-40ns of ALU work between probes. */
inline uint64_t
work_chunk(uint64_t x)
{
    for (int i = 0; i < 12; ++i)
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x;
}

} // namespace

void
spin_cycles(Cycles cycles)
{
    // Consumed-cycle accounting: one clock read per chunk both charges
    // the chunk (work, probe, clock read — all genuine service time) and
    // is the probe's stamp. Time spent preempted must not count, so the
    // loop restamps after the probe's slow path. Every chunk is charged
    // before its probe, so a job whose every probe yields still finishes.
    Cycles consumed = 0;
    volatile uint64_t sink = 0;
    uint64_t x = 88172645463325252ULL;
    Cycles last = rdcycles();
    while (consumed < cycles) {
        x = work_chunk(x);
        const Cycles now = rdcycles();
        consumed += now - last;
        last = now;
        if (tq_probe_at(now))
            last = rdcycles();
    }
    sink = x;
    (void)sink;
}

void
spin_for(SimNanos duration)
{
    spin_cycles(ns_to_cycles(duration));
}

} // namespace tq::workloads
