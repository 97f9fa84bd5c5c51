#include "compiler/exec.h"

#include <cmath>
#include <unordered_map>
#include <vector>

namespace tq::compiler {

namespace {

/**
 * Cycles-per-instruction ratio CI uses to translate the quantum into an
 * instruction budget (profiled or assumed; the translation is the
 * fundamental inaccuracy of counter-based probing).
 */
constexpr double kCiAssumedCpi = 1.2;

/** Abort runaway programs after this many real instructions. */
constexpr uint64_t kMaxInstrs = 200'000'000;

/** One activation record of the interpreter. */
struct Frame
{
    int fn = 0;
    int block = 0;
    size_t instr = 0;
    /** TripCount branch state: remaining iterations per latch block. */
    std::unordered_map<int, uint64_t> trips;
    /** Loop-guard iteration counts keyed by (block << 16 | instr index). */
    std::unordered_map<int64_t, uint64_t> guard_iters;
};

} // namespace

ExecResult
execute(const Module &m, const ExecConfig &cfg)
{
    validate(m);
    ExecResult r;
    Rng rng(cfg.seed);
    const CostModel &cm = cfg.cost;

    const double target_icount = cfg.quantum_cycles / kCiAssumedCpi;

    double last_yield = 0;       // total_cycles at the previous yield
    double ci_counter = 0;       // CI instruction counter
    uint64_t stretch = 0;        // instrs since the last probe check
    double abs_err_sum = 0;

    auto charge_real = [&](double cycles) {
        r.total_cycles += cycles;
        ++r.real_instrs;
        ++stretch;
        if (stretch > r.max_stretch_instrs)
            r.max_stretch_instrs = stretch;
    };
    auto charge_probe = [&](double cycles) {
        r.total_cycles += cycles;
        r.probe_cycles += cycles;
    };
    auto do_yield = [&] {
        const double since = r.total_cycles - last_yield;
        abs_err_sum += std::fabs(since - cfg.quantum_cycles);
        ++r.yields;
        last_yield = r.total_cycles;
    };
    auto clock_check = [&] {
        // A probe site where yielding was possible: stretch resets.
        stretch = 0;
        ++r.probe_sites_hit;
        if (r.total_cycles - last_yield >= cfg.quantum_cycles)
            do_yield();
    };

    std::vector<Frame> stack;
    stack.push_back(Frame{});

    while (!stack.empty()) {
        Frame &f = stack.back();
        const Function &fn = m.functions[static_cast<size_t>(f.fn)];
        const Block &blk = fn.blocks[static_cast<size_t>(f.block)];

        if (r.real_instrs > kMaxInstrs)
            tq::fatal("execute: instruction budget exceeded (runaway IR?)");

        if (f.instr < blk.instrs.size()) {
            const Instr &ins = blk.instrs[f.instr];
            ++f.instr;
            switch (ins.op) {
              case Op::Probe:
                switch (ins.probe) {
                  case ProbeKind::TqClock:
                    charge_probe(cm.tq_probe);
                    clock_check();
                    break;
                  case ProbeKind::CiCounter:
                    charge_probe(cm.ci_probe);
                    ci_counter += ins.ci_increment;
                    stretch = 0;
                    ++r.probe_sites_hit;
                    if (ci_counter >= target_icount) {
                        do_yield();
                        ci_counter = 0;
                    }
                    break;
                  case ProbeKind::CiCycles:
                    charge_probe(cm.ci_probe);
                    ci_counter += ins.ci_increment;
                    stretch = 0;
                    ++r.probe_sites_hit;
                    if (ci_counter >= target_icount) {
                        charge_probe(cm.ci_cycles_extra);
                        if (r.total_cycles - last_yield >=
                            cfg.quantum_cycles) {
                            do_yield();
                        }
                        ci_counter = 0;
                    }
                    break;
                  case ProbeKind::TqLoopGuard: {
                    switch (ins.gadget) {
                      case LoopGadget::Counter:
                        charge_probe(cm.loop_counter);
                        break;
                      case LoopGadget::Induction:
                        charge_probe(cm.loop_induction);
                        break;
                      case LoopGadget::Cloned:
                        // Runtime-selected instrumented clone: no
                        // per-iteration bookkeeping cost.
                        break;
                    }
                    const int64_t key =
                        (static_cast<int64_t>(f.block) << 16) |
                        static_cast<int64_t>(f.instr - 1);
                    const uint64_t count = ++f.guard_iters[key];
                    if (count % ins.period == 0) {
                        charge_probe(cm.tq_probe);
                        clock_check();
                    }
                    break;
                  }
                  case ProbeKind::None:
                    TQ_CHECK(false);
                }
                break;
              case Op::Load: {
                const bool miss = rng.bernoulli(cm.load_miss_rate);
                charge_real(miss ? cm.load_miss : cm.load_hit);
                break;
              }
              case Op::Call:
                charge_real(cm.call_overhead);
                if (ins.callee >= 0) {
                    if (stack.size() > 512)
                        tq::fatal("execute: call depth limit exceeded");
                    Frame callee;
                    callee.fn = ins.callee;
                    stack.push_back(std::move(callee));
                    // NOTE: `f` is invalidated; restart dispatch loop.
                } else {
                    // External call: opaque block of real work.
                    r.total_cycles += ins.ext_cost;
                    r.real_instrs +=
                        static_cast<uint64_t>(ins.ext_cost / cm.ialu);
                    stretch +=
                        static_cast<uint64_t>(ins.ext_cost / cm.ialu);
                    if (stretch > r.max_stretch_instrs)
                        r.max_stretch_instrs = stretch;
                }
                break;
              default:
                charge_real(cm.expected(ins.op));
                break;
            }
            continue;
        }

        // Block exhausted: follow the terminator.
        switch (blk.term.kind) {
          case Terminator::Kind::Ret:
            stack.pop_back();
            break;
          case Terminator::Kind::Jump:
            f.block = blk.term.target;
            f.instr = 0;
            break;
          case Terminator::Kind::Branch: {
            bool take;
            if (blk.term.model.kind == BranchModel::Kind::TripCount) {
                auto [it, inserted] =
                    f.trips.try_emplace(f.block, blk.term.model.trip_count);
                if (--it->second > 0) {
                    take = true;
                } else {
                    f.trips.erase(it);
                    take = false;
                }
            } else {
                take = rng.bernoulli(blk.term.model.prob);
            }
            f.block = take ? blk.term.target : blk.term.target_else;
            f.instr = 0;
            break;
          }
        }
    }

    r.yield_mae_cycles = r.yields ? abs_err_sum / static_cast<double>(r.yields)
                                  : 0.0;
    return r;
}

} // namespace tq::compiler
