/**
 * @file
 * The per-core quantum scheduler shared by the real runtime and the
 * two-level simulator (paper section 3.2, DESIGN.md §4i).
 *
 * runtime::Worker instantiates it on `Cycles` and task pointers, the
 * simulator on `SimNanos` and unit ids, so both engines select, budget,
 * settle and promote with the same code. RunQueue is the PS/FCFS ring
 * or the LAS min-heap, either one in a contiguous vector; ClassLedger
 * keeps the per-class deficit and starvation accounts; SchedCore
 * composes them into the calls an engine makes and holds the shape's
 * per-slot base quanta, so a grant's base is resolved here for both
 * engines. Policy is the one per-core policy enum, and resolve_shape()
 * the one rule that turns it and the quanta into a SchedShape. The
 * fixed quantum is the degenerate shape — one slot holding
 * the scalar quantum, deficit clamp 0, guard off — where every budget
 * is the base quantum, every deficit settles to 0 and nothing is
 * promoted.
 */
#ifndef TQ_COMMON_SCHED_CORE_H
#define TQ_COMMON_SCHED_CORE_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace tq::sched {

/** Ledger slots; job classes at or beyond the limit share the last. */
inline constexpr int kMaxClasses = 8;

/** Defaults of the per-class scheduler: deficit clamp (microseconds)
 *  and starvation-guard threshold (consecutive skipped grants). */
inline constexpr double kDefaultDeficitClampUs = 8.0;
inline constexpr uint32_t kDefaultStarvationPromoteAfter = 128;

/** Slot of @p job_class among @p slots (negatives to 0, overflow to the
 *  last slot). */
constexpr int
clamp_slot(int job_class, int slots)
{
    return job_class < 0 ? 0 : job_class < slots ? job_class : slots - 1;
}

/** One queued job: the engine's handle plus the keys the queue and the
 *  ledger need, so neither dereferences the handle. seq and slot share
 *  one word: with a 32-bit handle an entry is 16 bytes, which the
 *  simulator's queues and LAS heap sifts move measurably faster. */
template <typename Handle>
struct RunEntry
{
    Handle handle{};
    uint32_t quanta = 0;   ///< quanta serviced so far
    uint64_t seq : 56 = 0; ///< admission order (LAS FIFO ties)
    uint64_t slot : 8 = 0; ///< ClassLedger slot
};

/**
 * One core's run queue. PS and FCFS rotate a ring — pop the front, push
 * to the back; they differ only in whether the engine arms a quantum.
 * The ring is a contiguous vector read from a head index: pops advance
 * the head, and the consumed prefix is erased once it is at least
 * kCompactAt entries and half the vector, so a rotation allocates
 * nothing and the amortized copy per pop is one entry. LAS keeps a
 * binary min-heap on (quanta, seq) in the same vector with the head
 * fixed at 0: the fewest serviced quanta win, the earliest admitted
 * among equals.
 */
template <typename Handle>
class RunQueue
{
  public:
    using Entry = RunEntry<Handle>;

    explicit RunQueue(bool las) : las_(las) {}

    bool empty() const { return head_ == q_.size(); }
    size_t size() const { return q_.size() - head_; }

    /** Queue a fresh job: zero quanta, the next admission seq. */
    void
    admit(Handle handle, int slot)
    {
        push(Entry{handle, 0, next_seq_++, static_cast<uint8_t>(slot)});
    }

    /** Queue a preempted entry back with one more quantum serviced. */
    void
    requeue(Entry e)
    {
        ++e.quanta;
        push(e);
    }

    /** Remove the policy's next entry. Requires !empty(). */
    [[gnu::always_inline]] Entry
    pop()
    {
        if (!las_) {
            const Entry e = q_[head_++];
            if (head_ >= kCompactAt && 2 * head_ >= q_.size())
                compact();
            return e;
        }
        std::pop_heap(q_.begin(), q_.end(), After{});
        const Entry e = q_.back();
        q_.pop_back();
        return e;
    }

    /** Remove @p slot's best entry (its LAS minimum, or its front-most
     *  ring entry) by an O(n) scan: the starvation guard's cold path. */
    std::optional<Entry>
    extract(int slot)
    {
        const auto first = q_.begin() + static_cast<ptrdiff_t>(head_);
        auto best = q_.end();
        for (auto it = first; it != q_.end(); ++it) {
            if (it->slot != slot)
                continue;
            if (best == q_.end() || After{}(*best, *it))
                best = it;
            if (!las_)
                break;
        }
        if (best == q_.end())
            return std::nullopt;
        const Entry e = *best;
        q_.erase(best);
        if (las_)
            std::make_heap(q_.begin(), q_.end(), After{});
        return e;
    }

    /** Empty the queue, passing every entry to @p each first. */
    template <typename F>
    void
    clear(F &&each)
    {
        for (size_t i = head_; i < q_.size(); ++i)
            each(q_[i]);
        q_.clear();
        head_ = 0;
    }

  private:
    /** Consumed ring entries kept before the prefix is erased. */
    static constexpr size_t kCompactAt = 64;

    /** std heaps are max-heaps, so "after" is the reversed order. */
    struct After
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            return a.quanta != b.quanta ? a.quanta > b.quanta
                                        : a.seq > b.seq;
        }
    };

    void
    push(const Entry &e)
    {
        q_.push_back(e);
        if (las_)
            std::push_heap(q_.begin(), q_.end(), After{});
    }

    /** Erase the ring's consumed prefix (kept out of pop()'s body). */
    [[gnu::noinline]] void
    compact()
    {
        q_.erase(q_.begin(), q_.begin() + static_cast<ptrdiff_t>(head_));
        head_ = 0;
    }

    bool las_;
    std::vector<Entry> q_;
    size_t head_ = 0; ///< first live ring entry; always 0 under LAS
    uint64_t next_seq_ = 0;
};

/**
 * Per-class accounts of one core (DESIGN.md §4i).
 *
 * Deficit: Deficit Round Robin's counter update. A grant's effective
 * budget is `max(base/4 + 1, base + deficit)`, the floor keeping a class
 * in debt progressing; settling a slice armed with that budget sets the
 * deficit to `effective - used`, clamped to ±clamp. Off the floor that
 * is `deficit += base - used`, so a class carries only its last slice's
 * overrun as debt, or its last leftover as credit. Clamp 0 carries no
 * deficit: every budget is the base. Starvation: a grant resets its
 * slot's `skipped` age and ages every other runnable slot; a slot at
 * `promote_after` is promoted ahead of the policy order (0: guard off).
 *
 * @tparam Time `Cycles` or `SimNanos`; deficits use its signed twin.
 */
template <typename Time>
class ClassLedger
{
  public:
    using Signed = typename std::conditional_t<std::is_integral_v<Time>,
                                               std::make_signed<Time>,
                                               std::type_identity<Time>>::type;

    struct Account
    {
        Signed deficit = 0;    ///< banked time, within ±clamp
        uint32_t skipped = 0;  ///< consecutive grants to other slots
                               ///< while this one was runnable
        uint32_t runnable = 0; ///< admitted, unfinished entries
        uint64_t grants = 0;   ///< slices granted
        Time granted = 0;      ///< sum of effective budgets granted
    };

    ClassLedger(int slots, Time deficit_clamp, uint64_t promote_after)
        : slots_(std::clamp(slots, 1, kMaxClasses)),
          clamp_(static_cast<Signed>(deficit_clamp)),
          promote_after_(promote_after)
    {
    }

    int slots() const { return slots_; }
    void enter(int slot) { ++acct_[slot].runnable; }
    void leave(int slot) { --acct_[slot].runnable; }

    /** Slot @p slot's account; slots past slots() read as zeros. */
    const Account &account(int slot) const { return acct_[slot]; }

    /** Effective budget of a grant to @p slot with base quantum @p base;
     *  the base itself when the shape carries no deficit (clamp 0). */
    Time
    budget(int slot, Time base) const
    {
        if (clamp_ == 0)
            return base;
        const Signed adjusted =
            static_cast<Signed>(base) + acct_[slot].deficit;
        const Signed floor = static_cast<Signed>(base / 4) + 1;
        return static_cast<Time>(adjusted > floor ? adjusted : floor);
    }

    /** Grant @p slot a slice with base quantum @p base: count it, age
     *  the other slots. @return the effective budget to arm. */
    Time
    grant(int slot, Time base)
    {
        const Time effective = budget(slot, base);
        ++acct_[slot].grants;
        acct_[slot].granted += effective;
        for (int s = 0; s < slots_; ++s) {
            if (s == slot)
                acct_[s].skipped = 0;
            else if (acct_[s].runnable != 0)
                ++acct_[s].skipped;
        }
        return effective;
    }

    /** Settle a slice armed with @p granted that ran for @p used: the
     *  deficit becomes what was available minus what was used. */
    void
    settle(int slot, Time granted, Time used)
    {
        if (clamp_ == 0)
            return;
        const Signed settled =
            static_cast<Signed>(granted) - static_cast<Signed>(used);
        acct_[slot].deficit = std::clamp(settled, -clamp_, clamp_);
    }

    /** The runnable slot skipped longest once at the guard's threshold
     *  (the lowest on ties), or -1. */
    int
    starved() const
    {
        int pick = -1;
        uint32_t worst = 0;
        for (int s = 0; promote_after_ != 0 && s < slots_; ++s) {
            const Account &a = acct_[s];
            if (a.runnable != 0 && a.skipped >= promote_after_ &&
                a.skipped > worst) {
                worst = a.skipped;
                pick = s;
            }
        }
        return pick;
    }

  private:
    int slots_;
    Signed clamp_;
    uint64_t promote_after_;
    Account acct_[kMaxClasses] = {};
};

/** Per-core quantum scheduling policy (paper sections 3.1-3.2). */
enum class Policy {
    ProcessorSharing, ///< round-robin quanta over admitted jobs
    Fcfs,             ///< run to completion in arrival order (the
                      ///< engine arms no quantum; probes never fire)
    Las,              ///< least-attained-service first: the job with
                      ///< the fewest serviced quanta (dynamic policies
                      ///< are possible because probes decide yields at
                      ///< run time, paper section 3.1)
};

/** How a core schedules, resolved once per engine instance by
 *  resolve_shape(). */
template <typename Time>
struct SchedShape
{
    bool las = false;           ///< LAS heap; PS and FCFS use the ring
    int slots = 1;              ///< ledger slots; 1 = the fixed quantum
    Time deficit_clamp = 0;     ///< 0 = no deficit carried
    uint64_t promote_after = 0; ///< 0 = starvation guard off
    Time quantum[kMaxClasses] = {}; ///< base quantum of each slot
};

/**
 * The one rule both engines resolve their shape by (DESIGN.md §4i).
 * Per-class mode — a non-empty @p class_quanta under PS or LAS — gives
 * every ledger slot its class's quantum (slots past the table keep
 * @p quantum), the deficit clamp and the starvation guard; each table
 * entry must be > 0. Otherwise, and always under FCFS (whose cores
 * never slice), the shape is the fixed quantum: one slot holding
 * @p quantum, neither knob.
 */
template <typename Time>
SchedShape<Time>
resolve_shape(Policy policy, Time quantum,
              const std::vector<Time> &class_quanta, Time deficit_clamp,
              uint64_t promote_after)
{
    SchedShape<Time> shape;
    shape.las = policy == Policy::Las;
    std::fill(std::begin(shape.quantum), std::end(shape.quantum), quantum);
    if (class_quanta.empty() || policy == Policy::Fcfs)
        return shape;
    shape.slots = kMaxClasses;
    shape.deficit_clamp = deficit_clamp;
    shape.promote_after = promote_after;
    for (size_t c = 0; c < class_quanta.size() &&
                       c < static_cast<size_t>(kMaxClasses);
         ++c) {
        TQ_CHECK(class_quanta[c] > 0);
        shape.quantum[c] = class_quanta[c];
    }
    return shape;
}

/**
 * One core's scheduler. Per job an engine calls admit(), then finish()
 * when it completes. Per slice: next() picks the entry, grant() returns
 * the budget to arm, settle() books the time used, and requeue() returns
 * a preempted entry.
 */
template <typename Time, typename Handle>
class SchedCore
{
  public:
    using Entry = RunEntry<Handle>;

    explicit SchedCore(const SchedShape<Time> &shape)
        : runq_(shape.las),
          ledger_(shape.slots, shape.deficit_clamp, shape.promote_after)
    {
        std::copy(std::begin(shape.quantum), std::end(shape.quantum),
                  quantum_);
    }

    bool empty() const { return runq_.empty(); }
    const ClassLedger<Time> &ledger() const { return ledger_; }

    /** Admit a job of class @p job_class. @return its ledger slot. */
    int
    admit(Handle handle, int job_class)
    {
        const int slot = clamp_slot(job_class, ledger_.slots());
        ledger_.enter(slot);
        runq_.admit(handle, slot);
        return slot;
    }

    /** The starved slot's best entry when the guard fires (second =
     *  true), the policy order's next otherwise. Requires !empty().
     *  Forced inline with pop(): called once per slice, and out of line
     *  the call costs the simulator's slice loop several percent. */
    [[gnu::always_inline]] std::pair<Entry, bool>
    next()
    {
        if (const int starved = ledger_.starved(); starved >= 0)
            if (const std::optional<Entry> e = runq_.extract(starved))
                return {*e, true};
        return {runq_.pop(), false};
    }

    /** Grant @p e a slice on its slot's base quantum. @return the
     *  effective budget to arm. */
    Time
    grant(const Entry &e)
    {
        return ledger_.grant(e.slot, quantum_[e.slot]);
    }

    void
    settle(const Entry &e, Time granted, Time used)
    {
        ledger_.settle(e.slot, granted, used);
    }

    void requeue(const Entry &e) { runq_.requeue(e); }
    void finish(const Entry &e) { ledger_.leave(e.slot); }

    /** Drop every queued entry (forced stop). @return how many. */
    size_t
    abandon()
    {
        const size_t n = runq_.size();
        runq_.clear([this](const Entry &e) { ledger_.leave(e.slot); });
        return n;
    }

  private:
    RunQueue<Handle> runq_;
    ClassLedger<Time> ledger_;
    Time quantum_[kMaxClasses]; ///< the shape's per-slot base quanta
};

} // namespace tq::sched

#endif // TQ_COMMON_SCHED_CORE_H
