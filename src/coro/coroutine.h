/**
 * @file
 * Stackful coroutines — the execution contexts of forced multitasking.
 *
 * A Coroutine runs a callable on its own guarded stack and can suspend
 * from arbitrarily deep call frames via yield(); resume() continues it
 * from the suspension point. This is the property forced multitasking
 * needs: compiler-inserted probes yield from wherever the job happens to
 * be executing (paper section 3.1).
 *
 * Threading model: a coroutine is owned by one worker thread at a time.
 * resume() is called from the scheduler side, yield() from inside the
 * coroutine; neither is reentrant. A coroutine runs one body for its
 * whole life: TQ workers recycle task coroutines by giving each a
 * persistent body that serves job after job (runtime/worker.cc).
 */
#ifndef TQ_CORO_COROUTINE_H
#define TQ_CORO_COROUTINE_H

#include <functional>

#include "coro/context.h"
#include "coro/stack.h"

namespace tq {

/** A suspendable execution context running a user callable. */
class Coroutine
{
  public:
    /** Body type; receives the coroutine so it can yield. */
    using Body = std::function<void(Coroutine &)>;

    /**
     * Create a coroutine (not started) around @p body, on a fresh
     * guarded stack.
     * @param body callable run on the coroutine stack at first resume().
     */
    explicit Coroutine(Body body);

    /**
     * Destroying a suspended (unfinished) coroutine is allowed: its stack
     * is discarded without unwinding, so bodies must not rely on local
     * destructors running if abandoned mid-flight. TQ's runtime only
     * destroys idle (finished or never-started) coroutines.
     */
    ~Coroutine() = default;

    Coroutine(const Coroutine &) = delete;
    Coroutine &operator=(const Coroutine &) = delete;

    /**
     * Run the coroutine until its next yield() or until the body returns.
     * Must not be called on a finished coroutine.
     */
    void resume();

    /**
     * Suspend and return control to the resume() caller.
     * Must be called from inside the coroutine body, on this coroutine's
     * own stack: a yield from native context, or of an outer coroutine
     * from inside a nested one, fails a check.
     */
    void yield();

    /** True once the body has returned. */
    bool done() const { return done_; }

  private:
    static void entry(void *self);
    void run_body();

    Stack stack_;
    Body body_;
    void *self_sp_ = nullptr;    ///< suspension point of the coroutine
    void *caller_sp_ = nullptr;  ///< suspension point of the resumer
    bool running_ = false;
    bool done_ = false;
};

} // namespace tq

#endif // TQ_CORO_COROUTINE_H
