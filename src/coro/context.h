/**
 * @file
 * Raw user-space execution-context switching.
 *
 * This is the mechanism behind the paper's "cheap coroutine yields"
 * (section 3.1): a switch saves only the SysV callee-saved registers and
 * the FP control words, swaps stack pointers, and returns — no system
 * call, no signal-mask save, no page-table change. The switch is ~15
 * x86-64 instructions (context_x86_64.S, the only backend), giving the
 * tens-of-nanoseconds yield cost the paper relies on.
 */
#ifndef TQ_CORO_CONTEXT_H
#define TQ_CORO_CONTEXT_H

#include <cstddef>

extern "C" {

/**
 * Switch from the current context to @p to_sp.
 *
 * The current context's suspension point (its stack pointer after saving
 * registers) is stored through @p from_sp before the switch. @p arg is
 * delivered to the resumed context: as the return value of the
 * tq_context_jump call it is resuming from, or as the argument of the
 * entry function on first entry.
 *
 * @return the @p arg value passed by whichever context later jumps back
 *     into this one.
 */
void *tq_context_jump(void **from_sp, void *to_sp, void *arg);

} // extern "C"

namespace tq {

/** Entry function run on a fresh context; must never return. */
using ContextEntry = void (*)(void *arg);

/**
 * Prepare a fresh, never-run context on the given stack.
 *
 * @param stack_base lowest address of the stack region.
 * @param stack_size size of the region in bytes.
 * @param entry function invoked (with the first jump's arg) on first entry.
 * @return the stack-pointer cookie to pass to tq_context_jump as @p to_sp.
 */
void *make_context(void *stack_base, size_t stack_size, ContextEntry entry);

} // namespace tq

#endif // TQ_CORO_CONTEXT_H
