#include "coro/coroutine.h"

#include <cstdint>
#include <cstring>
#include <utility>

#include "common/check.h"

namespace tq {

extern "C" void tq_context_trampoline();

void *
make_context(void *stack_base, size_t stack_size, ContextEntry entry)
{
    // See context_x86_64.S for the frame layout being built here.
    uintptr_t top = reinterpret_cast<uintptr_t>(stack_base) + stack_size;
    top &= ~uintptr_t{15}; // 16-byte align the stack top

    uint64_t *frame = reinterpret_cast<uint64_t *>(top) - 9;
    // frame[0]: mxcsr / x87 cw — capture the current thread's settings.
    uint32_t mxcsr;
    uint16_t fcw;
    asm volatile("stmxcsr %0" : "=m"(mxcsr));
    asm volatile("fnstcw %0" : "=m"(fcw));
    std::memcpy(reinterpret_cast<char *>(frame), &mxcsr, sizeof(mxcsr));
    std::memcpy(reinterpret_cast<char *>(frame) + 4, &fcw, sizeof(fcw));
    frame[1] = 0;                                       // r15
    frame[2] = 0;                                       // r14
    frame[3] = 0;                                       // r13
    frame[4] = reinterpret_cast<uint64_t>(entry);       // r12
    frame[5] = 0;                                       // rbx
    frame[6] = 0;                                       // rbp
    frame[7] = reinterpret_cast<uint64_t>(&tq_context_trampoline); // rip
    frame[8] = 0;                                       // terminator
    return frame;
}

Coroutine::Coroutine(Body body) : body_(std::move(body))
{
    TQ_CHECK(body_);
    self_sp_ = make_context(stack_.base(), stack_.size(), &Coroutine::entry);
}

void
Coroutine::resume()
{
    TQ_CHECK(!done_);
    TQ_CHECK(!running_);
    running_ = true;
    tq_context_jump(&caller_sp_, self_sp_, this);
    running_ = false;
}

void
Coroutine::yield()
{
    // Only the innermost running coroutine executes on its own stack, so
    // this one check rejects a yield from native context and a yield of
    // an outer coroutine from inside a nested one.
    uintptr_t sp;
    asm("mov %%rsp, %0" : "=r"(sp));
    const auto base = reinterpret_cast<uintptr_t>(stack_.base());
    TQ_CHECK(sp - base < stack_.size());
    tq_context_jump(&self_sp_, caller_sp_, this);
}

void
Coroutine::entry(void *self)
{
    static_cast<Coroutine *>(self)->run_body();
    // run_body never returns here; it jumps out after completion.
}

void
Coroutine::run_body()
{
    body_(*this);
    done_ = true;
    // Final switch back to the resumer; this context is never re-entered.
    tq_context_jump(&self_sp_, caller_sp_, this);
    TQ_CHECK(false); // unreachable: finished coroutines are not resumed
}

} // namespace tq
