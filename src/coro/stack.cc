#include "coro/stack.h"

#include <sys/mman.h>
#include <unistd.h>

#include "common/check.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace tq {

namespace {

size_t
page_size()
{
    static const size_t sz = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    return sz;
}

size_t
round_up_pages(size_t bytes)
{
    const size_t ps = page_size();
    return (bytes + ps - 1) / ps * ps;
}

} // namespace

Stack::Stack(size_t size)
{
    TQ_CHECK(size > 0);
    size_ = round_up_pages(size);
    map_size_ = size_ + page_size(); // + guard page
    map_ = mmap(nullptr, map_size_, PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    TQ_CHECK(map_ != MAP_FAILED);
    // Guard page at the low end: stacks grow downward.
    TQ_CHECK(mprotect(map_, page_size(), PROT_NONE) == 0);
    base_ = static_cast<char *>(map_) + page_size();
}

Stack::~Stack()
{
#if defined(__SANITIZE_ADDRESS__)
    // ASan does not know this region is a stack: the redzones of the
    // frames that ran on it stay in the shadow after munmap and would
    // poison the next mapping the kernel places here.
    __asan_unpoison_memory_region(map_, map_size_);
#endif
    munmap(map_, map_size_);
}

} // namespace tq
