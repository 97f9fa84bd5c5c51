#!/usr/bin/env python3
"""Fail when a lock prefix or a zero-fill appears on the runtime's per-job path.

Usage: check_hot_locks.py [LIBTQ_RUNTIME.a]
       (default: build/src/runtime/libtq_runtime.a, from a Release build)

Disassembles the library with objdump and scans the functions every job
passes through: the worker's admission, slice and completion steps and
the dispatcher's batch loop (HOT below, compiler-split clones included).

Locks. On x86-64 every atomic read-modify-write is a `lock`-prefixed
instruction, relaxed or not, and acts as a full barrier. So is `xchg`
with a memory operand (GCC's seq_cst store), which locks implicitly and
is flagged too. The counters these functions update each have one
writing thread and use owner_add() (src/conc/cacheline.h) instead. Rare
paths that keep a read-modify-write (ring-full spins, starvation
promotions) live in out-of-line [[gnu::cold]] functions, which this
check does not scan.

Zero-fills. A `rep stos` or a call to memset in these functions is a
buffer cleared on every job, typically a value-initialized array of a
type with default member initializers (a stack batch of Request is
32 x 48 bytes). Requests and responses are copied into place instead.

Exit 0 when the hot functions are clean, 1 when one holds a lock prefix
or a zero-fill, 2 when objdump fails or a hot function is missing from
the library (a rename or full inlining would otherwise pass unchecked).
"""


import re
import subprocess
import sys

HOT = [
    "tq::runtime::Worker::poll_admissions",
    "tq::runtime::Worker::run_one_slice",
    "tq::runtime::Worker::complete",
    "tq::runtime::Runtime::dispatch_batch",
]

# "0000000000001b40 <tq::runtime::Worker::complete(...) [clone .cold]>:"
SYMBOL = re.compile(r"^[0-9a-f]+ <(.+?)\([^()]*\)( \[clone [^\]]+\])?>:$")
# "  a04:\tlock addl $0x1,0x3c0(%rbx)" or "  b10:\txchg %rax,(%rdx)"
LOCKED = re.compile(r"\t(lock |xchg[bwlq]? .*\()")
# "  18ac:\trep stos %rax,%es:(%rdi)", or the relocation objdump -r
# prints under a call into libc: "\t\t\t18b0: R_X86_64_PLT32\tmemset-0x4"
ZERO_FILL = re.compile(r"\trep stos|R_X86_64_\w+\s+memset\b|<memset[@>+]")


def main():
    if len(sys.argv) > 2:
        sys.stderr.write(__doc__)
        return 2
    lib = sys.argv[1] if len(sys.argv) == 2 else \
        "build/src/runtime/libtq_runtime.a"
    proc = subprocess.run(["objdump", "-d", "-r", "-C", "--no-show-raw-insn",
                           lib],
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(f"check_hot_locks: objdump failed on {lib}", file=sys.stderr)
        return 2
    seen = {name: 0 for name in HOT}
    locks = []
    fills = []
    current = None
    for line in proc.stdout.splitlines():
        if line.endswith(">:"):
            m = SYMBOL.match(line)
            current = m.group(1) if m and m.group(1) in seen else None
            if current:
                seen[current] += 1
        elif current and LOCKED.search(line):
            locks.append((current, line.strip()))
        elif current and ZERO_FILL.search(line):
            fills.append((current, line.strip()))
    missing = [name for name, n in seen.items() if n == 0]
    for name in missing:
        print(f"MISSING {name}: not found in {lib}")
    for name, insn in locks:
        print(f"LOCK    {name}: {insn}")
    for name, insn in fills:
        print(f"FILL    {name}: {insn}")
    print(f"check_hot_locks: {len(HOT) - len(missing)}/{len(HOT)} hot "
          f"functions found, {len(locks)} locked instruction(s), "
          f"{len(fills)} zero-fill(s)")
    if missing:
        return 2
    return 1 if locks or fills else 0


if __name__ == "__main__":
    sys.exit(main())
