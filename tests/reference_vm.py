"""Reference model of ``meterfaas.vm.execute_steps`` that prices and counts
each instruction as it runs: a per-run price list, ``cycles`` and ``pending``
additions per instruction, and a ``pop`` helper that raises the underflow
trap. ``execute_steps`` keeps only a step counter per instruction and derives
cycles and block costs from it; tests drive both generators the same way and
require the same yields, ``on_mem`` calls and ``VMResult`` (``TestReferenceVm``),
the role ``reference_timer`` plays for the closed-form timer."""

from __future__ import annotations

from typing import Callable, Generator

from meterfaas import crypto
from meterfaas.vm import LOCAL_SLOTS, WORD, CostTable, FunctionImage, NetIo, VMLimits, VMResult

_HEAP_OPS = frozenset((0x30, 0x31, 0x32))
_NET_OPS = frozenset((0x40, 0x41))
_BLOCK_ENDS = _HEAP_OPS | {0x00}  # HALT and the heap ops close a block


def price(costs: CostTable, op: int) -> int:
    if op in _HEAP_OPS:
        return costs.heap
    if op in _NET_OPS:
        return costs.net
    return costs.default


class _Trap(Exception):
    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def execute_steps(
    image: FunctionImage,
    input_data: bytes,
    limits: VMLimits,
    on_mem: Callable[[int], None],
    costs: CostTable,
    default_tag: bytes | None = None,
) -> Generator[int | NetIo, None, VMResult]:
    """Core interpreter as a generator that yields one cycle cost per block.

    Only HALT, the heap ops and the network ops have effects outside the VM,
    so every other instruction runs at once and adds its cost to the pending
    block. HALT and each heap op close the block: the summed cost is yielded
    before the op's effect, which runs when the caller resumes us, i.e. at
    the cycle where the block completes. A network op first flushes the
    pending cost, then yields its NetIo. A trap, the step budget included,
    flushes the pending cost before the result is returned. Costs, steps and
    cycles add up to the same totals as one instruction at a time; only the
    granularity of the yields is coarser. Returns the VMResult."""
    program = image.program
    prices = [price(costs, op) for op, _ in program]  # priced once per run
    stack: list[int] = []
    locals_: list[int] = [0] * LOCAL_SLOTS
    heap: dict[int, bytearray] = {}
    next_handle = 1
    live = 0
    output = bytearray()
    tag: bytes | None = None
    pc = image.entry
    steps = 0
    cycles = 0
    pending = 0  # cost of the instructions run since the last yield

    def pop() -> int:
        if not stack:
            raise _Trap("fault:stack-underflow")
        return stack.pop()

    def block(handle: int) -> bytearray:
        b = heap.get(handle)
        if b is None:
            raise _Trap("fault:bad-handle")
        return b

    def finish(status: str, reason: str | None) -> VMResult:
        final_tag = tag if tag is not None else (default_tag or crypto.hash_bytes(b""))
        return VMResult(
            output=bytes(output), tag=final_tag, status=status, reason=reason,
            steps=steps, cycles=cycles,
        )

    try:
        while True:
            if steps >= limits.max_steps:
                raise _Trap("budget:steps")
            op, arg = program[pc]
            cost = prices[pc]
            if op in _NET_OPS:
                count = pop()
                sent, received = (count, 0) if op == 0x40 else (0, count)
                steps += 1
                cycles += cost
                if pending:
                    yield pending
                    pending = 0
                yield NetIo(cost, sent, received)
                pc += 1
                continue
            steps += 1
            cycles += cost
            pending += cost
            if op in _BLOCK_ENDS:
                yield pending
                pending = 0
            if op == 0x00:  # HALT
                return finish("ok", None)
            elif op == 0x01:  # PUSH
                stack.append(arg)
            elif op == 0x02:  # POP
                pop()
            elif op == 0x03:  # DUP
                v = pop()
                stack.append(v)
                stack.append(v)
            elif op == 0x04:  # SWAP
                b, a = pop(), pop()
                stack.append(b)
                stack.append(a)
            elif op == 0x05:  # OVER
                b, a = pop(), pop()
                stack.append(a)
                stack.append(b)
                stack.append(a)
            elif op == 0x10:  # ADD
                b, a = pop(), pop()
                stack.append((a + b) % WORD)
            elif op == 0x11:  # SUB
                b, a = pop(), pop()
                stack.append((a - b) % WORD)
            elif op == 0x12:  # MUL
                b, a = pop(), pop()
                stack.append((a * b) % WORD)
            elif op == 0x18:  # LT
                b, a = pop(), pop()
                stack.append(1 if a < b else 0)
            elif op == 0x19:  # GT
                b, a = pop(), pop()
                stack.append(1 if a > b else 0)
            elif op == 0x1A:  # EQ
                b, a = pop(), pop()
                stack.append(1 if a == b else 0)
            elif op == 0x20:  # JMP
                pc = arg
                continue
            elif op == 0x21:  # JZ
                if pop() == 0:
                    pc = arg
                    continue
            elif op == 0x22:  # JNZ
                if pop() != 0:
                    pc = arg
                    continue
            elif op == 0x30:  # ALLOC
                size = pop()
                if live + size > limits.max_memory:
                    raise _Trap("budget:memory")
                handle = next_handle
                next_handle += 1
                heap[handle] = bytearray(size)
                live += size
                on_mem(size)
                stack.append(handle)
            elif op == 0x31:  # REALLOC
                size, handle = pop(), pop()
                b = block(handle)
                old = len(b)
                if live - old + size > limits.max_memory:
                    raise _Trap("budget:memory")
                if size >= old:
                    b.extend(bytes(size - old))
                    if size > old:
                        on_mem(size - old)
                else:
                    del b[size:]
                    on_mem(size - old)
                live += size - old
                stack.append(handle)
            elif op == 0x32:  # FREE
                handle = pop()
                b = block(handle)
                live -= len(b)
                on_mem(-len(b))
                del heap[handle]
            elif op == 0x33:  # LOAD
                idx, handle = pop(), pop()
                b = block(handle)
                if (idx + 1) * 8 > len(b):
                    raise _Trap("fault:out-of-bounds")
                stack.append(int.from_bytes(b[idx * 8 : idx * 8 + 8], "little"))
            elif op == 0x34:  # STORE
                value, idx, handle = pop(), pop(), pop()
                b = block(handle)
                if (idx + 1) * 8 > len(b):
                    raise _Trap("fault:out-of-bounds")
                b[idx * 8 : idx * 8 + 8] = value.to_bytes(8, "little")
            elif op == 0x50:  # INPUT_WORD
                idx = pop()
                if (idx + 1) * 8 > len(input_data):
                    raise _Trap("fault:input-out-of-bounds")
                stack.append(int.from_bytes(input_data[idx * 8 : idx * 8 + 8], "little"))
            elif op == 0x51:  # OUTPUT_WORD
                v = pop()
                if len(output) + 8 > limits.max_output:
                    raise _Trap("budget:output")
                output.extend(v.to_bytes(8, "little"))
            elif op == 0x52:  # SET_TAG
                handle = pop()
                tag = crypto.hash_bytes(bytes(block(handle)))
            elif op == 0x60:  # LOADL
                stack.append(locals_[arg])
            elif op == 0x61:  # STOREL
                locals_[arg] = pop()
            else:  # pragma: no cover - loader rejects unknown opcodes
                raise _Trap("fault:bad-opcode")
            pc += 1
    except _Trap as trap:
        if pending:
            yield pending
        return finish("trapped", trap.reason)
