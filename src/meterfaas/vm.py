"""Minimal deterministic bytecode VM standing in for the function interpreter.

A stack machine with 16 local slots, integer arithmetic on 64-bit words,
jumps, a handle-based heap whose alloc/realloc/free paths are instrumented,
synthetic network send/receive, word-granular input/output, and a tag opcode.
Functions can only touch memory through the ``on_mem`` callback and the network
through the ``NetIo`` the interpreter yields, which is what protects the
resource measurements from the measured code.

Bytecode files: magic ``MFVM``, version byte, entry instruction index (u32 LE),
code length (u32 LE), code. The function hash is computed over these exact
bytes. Numeric I/O is little-endian 64-bit words.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from typing import Callable, Generator

from . import crypto

MAGIC = b"MFVM"
VERSION = 1
LOCAL_SLOTS = 16
WORD = 1 << 64

# A heap block holds its whole 64-bit words in an array of this type; the
# bytes past its last whole word are kept apart (see execute_steps).
_ZERO_WORD = array("Q", (0,))
if _ZERO_WORD.itemsize != 8:
    raise ImportError("array('Q') items are not 64-bit words on this host")
_ZERO_CHUNK = _ZERO_WORD * 4096  # what an in-place REALLOC grows a block by at most at once
_BIG_ENDIAN = sys.byteorder == "big"
_EMPTY_TAG = crypto.hash_bytes(b"")  # the tag of a run with no SET_TAG and no default tag

# opcode -> (mnemonic, immediate kind); immediates: None or a key of _IMMEDIATES
OPCODES: dict[int, tuple[str, str | None]] = {
    0x00: ("HALT", None),
    0x01: ("PUSH", "u64"),
    0x02: ("POP", None),
    0x03: ("DUP", None),
    0x04: ("SWAP", None),
    0x05: ("OVER", None),
    0x10: ("ADD", None),
    0x11: ("SUB", None),
    0x12: ("MUL", None),
    0x18: ("LT", None),
    0x19: ("GT", None),
    0x1A: ("EQ", None),
    0x20: ("JMP", "target"),
    0x21: ("JZ", "target"),
    0x22: ("JNZ", "target"),
    0x30: ("ALLOC", None),
    0x31: ("REALLOC", None),
    0x32: ("FREE", None),
    0x33: ("LOAD", None),
    0x34: ("STORE", None),
    0x40: ("NET_SEND", None),
    0x41: ("NET_RECV", None),
    0x50: ("INPUT_WORD", None),
    0x51: ("OUTPUT_WORD", None),
    0x52: ("SET_TAG", None),
    0x60: ("LOADL", "slot"),
    0x61: ("STOREL", "slot"),
}
MNEMONIC_TO_OP = {name: op for op, (name, _) in OPCODES.items()}
# immediate kind -> (little-endian width in bytes, its name in a truncation error)
_IMMEDIATES = {"u64": (8, "64-bit immediate"), "target": (4, "jump target"), "slot": (1, "slot index")}
# words each private op pops, by opcode; the heap and network ops test their
# own depth: a heap op pops after its block closes, a network op before its step
_POP_WORDS = {"POP": 1, "DUP": 1, "SWAP": 2, "OVER": 2, "ADD": 2, "SUB": 2, "MUL": 2, "LT": 2, "GT": 2,
              "EQ": 2, "JZ": 1, "JNZ": 1, "LOAD": 2, "STORE": 3, "INPUT_WORD": 1, "OUTPUT_WORD": 1,
              "SET_TAG": 1, "STOREL": 1}
_POPS = [_POP_WORDS.get(OPCODES[op][0], 0) if op in OPCODES else 0 for op in range(max(OPCODES) + 1)]

# An instruction without a 64-bit immediate or jump target takes one of few
# values, so each is one tuple that every loaded program shares.
_SHARED = {(op, arg): (op, arg) for op, (_, imm) in OPCODES.items()
           for arg in ((None,) if imm is None else range(LOCAL_SLOTS) if imm == "slot" else ())}

# Superinstructions: opcodes past the real ones, which all lie below 0x70,
# that the loader puts in place of the PUSH or LOADL starting one of these
# runs. No run holds a HALT, heap or network op, so fusing one changes no
# yield. Each is a run that dynamic counts over the corpus, the fuzz and the
# benchmark's programs find dispatched. Every entry's argument is
# (n, after, a, b, k, c, d, t), None where unused.
_NOEFFECT = 0x7A  # PUSH x; POP or PUSH x; PUSH y; ADD|SUB|MUL; POP: its n steps, pc += n and nothing else
# a no-effect run depends only on its length, so one entry per length serves
# every position of every image; its `after` is None
_NOEFFECT_RUNS = {n: (_NOEFFECT, (n, None, None, None, None, None, None, None)) for n in (2, 4)}
# A whole loop, fused at its test: the test, a straight-line body, and a back
# edge that steps the test's slot a by 1 and jumps to the test. n is the
# steps of one pass (test, body and back edge), after the body head and t
# the test's exit target.
# LOADL a; LOADL b; GT; JNZ t, then values[x] = values[x - k] + values[x - d]
# on the block of slot c (LOADL c; LOADL a; LOADL c; LOADL a; PUSH k; SUB;
# LOAD; LOADL c; LOADL a; PUSH d; SUB; LOAD; ADD; STORE), then LOADL a;
# PUSH 1; ADD; STOREL a; JMP: fib's loop, with slot a neither b nor c
_RECURRENCE = 0x7B
# LOADL a; JZ t, then no-effect runs, then LOADL a; PUSH 1; SUB; STOREL a; JMP: a counted loop
_COUNTDOWN = 0x7C


class LoadError(ValueError):
    """Malformed bytecode; `offset` points at the offending byte."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class AsmError(ValueError):
    pass


@dataclass(frozen=True)
class CostTable:
    """Cycle prices per instruction class. Arbitrary but fixed; the metering
    properties must hold for any positive table."""

    default: int = 1
    heap: int = 10
    net: int = 5

    def __post_init__(self) -> None:
        if min(self.default, self.heap, self.net) < 1:
            raise ValueError("all instruction costs must be positive")


@dataclass(frozen=True)
class VMLimits:
    max_steps: int = 1_000_000
    max_memory: int = 1 << 24
    max_output: int = 1 << 16

    def __post_init__(self) -> None:
        if min(self.max_steps, self.max_memory, self.max_output) <= 0:
            raise ValueError("limits must be strictly positive")


@dataclass(frozen=True)
class FunctionImage:
    """A loaded function. ``code`` is what the interpreter dispatches on:
    ``program`` with a superinstruction at each index where a fused pattern
    starts (``program`` itself when none does). It is derived from ``raw``,
    so it takes no part in equality or ``repr``."""

    raw: bytes
    entry: int
    program: tuple[tuple[int, int | None], ...]
    function_hash: bytes
    code: tuple[tuple[int, object], ...] = field(compare=False, repr=False)


@dataclass
class VMResult:
    output: bytes
    tag: bytes
    status: str  # "ok" or "trapped"
    reason: str | None = None
    steps: int = 0
    cycles: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class NetIo:
    """Yielded for network instructions so the driver can run the OCALL
    bracket around them; byte counts are as popped from the stack."""

    cost: int
    sent: int
    received: int


def vm_load(data: bytes) -> FunctionImage:
    """Parse and validate bytecode. Jump targets are instruction indices and
    must land inside the program, and the last instruction must be HALT or
    JMP so execution cannot fall off the end; anything malformed raises
    LoadError."""
    if len(data) < 13:
        raise LoadError("file shorter than header", len(data))
    if data[:4] != MAGIC:
        raise LoadError("bad magic", 0)
    if data[4] != VERSION:
        raise LoadError(f"unsupported version {data[4]}", 4)
    entry = int.from_bytes(data[5:9], "little")
    code_len = int.from_bytes(data[9:13], "little")
    code = data[13:]
    if len(code) != code_len:
        raise LoadError(f"code length field {code_len} does not match {len(code)} bytes", 9)

    program: list[tuple[int, int | None]] = []
    heads: list[int] = []  # index of each LOADL and PUSH, where a fused pattern may start
    pos = 0
    while pos < len(code):
        op = code[pos]
        if op not in OPCODES:
            raise LoadError(f"unknown opcode 0x{op:02x}", 13 + pos)
        _, imm = OPCODES[op]
        pos += 1
        arg: int | None = None
        if imm is not None:
            width, what = _IMMEDIATES[imm]
            if pos + width > len(code):
                raise LoadError(f"truncated {what}", 13 + pos)
            arg = int.from_bytes(code[pos : pos + width], "little")
            if imm == "slot" and arg >= LOCAL_SLOTS:
                raise LoadError(f"slot {arg} out of range", 13 + pos)
            if op == 0x60 or op == 0x01:  # LOADL, PUSH
                heads.append(len(program))
            pos += width
        instr = (op, arg)
        program.append(_SHARED.get(instr, instr))

    n = len(program)
    if n == 0:
        raise LoadError("empty program", 13)
    for i, (op, arg) in enumerate(program):
        if OPCODES[op][1] == "target" and arg >= n:
            raise LoadError(f"jump target {arg} out of range at instruction {i}", _offset(code, i))
    if entry >= n:
        raise LoadError(f"entry index {entry} out of range", 5)
    if program[-1][0] not in (0x00, 0x20):  # HALT, JMP
        raise LoadError("last instruction is neither HALT nor JMP", _offset(code, n - 1))

    instructions = tuple(program)
    return FunctionImage(
        raw=bytes(data),
        entry=entry,
        program=instructions,
        function_hash=crypto.hash_bytes(data),
        code=_fuse(instructions, heads),
    )


def _offset(code: bytes, index: int) -> int:
    """The file offset of instruction ``index`` of ``code``, the bytes past the
    header. Only a load error reports one, so the loader walks the code again
    for it instead of keeping an offset per instruction."""
    pos = 0
    for _ in range(index):
        imm = OPCODES[code[pos]][1]
        pos += 1 + (_IMMEDIATES[imm][0] if imm else 0)
    return 13 + pos


def _fuse(program: tuple[tuple[int, int | None], ...], heads: list[int]) -> tuple[tuple[int, object], ...]:
    """``program`` with the fused run that starts at each LOADL or PUSH in
    ``heads`` put in its place, as ``(op, (n, after, a, b, k, c, d, t))``
    (see ``_NOEFFECT`` ... ``_COUNTDOWN``). Each head is matched on its own,
    in one pass, and every other entry keeps its instruction, so no jump
    target moves and a jump into the middle of a run executes whatever
    starts there. A PUSH heads only a no-effect run, the shared entry of its
    length; a LOADL heads only a whole loop, at its test (``_loop``)."""
    code: list[tuple[int, object]] | None = None
    for i in heads:
        if program[i][0] == 0x01:  # PUSH
            entry = _NOEFFECT_RUNS.get(_noeffect_length(program, i))
        else:
            entry = _loop(program, i)
        if entry is None:
            continue
        if code is None:
            code = list(program)
        code[i] = entry
    return program if code is None else tuple(code)


def _noeffect_length(program: tuple[tuple[int, int | None], ...], i: int) -> int:
    """The steps of the no-effect run at ``i``, 0 if none starts there."""
    if program[i][0] != 0x01:  # PUSH x
        return 0
    op1 = program[i + 1][0]  # a PUSH is never last: the loader wants HALT or JMP there
    if op1 == 0x02:  # POP
        return 2
    if op1 == 0x01 and program[i + 2][0] in (0x10, 0x11, 0x12) and program[i + 3][0] == 0x02:
        return 4  # PUSH y; ADD|SUB|MUL; POP
    return 0


def _loop(program: tuple[tuple[int, int | None], ...], i: int) -> tuple[int, tuple] | None:
    """The ``_RECURRENCE`` or ``_COUNTDOWN`` entry of the whole loop whose
    test is the LOADL at ``i``, if one is there, matched instruction by
    instruction; a loop cut short by the program's end is none."""
    a = program[i][1]
    op1, t = program[i + 1]  # a LOADL is never last
    if op1 == 0x21:  # JZ t, then no-effect runs; a JZ is never last
        j = i + 2
        while m := _noeffect_length(program, j):
            j += m
        if program[j : j + 5] == ((0x60, a), (0x01, 1), (0x11, None), (0x61, a), (0x20, i)):
            return (_COUNTDOWN, (j + 5 - i, i + 2, a, None, None, None, None, t))
        return None
    run = program[i : i + 23]
    if len(run) < 23:
        return None
    b, t, c, k, d = run[1][1], run[3][1], run[4][1], run[8][1], run[13][1]
    load = ((0x60, c), (0x60, a))
    shape = ((0x60, a), (0x60, b), (0x19, None), (0x22, t), *load, *load, (0x01, k), (0x11, None), (0x33, None),
             *load, (0x01, d), (0x11, None), (0x33, None), (0x10, None), (0x34, None),
             (0x60, a), (0x01, 1), (0x10, None), (0x61, a), (0x20, i))
    if run != shape or a == b or a == c:
        return None
    return (_RECURRENCE, (23, i + 4, a, b, k, c, d, t))


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
    so every other instruction runs at once. The loop counts only ``steps``
    per instruction. Cycles are derived where they are needed, as
    ``steps * costs.default + surcharge``; ``surcharge`` grows by
    ``heap - default`` per heap op and by ``net - default`` per network op.
    Each yielded block cost is the cycles so far minus those already yielded.

    HALT and each heap op close the block: its cost, the op's own included,
    is yielded before the op's effect, which runs when the caller resumes us,
    i.e. at the cycle where the block completes; a heap op's underflow, bad
    handle or memory-budget trap comes after that yield. A heap op's effect
    passes ``on_mem`` the signed change of live bytes: ``+size`` at ALLOC,
    ``size - old`` at a REALLOC that resizes, ``-size`` at FREE. A network
    op pops its byte count before it is counted, so its underflow is charged
    nothing; otherwise it flushes the pending cost, then yields its NetIo.
    Any other trapping instruction is charged its step and its cost. The
    step budget is checked before a step is counted. A trap, the step budget
    included, flushes the pending cost before the result is returned. The
    loader guarantees that the last instruction is HALT or JMP, so ``pc``
    never runs off the program.

    A heap block of ``size`` bytes is an ``array('Q')`` of its ``size // 8``
    whole words in ``heap``, plus its last ``size % 8`` bytes in ``tails``
    when there are any. LOAD and STORE index the words, so word ``idx`` is
    out of bounds exactly when ``(idx + 1) * 8 > size``. SET_TAG hashes the
    words as little-endian bytes followed by the tail. REALLOC keeps the
    handle: shrinking into a word keeps that word's low bytes as the tail,
    and growing past the last whole word turns the tail into the low bytes
    of a word whose other bytes are zero, as if the block were bytes. A
    block that more than doubles is built at its final size; any other is
    resized in place, growing by at most 4096 zero words at a time.

    The loop dispatches on ``image.code``, where the loader has put a
    superinstruction ``(op, (n, after, a, b, k, c, d, t))`` at each PUSH
    that starts a no-effect run and at each LOADL that starts the test of a
    whole loop (see ``_fuse``). A fused run holds no HALT, heap or network
    op, so it changes no yield, and it never traps. A no-effect run runs if
    its ``n`` steps fit the step budget: it counts them and sets
    ``pc += n``. A loop runs if its test fits: it counts the test, then
    every whole pass (body, back edge and the next test, ``n`` steps) that
    the test lets run, the budget leaves room for and, for
    ``_RECURRENCE``, whose LOADs and STORE stay inside the block; ``pc`` is
    then ``t`` if the last test exits, else ``after``, the body head, where
    the next pass runs one instruction at a time. A ``_COUNTDOWN`` loop
    runs in closed form, a ``_RECURRENCE`` loop as a tight loop over the
    block's words. An entry that does not fit declines: its PUSH or LOADL
    runs alone, as the program's own instruction, and the next entry is
    dispatched as any other. Every other entry is the program's own
    instruction and no jump target moves, so a jump into the middle of a
    run executes whatever starts there. Returns the VMResult."""
    code = image.code
    program = image.program
    default = costs.default
    heap_extra = costs.heap - default
    net_extra = costs.net - default
    max_steps = limits.max_steps
    pops = _POPS
    stack: list[int] = []
    push = stack.append
    pop = stack.pop
    locals_: list[int] = [0] * LOCAL_SLOTS
    heap: dict[int, array] = {}  # handle -> the block's whole words
    tails: dict[int, bytes] = {}  # handle -> its 1-7 bytes past them, if any
    next_handle = 1
    live = 0
    output = bytearray()
    tag: bytes | None = None
    pc = image.entry
    steps = 0
    surcharge = 0  # cycles of the heap and network ops beyond `default` each
    yielded = 0  # cycles already yielded
    reason: str | None = None

    def block(handle: int) -> array:
        b = heap.get(handle)
        if b is None:
            raise _Trap("fault:bad-handle")
        return b

    try:
        while True:
            op, arg = code[pc]
            if op >= 0x70:  # a fused run: whole if its first part fits, else its PUSH or LOADL alone
                n, after, a, b, k, c, d, t = arg
                if op == 0x7A:  # PUSH x; POP or PUSH x; PUSH y; ADD|SUB|MUL; POP
                    if steps + n <= max_steps:
                        steps += n
                        pc += n
                        continue
                elif steps + after - pc <= max_steps:  # a whole loop whose test fits
                    steps += after - pc  # the test
                    room = (max_steps - steps) // n  # the whole passes the budget leaves
                    if op == 0x7C:  # L[a] falls by 1 a pass until the test sees 0
                        v = locals_[a]
                        m = min(v, room)
                        locals_[a] = v - m
                        steps += m * n
                        pc = after if v - m else t
                    else:  # 0x7B: values[x] = values[x - k] + values[x - d] for x from L[a] up to L[b]
                        x = end = locals_[a]
                        last = locals_[b]
                        words = heap.get(locals_[c])
                        if x <= last and words is not None and k <= x and d <= x < len(words):
                            end = min(last + 1, len(words), x + room)
                            for i in range(x, end):
                                words[i] = (words[i - k] + words[i - d]) % WORD
                            locals_[a] = end
                            steps += (end - x) * n
                        pc = t if end > last else after
                    continue
                op, arg = program[pc]  # the run's PUSH or LOADL alone, as the program's own instruction
            if steps >= max_steps:
                raise _Trap("budget:steps")
            steps += 1
            if op == 0x01:  # PUSH
                push(arg)
            elif len(stack) < pops[op]:
                raise _Trap("fault:stack-underflow")
            elif op == 0x02:  # POP
                pop()
            elif op == 0x10:  # ADD
                b = pop()
                stack[-1] = (stack[-1] + b) % WORD
            elif op == 0x34:  # STORE
                value, idx = pop(), pop()
                b = heap.get(pop())
                if b is None:
                    raise _Trap("fault:bad-handle")
                if idx >= len(b):
                    raise _Trap("fault:out-of-bounds")
                b[idx] = value
            elif op == 0x33:  # LOAD
                idx = pop()
                b = heap.get(pop())
                if b is None:
                    raise _Trap("fault:bad-handle")
                if idx >= len(b):
                    raise _Trap("fault:out-of-bounds")
                push(b[idx])
            elif op == 0x11:  # SUB
                b = pop()
                stack[-1] = (stack[-1] - b) % WORD
            elif op == 0x61:  # STOREL
                locals_[arg] = pop()
            elif op == 0x12:  # MUL
                b = pop()
                stack[-1] = (stack[-1] * b) % WORD
            elif op == 0x60:  # LOADL
                push(locals_[arg])
            elif op == 0x20:  # JMP
                pc = arg
                continue
            elif op == 0x18:  # LT
                b = pop()
                stack[-1] = 1 if stack[-1] < b else 0
            elif op == 0x19:  # GT
                b = pop()
                stack[-1] = 1 if stack[-1] > b else 0
            elif op == 0x1A:  # EQ
                b = pop()
                stack[-1] = 1 if stack[-1] == b else 0
            elif op == 0x22:  # JNZ
                if pop() != 0:
                    pc = arg
                    continue
            elif op == 0x21:  # JZ
                if pop() == 0:
                    pc = arg
                    continue
            elif op == 0x03:  # DUP
                push(stack[-1])
            elif op == 0x04:  # SWAP
                stack[-1], stack[-2] = stack[-2], stack[-1]
            elif op == 0x05:  # OVER
                push(stack[-2])
            elif op == 0x50:  # INPUT_WORD
                idx = pop()
                if (idx + 1) * 8 > len(input_data):
                    raise _Trap("fault:input-out-of-bounds")
                push(int.from_bytes(input_data[idx * 8 : idx * 8 + 8], "little"))
            elif op == 0x51:  # OUTPUT_WORD
                v = pop()
                if len(output) + 8 > limits.max_output:
                    raise _Trap("budget:output")
                output.extend(v.to_bytes(8, "little"))
            elif op == 0x52:  # SET_TAG: the block's bytes, its words little-endian
                handle = pop()
                b = block(handle)
                if _BIG_ENDIAN:
                    b = array("Q", b)
                    b.byteswap()
                data = bytearray(b)  # one copy of the words' bytes, grown in place by the tail
                data += tails.get(handle, b"")
                tag = crypto.hash_bytes(data)
            elif op == 0x40 or op == 0x41:  # NET_SEND, NET_RECV
                if not stack:
                    steps -= 1  # the pop comes before the count
                    raise _Trap("fault:stack-underflow")
                count = pop()
                cycles = (steps - 1) * default + surcharge
                if cycles > yielded:
                    yield cycles - yielded
                surcharge += net_extra
                yielded = cycles + costs.net
                yield NetIo(costs.net, count, 0) if op == 0x40 else NetIo(costs.net, 0, count)
            else:  # HALT or a heap op: close the block before the op's effect
                if op:  # a heap op
                    surcharge += heap_extra
                cycles = steps * default + surcharge
                yield cycles - yielded
                yielded = cycles
                if op == 0x00:  # HALT
                    break
                if len(stack) < (2 if op == 0x31 else 1):
                    raise _Trap("fault:stack-underflow")
                if op == 0x30:  # ALLOC
                    size = pop()
                    if live + size > limits.max_memory:
                        raise _Trap("budget:memory")
                    handle = next_handle
                    next_handle += 1
                    heap[handle] = _ZERO_WORD * (size >> 3)
                    if size & 7:
                        tails[handle] = bytes(size & 7)
                    live += size
                    on_mem(size)
                    push(handle)
                elif op == 0x31:  # REALLOC: bytes cut off are gone, new bytes are zero
                    size, handle = pop(), pop()
                    b = block(handle)
                    tail = tails.get(handle, b"")
                    old = len(b) * 8 + len(tail)
                    if live - old + size > limits.max_memory:
                        raise _Trap("budget:memory")
                    n = size >> 3
                    if n > len(b):  # the tail becomes the low bytes of word len(b)
                        word = int.from_bytes(tail, "little")
                        if n > 2 * len(b):  # more than doubles: built at its final size
                            grown = _ZERO_WORD * n
                            grown[: len(b)] = b
                            grown[len(b)] = word
                            heap[handle] = grown
                        else:  # in place, a bounded chunk of zeros at a time
                            b.append(word)
                            while len(b) < n:
                                b.extend(_ZERO_CHUNK[: n - len(b)])
                        tail = bytes(size & 7)
                    elif n < len(b):  # word n keeps its low bytes as the tail
                        tail = b[n].to_bytes(8, "little")[: size & 7]
                        del b[n:]
                    else:
                        tail = (tail + bytes(8))[: size & 7]
                    if tail:
                        tails[handle] = tail
                    else:
                        tails.pop(handle, None)
                    if size != old:
                        on_mem(size - old)
                    live += size - old
                    push(handle)
                else:  # FREE
                    handle = pop()
                    size = len(block(handle)) * 8 + len(tails.pop(handle, b""))
                    live -= size
                    on_mem(-size)
                    del heap[handle]
            pc += 1
    except _Trap as trap:
        reason = trap.reason
        cycles = steps * default + surcharge
        if cycles > yielded:
            yield cycles - yielded
    final_tag = tag if tag is not None else (default_tag or _EMPTY_TAG)
    return VMResult(
        output=bytes(output), tag=final_tag, status="trapped" if reason else "ok", reason=reason,
        steps=steps, cycles=steps * default + surcharge,
    )


def vm_execute(
    image: FunctionImage,
    input_data: bytes,
    limits: VMLimits,
    costs: CostTable | None = None,
    default_tag: bytes | None = None,
) -> VMResult:
    """Run an image to completion outside any simulation. This is the oracle
    path: the same interpreter with no protocol stack, and no capability
    handed to the function: its memory deltas go nowhere."""
    gen = execute_steps(image, input_data, limits, lambda _d: None, costs or CostTable(), default_tag)
    try:
        while True:
            gen.send(None)
    except StopIteration as stop:
        return stop.value


# --- assembler ---------------------------------------------------------------


def assemble(source: str) -> bytes:
    """Two-pass textual assembler.

    Lines: ``[label:] MNEMONIC [operand]``; ``;`` and ``#`` start comments;
    ``.entry label`` selects the entry instruction (default: first).
    Operands are decimal, 0x hex, or label references for jumps. A ``PUSH``
    immediate lies in [-2^63, 2^64); a negative one is written as its 64-bit
    two's complement, so ``PUSH -1`` is ``PUSH 0xffffffffffffffff``.
    """
    labels: dict[str, int] = {}
    items: list[tuple[str, str | None, int]] = []  # (mnemonic, operand, lineno)
    entry_ref: str | None = None

    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split(";")[0].split("#")[0].strip()
        if not line:
            continue
        if line.startswith(".entry"):
            parts = line.split()
            if len(parts) != 2:
                raise AsmError(f"line {lineno}: .entry needs one label")
            entry_ref = parts[1]
            continue
        while ":" in line:
            label, line = line.split(":", 1)
            label = label.strip()
            if not label.isidentifier():
                raise AsmError(f"line {lineno}: bad label {label!r}")
            if label in labels:
                raise AsmError(f"line {lineno}: duplicate label {label!r}")
            labels[label] = len(items)
            line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) > 2:
            raise AsmError(f"line {lineno}: too many operands")
        mnemonic = parts[0].upper()
        if mnemonic not in MNEMONIC_TO_OP:
            raise AsmError(f"line {lineno}: unknown mnemonic {mnemonic!r}")
        items.append((mnemonic, parts[1] if len(parts) == 2 else None, lineno))

    def resolve(text: str, lineno: int, kind: str) -> int:
        if kind == "target" and text in labels:
            return labels[text]
        try:
            return int(text, 0)
        except ValueError:
            raise AsmError(f"line {lineno}: unresolved operand {text!r}") from None

    code = bytearray()
    for mnemonic, operand, lineno in items:
        op = MNEMONIC_TO_OP[mnemonic]
        imm = OPCODES[op][1]
        code.append(op)
        if imm is None:
            if operand is not None:
                raise AsmError(f"line {lineno}: {mnemonic} takes no operand")
            continue
        if operand is None:
            raise AsmError(f"line {lineno}: {mnemonic} needs an operand")
        value = resolve(operand, lineno, imm)
        if imm == "u64":
            if not -(WORD >> 1) <= value < WORD:
                raise AsmError(f"line {lineno}: immediate {value} out of range")
            value %= WORD  # a negative is its two's complement
        elif imm == "target":
            if not 0 <= value < len(items):
                raise AsmError(f"line {lineno}: jump target {value} out of range")
        elif not 0 <= value < LOCAL_SLOTS:
            raise AsmError(f"line {lineno}: slot {value} out of range")
        code += value.to_bytes(_IMMEDIATES[imm][0], "little")

    entry = 0
    if entry_ref is not None:
        if entry_ref not in labels:
            raise AsmError(f".entry label {entry_ref!r} undefined")
        entry = labels[entry_ref]

    header = MAGIC + bytes([VERSION]) + entry.to_bytes(4, "little") + len(code).to_bytes(4, "little")
    return header + bytes(code)
