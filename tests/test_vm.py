"""Bytecode VM: loader validation, execution semantics, corpus behavior."""

import dataclasses
import functools
import random

import pytest
import reference_vm
from hypothesis import given, settings
from hypothesis import strategies as st

from test_metering import CORPUS_INPUTS
from test_tooling import _load

from meterfaas import corpus as corp
from meterfaas.crypto import DeterministicRng, hash_bytes
from meterfaas.fuzz import random_image
from meterfaas.vm import (
    MAGIC,
    OPCODES,
    VERSION,
    WORD,
    AsmError,
    CostTable,
    LoadError,
    NetIo,
    VMLimits,
    assemble,
    execute_steps,
    vm_execute,
    vm_load,
)

LIMITS = VMLimits(max_steps=2_000_000, max_memory=1 << 24, max_output=1 << 16)


def run_named(name, input_data=b"", limits=LIMITS, **kw):
    image = corp.corpus()[name]
    return vm_execute(image, input_data, limits, **kw)


def effects(image, input_data=b""):
    """Drive ``execute_steps`` to completion; log in order each signed
    ``on_mem`` delta and, as ``(sent, received)``, each ``NetIo``. Returns
    the result and the log."""
    log = []
    gen = execute_steps(image, input_data, LIMITS, log.append, CostTable())
    try:
        item = next(gen)
        while True:
            if isinstance(item, NetIo):
                log.append((item.sent, item.received))
            item = gen.send(None)
    except StopIteration as stop:
        return stop.value, log


def image_bytes(code, entry=0, version=VERSION):
    """A bytecode file around `code` with a correct code length field."""
    return MAGIC + bytes([version]) + entry.to_bytes(4, "little") + len(code).to_bytes(4, "little") + code


# one malformed file per loader error, with its exact message and offset
LOAD_ERRORS = [
    (MAGIC + bytes(8), "file shorter than header", 12),
    (image_bytes(b"\x00", version=2), "unsupported version 2", 4),
    (image_bytes(b"\x00") + b"\x00", "code length field 1 does not match 2 bytes", 9),
    (image_bytes(b"\x01" + bytes(7)), "truncated 64-bit immediate", 14),
    (image_bytes(b"\x00\x20" + bytes(3)), "truncated jump target", 15),
    (image_bytes(b"\x00\x60"), "truncated slot index", 15),
    (image_bytes(b"\x60\x10\x00"), "slot 16 out of range", 14),
    (image_bytes(b""), "empty program", 13),
    (image_bytes(b"\x00", entry=1), "entry index 1 out of range", 5),
]

# one source per assembler error, with its exact message
ASM_ERRORS = [
    (".entry\nHALT", "line 1: .entry needs one label"),
    ("HALT\n1x: HALT", "line 2: bad label '1x'"),
    ("a: HALT\na: HALT", "line 2: duplicate label 'a'"),
    ("PUSH 1 2\nHALT", "line 1: too many operands"),
    ("HALT 1", "line 1: HALT takes no operand"),
    ("PUSH\nHALT", "line 1: PUSH needs an operand"),
    ("LOADL 16\nHALT", "line 1: slot 16 out of range"),
    ("STOREL -1\nHALT", "line 1: slot -1 out of range"),
    (".entry go\nHALT", ".entry label 'go' undefined"),
    ("NOP\nHALT", "line 1: unknown mnemonic 'NOP'"),
    ("JMP nowhere\nHALT", "line 1: unresolved operand 'nowhere'"),
    ("JMP 2\nHALT", "line 1: jump target 2 out of range"),
]


def encode(program):
    """The code bytes of a parsed program, written back per OPCODES."""
    sizes = {"u64": 8, "target": 4, "slot": 1}
    out = bytearray()
    for op, arg in program:
        out.append(op)
        if OPCODES[op][1] is not None:
            out += arg.to_bytes(sizes[OPCODES[op][1]], "little")
    return bytes(out)


def dispatches(image, input_data, limits=LIMITS):
    """(steps, the opcode of each entry of `image.code` the interpreter
    fetched, in order) for one run."""
    fetched = []

    class Counting(tuple):
        def __getitem__(self, index):
            entry = tuple.__getitem__(self, index)
            fetched.append(entry[0])
            return entry

    res = vm_execute(dataclasses.replace(image, code=Counting(image.code)), input_data, limits)
    return res.steps, fetched


class TestLoader:
    def test_load_fib_hash_stable(self):
        raw = assemble(corp.FIB_SOURCE)
        a = vm_load(raw)
        b = vm_load(raw)
        assert a.function_hash == b.function_hash
        assert a.function_hash == hash_bytes(raw)

    def test_identical_programs_identical_hash(self):
        r1 = assemble(corp.EMPTY_SOURCE)
        r2 = assemble(corp.EMPTY_SOURCE)
        assert vm_load(r1).function_hash == vm_load(r2).function_hash

    def test_truncated_program_rejected(self):
        raw = assemble(corp.FIB_SOURCE)
        with pytest.raises(LoadError):
            vm_load(raw[:-3])

    def test_bad_magic(self):
        raw = assemble(corp.EMPTY_SOURCE)
        with pytest.raises(LoadError) as ei:
            vm_load(b"XXXX" + raw[4:])
        assert ei.value.offset == 0

    def test_unknown_opcode_reports_offset(self):
        # every byte from 0x70 up, which execute_steps treats as a fused
        # opcode, is unknown to the loader, so bytecode cannot name a fused
        # opcode; every real opcode lies below
        assert max(OPCODES) < 0x70
        raw = bytearray(assemble(corp.EMPTY_SOURCE))
        for op in range(0x70, 0x100):
            raw[13] = op
            with pytest.raises(LoadError) as ei:
                vm_load(bytes(raw))
            assert ei.value.offset == 13 and str(ei.value) == f"unknown opcode 0x{op:02x} (offset 13)"

    def test_jump_target_out_of_range(self):
        with pytest.raises(AsmError):
            assemble("JMP 99\nHALT\n")

    def test_push_immediate_range(self):
        # [-2^63, 2^64): a negative immediate is its two's complement
        top = vm_load(assemble(f"PUSH {WORD - 1}\nHALT")).program[0]
        assert vm_load(assemble("PUSH -1\nHALT")).program[0] == top == (0x01, WORD - 1)
        assert vm_load(assemble(f"PUSH {-(WORD >> 1)}\nHALT")).program[0] == (0x01, WORD >> 1)
        for value in (WORD, 2 * WORD, -(WORD >> 1) - 1, -WORD):
            with pytest.raises(AsmError, match=f"line 2: immediate {value} out of range"):
                assemble(f"HALT\nPUSH {value}\nHALT")

    def test_jump_target_out_of_range_reports_its_instruction(self):
        # PUSH 1 at bytes 13-21, POP at 22, JMP at 23-27; patch JMP's target
        raw = bytearray(assemble("top: PUSH 1\nPOP\nJMP top"))
        assert len(raw) == 28 and raw[24:28] == bytes(4)
        raw[24:28] = (99).to_bytes(4, "little")
        with pytest.raises(LoadError, match="jump target 99 out of range at instruction 2") as ei:
            vm_load(bytes(raw))
        assert ei.value.offset == 23

    @pytest.mark.parametrize("source,offset", [
        ("PUSH 1", 13),
        ("PUSH 1\nPOP", 22),
        ("top: PUSH 0\nJZ top", 22),
        ("PUSH 64\nNET_SEND", 22),
        ("HALT\nPUSH 1", 14),
    ])
    def test_fall_through_rejected(self, source, offset):
        with pytest.raises(LoadError, match="neither HALT nor JMP") as ei:
            vm_load(assemble(source))
        assert ei.value.offset == offset

    @pytest.mark.parametrize("data,message,offset", LOAD_ERRORS, ids=[m for _, m, _ in LOAD_ERRORS])
    def test_load_error_message_and_offset(self, data, message, offset):
        with pytest.raises(LoadError) as ei:
            vm_load(data)
        assert str(ei.value) == f"{message} (offset {offset})" and ei.value.offset == offset

    @pytest.mark.parametrize("source,message", ASM_ERRORS, ids=[m for _, m in ASM_ERRORS])
    def test_asm_error_message(self, source, message):
        with pytest.raises(AsmError) as ei:
            assemble(source)
        assert str(ei.value) == message

    def test_entry_label(self):
        img = vm_load(assemble(".entry go\nHALT\ngo: PUSH 7\nOUTPUT_WORD\nHALT\n"))
        res = vm_execute(img, b"", LIMITS)
        assert res.output == (7).to_bytes(8, "little")

    def test_label_alone_on_its_line_labels_the_next_instruction(self):
        # blank and comment lines between a bare label and its instruction
        # change nothing; two labels may name one instruction
        source = ("JMP go\nPUSH 9\nOUTPUT_WORD\ngo:\n\n  ; the target\nalso:   # both\n"
                  "PUSH 7\nOUTPUT_WORD\nJMP end\nend: HALT")
        image = vm_load(assemble(source))
        assert image.raw == assemble("JMP 3\nPUSH 9\nOUTPUT_WORD\nPUSH 7\nOUTPUT_WORD\nJMP 6\nHALT")
        assert vm_execute(image, b"", LIMITS).output == corp.words(7)

    def test_fusion_leaves_the_program_and_pins_fib_loop(self):
        raw = assemble(corp.FIB_SOURCE)
        image = vm_load(raw)
        assert image.raw == raw and image.function_hash == hash_bytes(raw)
        assert encode(image.program) == raw[13:]  # the instructions as parsed, none fused
        assert len(image.code) == len(image.program) == 48
        fused = {pc: entry for pc, (entry, instr) in enumerate(zip(image.code, image.program))
                 if entry != instr}
        # loop: LOADL 2; LOADL 0; GT; JNZ end, values[i] = values[i-1] + values[i-2] on the block in
        # local 1, LOADL 2; PUSH 1; ADD; STOREL 2; JMP loop: 23 steps a pass, the body at 24
        assert fused == {20: (0x7B, (23, 24, 2, 0, 1, 1, 2, 43))}
        # the whole loop is one dispatch, whatever its passes: 20 before it and 5 after
        runs = [dispatches(image, corp.fib_input(n)) for n in (5, 150)]
        assert runs[1][0] - runs[0][0] == 23 * 145
        assert [len(fetched) for _, fetched in runs] == [26, 26]

    def test_counted_loop_is_one_dispatch(self):
        # the generators' counted loop, fused at its test: 9 steps a pass, its
        # counter in local 15; 2 dispatches before it and 1 after, whatever its count
        source = ("PUSH {count}\nSTOREL 15\ntop: LOADL 15\nJZ end\nPUSH 7\nPOP\nLOADL 15\nPUSH 1\nSUB\n"
                  "STOREL 15\nJMP top\nend: HALT")
        image = vm_load(assemble(source.format(count=1)))
        assert image.code[2] == (0x7C, (9, 4, 15, None, None, None, None, 11))
        runs = [dispatches(vm_load(assemble(source.format(count=count))), b"") for count in (1, 12)]
        assert runs[1][0] - runs[0][0] == 9 * 11
        assert [fetched for _, fetched in runs] == [[0x01, 0x61, 0x7C, 0x00]] * 2

    def test_fused_code_takes_no_part_in_equality_or_repr(self):
        raw = assemble(corp.FIB_SOURCE)
        a, b = vm_load(raw), vm_load(raw)
        assert a == b and hash(a) == hash(b) and a.code is not b.code
        assert "code" not in repr(a) and repr(a) == repr(b)
        assert dataclasses.replace(a, code=a.program) == a

    def test_operand_free_and_slot_instructions_are_shared(self):
        # two loads hold the same INPUT_WORD and STOREL 0 object, not equal copies
        fib, echo = vm_load(assemble(corp.FIB_SOURCE)), vm_load(assemble(corp.ECHO_WORD_SOURCE))
        assert fib.program[1] == (0x50, None) and fib.program[1] is echo.program[1]
        assert fib.program[2] is vm_load(assemble("STOREL 0\nHALT")).program[0]

    def test_nothing_fused_reuses_the_program(self):
        for source in (corp.ECHO_WORD_SOURCE, "LOADL 1\nPUSH 1\nADD\nSTOREL 2\nHALT",
                       "LOADL 0\nGT\nHALT", "PUSH 1\nLOADL 0\nJMP 0"):
            image = vm_load(assemble(source))
            assert image.code is image.program, source

    def test_fused_pattern_needs_its_whole_run(self):
        # a run cut short by another instruction or by the program's end,
        # and a loop's test or back edge on its own, are not fused
        for source in ("LOADL 1\nLOADL 2\nPUSH 7\nSUB\nHALT",
                       "LOADL 3\nPUSH 7\nSUB\nSTOREL 3\nJMP t\nt: LOADL 3\nOUTPUT_WORD\nHALT",
                       "LOADL 1\nLOADL 2\nPUSH 7\nSUB\nLOAD\nADD\nHALT",
                       "LOADL 1\nLOADL 2\nLOADL 1\nLOADL 2\nPUSH 7\nSUB\nHALT",
                       "LOADL 1\nLOADL 2\nGT\nHALT", "PUSH 1\nPUSH 2\nADD\nHALT",
                       "LOADL 3\nPUSH 7\nSUB\nSTOREL 3\nJMP t\nt: LOADL 3\nJZ 0\nHALT"):
            image = vm_load(assemble(source))
            assert image.code is image.program, source
        # each loop shape with one thing changed is not fused: the step, the
        # slot stepped or tested, a heap op, a SET_TAG or a jump in the body,
        # fib's slot i also its bound or its block, and the loop cut by the
        # program's end
        for source in LOOP_NEAR_MISSES:
            image = vm_load(assemble(source))
            assert not {op for op, _ in image.code} & {0x7B, 0x7C}, source
        # the same counted back edge jumping to its own test fuses whole at the test
        image = vm_load(assemble("t: LOADL 3\nJZ e\nLOADL 3\nPUSH 1\nSUB\nSTOREL 3\nJMP t\ne: HALT"))
        assert image.code[0] == (0x7C, (7, 2, 3, None, None, None, None, 7))

    def test_every_fused_run_is_dispatched(self):
        # each fused opcode (FUSED_LINE holds them all) is fetched
        # by the corpus, the fuzz or the benchmark's adversarial programs,
        # so a superinstruction that none of them runs fails here
        workloads = _load("workloads")
        runs = [(corp.corpus()[name], data, LIMITS) for name, data in CORPUS_INPUTS.items()]
        rng = DeterministicRng(20240, "lowerbound")
        runs += [(*random_image(rng.child(f"prog{i}")), VMLimits(max_steps=4000)) for i in range(200)]
        for j in range(100):
            source = workloads.random_source(random.Random(f"perfbench/adversarial/301/{j}"),
                                             workloads.strata(j)[3])
            runs.append((vm_load(assemble(source)), corp.words(1), workloads.ADV_LIMITS))
        dispatched = set()
        for image, input_data, limits in runs:
            dispatched.update(dispatches(image, input_data, limits)[1])
        assert {op for op, _ in fused_program(FUSED_LINE, (2, 5, 4), 0).code if op >= 0x70} == FUSED_OPS
        assert FUSED_OPS <= dispatched


class TestExecution:
    def test_fib_10_outputs_55(self):
        res = run_named("fib", corp.fib_input(10))
        assert res.ok
        assert int.from_bytes(res.output, "little") == 55

    def test_fib_allocation_profile_is_single_block_of_n_plus_1_slots(self):
        res, allocs = effects(corp.corpus()["fib"], corp.fib_input(37))
        assert res.ok
        assert allocs == [(37 + 1) * 8]

    def test_fib_step_count_linear_in_n(self):
        # exact affine fit: steps = a*n + b for the loop structure
        pts = {}
        for n in (100, 500, 1000, 5000):
            res = run_named("fib", corp.fib_input(n))
            assert res.ok
            pts[n] = res.steps
        slope = (pts[5000] - pts[1000]) / 4000
        for n in pts:
            assert pts[n] == pytest.approx(slope * n + (pts[100] - slope * 100))

    def test_known_network_reports_exact_bytes(self):
        res, seen = effects(corp.corpus()["known_network"], corp.known_network_input(1000, 500))
        assert res.ok
        assert seen == [(1000, 0), (0, 500)]

    def test_empty_zero_allocations_empty_output(self):
        res, allocs = effects(corp.corpus()["empty"])
        assert res.ok and res.output == b"" and allocs == []

    def test_alloc_churn_alloc_then_free(self):
        res, events = effects(corp.corpus()["alloc_churn"], corp.alloc_churn_input(4096))
        assert res.ok
        assert events == [4096, -4096]

    def test_determinism_identical_results_and_hook_sequences(self):
        def one():
            return effects(corp.corpus()["fib"], corp.fib_input(50))

        r1, l1 = one()
        r2, l2 = one()
        assert r1 == r2 and l1 == l2

    @pytest.mark.parametrize("field", ["default", "heap", "net"])
    def test_instruction_costs_must_be_positive(self, field):
        with pytest.raises(ValueError, match="all instruction costs must be positive"):
            CostTable(**{field: 0})

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("field", ["max_steps", "max_memory", "max_output"])
    def test_limits_must_be_positive(self, field, value):
        with pytest.raises(ValueError, match="^limits must be strictly positive$"):
            VMLimits(**{field: value})
        assert getattr(VMLimits(**{field: 1}), field) == 1

    def test_cycles_equal_sum_of_instruction_costs(self):
        costs = CostTable(default=2, heap=11, net=7)
        image = corp.corpus()["known_network"]
        res = vm_execute(image, corp.known_network_input(10, 20), LIMITS, costs=costs)
        # 2 PUSH + 2 INPUT_WORD + 1 HALT at 2 cycles, 2 net ops at 7
        assert res.cycles == 5 * 2 + 2 * 7
        assert res.steps == 7

    def test_step_budget_trap(self):
        res = run_named("fib", corp.fib_input(10_000), limits=VMLimits(max_steps=50))
        assert res.status == "trapped" and res.reason == "budget:steps"

    def test_memory_budget_trap(self):
        res = run_named("alloc_churn", corp.alloc_churn_input(1 << 30), limits=VMLimits(max_memory=1 << 20))
        assert res.status == "trapped" and res.reason == "budget:memory"

    def test_bad_input_read_traps(self):
        res = run_named("fib", b"")  # no input words at all
        assert res.status == "trapped" and res.reason.startswith("fault:")

    def test_tag_defaults_and_override(self):
        from meterfaas.crypto import hash_bytes

        res = run_named("empty")
        assert res.tag == hash_bytes(b"")
        res2 = run_named("empty", default_tag=hash_bytes(b"token"))
        assert res2.tag == hash_bytes(b"token")

    def test_set_tag_hashes_heap_block(self):
        from meterfaas.crypto import hash_bytes

        src = """
            PUSH 8
            ALLOC
            STOREL 0
            LOADL 0
            PUSH 0
            PUSH 77
            STORE
            LOADL 0
            SET_TAG
            HALT
        """
        img = vm_load(assemble(src))
        res = vm_execute(img, b"", LIMITS)
        assert res.ok
        assert res.tag == hash_bytes((77).to_bytes(8, "little"))

    def test_realloc_grows_and_shrinks_with_hooks(self):
        src = """
            PUSH 16
            ALLOC
            PUSH 64
            REALLOC
            PUSH 8
            REALLOC
            FREE
            HALT
        """
        img = vm_load(assemble(src))
        res, events = effects(img)
        assert res.ok
        assert events == [16, 48, -56, -8]

    def test_full_budget_block_costs_its_size_in_host_memory(self):
        # ALLOC all of max_memory, store into its last word, shrink into that
        # word and regrow: no transient copy of the block and no per-word
        # object, so the traced peak stays within 1 MiB of the block's size
        import tracemalloc

        top = LIMITS.max_memory // 8 - 1
        src = f"""
            PUSH {LIMITS.max_memory}
            ALLOC
            STOREL 0
            LOADL 0
            PUSH {top}
            PUSH 0x0102030405060708
            STORE
            LOADL 0
            PUSH {LIMITS.max_memory - 3}
            REALLOC
            PUSH {LIMITS.max_memory}
            REALLOC
            PUSH {top}
            LOAD
            OUTPUT_WORD
            HALT
        """
        image = vm_load(assemble(src))
        tracemalloc.start()
        try:
            res = vm_execute(image, b"", LIMITS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.ok and res.output == (0x0000000405060708).to_bytes(8, "little")
        assert peak < LIMITS.max_memory + (1 << 20), peak

    def test_growing_realloc_builds_no_second_block(self):
        # an 8-byte block grown to the whole budget: the grown block is built
        # once at its final size, so the traced peak stays within 1 MiB of it
        import tracemalloc

        src = f"""
            PUSH 8
            ALLOC
            STOREL 0
            LOADL 0
            PUSH 0
            PUSH 0x0102030405060708
            STORE
            LOADL 0
            PUSH {LIMITS.max_memory}
            REALLOC
            DUP
            PUSH 0
            LOAD
            OUTPUT_WORD
            PUSH {LIMITS.max_memory // 8 - 1}
            LOAD
            OUTPUT_WORD
            HALT
        """
        image = vm_load(assemble(src))
        tracemalloc.start()
        try:
            res = vm_execute(image, b"", LIMITS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.ok and res.output == corp.words(0x0102030405060708, 0)
        assert peak < LIMITS.max_memory + (1 << 20), peak

    @pytest.mark.parametrize("start", [LIMITS.max_memory // 2, LIMITS.max_memory * 3 // 4 + 5])
    def test_growing_realloc_in_place_builds_no_zero_array_of_the_growth(self, start):
        # a block grown in place to the whole budget, from a whole word and
        # from a partial one, is extended by bounded zero chunks: no zero
        # array of the growth sits beside it, so the traced peak stays
        # within the sixteenth the array reserves past its size
        import tracemalloc

        last = start // 8 - 1
        src = f"""
            PUSH {start}
            ALLOC
            STOREL 0
            LOADL 0
            PUSH {last}
            PUSH 0x0102030405060708
            STORE
            LOADL 0
            PUSH {LIMITS.max_memory}
            REALLOC
            DUP
            PUSH {last}
            LOAD
            OUTPUT_WORD
            PUSH {LIMITS.max_memory // 8 - 1}
            LOAD
            OUTPUT_WORD
            HALT
        """
        image = vm_load(assemble(src))
        tracemalloc.start()
        try:
            res, events = effects(image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.ok and res.output == corp.words(0x0102030405060708, 0)
        assert events == [start, LIMITS.max_memory - start]
        assert peak < LIMITS.max_memory * 17 // 16 + (1 << 19), peak


def trace(execute, image, input_data, limits, costs):
    """Drive an interpreter generator as `vm_execute` does; log every yield
    and every ``on_mem`` call in order, as ``("mem", delta)`` with the signed
    delta, so a call's position shows which block it completed. Returns the
    log and the result."""
    log = []
    gen = execute(image, input_data, limits, lambda delta: log.append(("mem", delta)), costs)
    try:
        item = next(gen)
        while True:
            log.append(item if isinstance(item, NetIo) else ("cost", item))
            item = gen.send(None)
    except StopIteration as stop:
        return log, stop.value


def drive(source, input_data=b"", limits=LIMITS, costs=CostTable(default=1, heap=10, net=5)):
    return trace(execute_steps, vm_load(assemble(source)), input_data, limits, costs)


class TestBlocks:
    def test_private_instructions_yield_one_cost(self):
        log, res = drive("PUSH 2\nPUSH 3\nADD\nOUTPUT_WORD\nHALT")
        assert log == [("cost", 5)]
        assert res.ok and res.steps == 5 and res.cycles == 5

    def test_heap_op_closes_block_and_runs_at_its_end(self):
        log, res = drive("PUSH 1\nPOP\nPUSH 16\nALLOC\nSTOREL 0\nLOADL 0\nFREE\nPUSH 7\nPOP\nHALT")
        # PUSH POP PUSH ALLOC = 1+1+1+10; STOREL LOADL FREE = 1+1+10; PUSH POP HALT
        assert log == [("cost", 13), ("mem", 16), ("cost", 12), ("mem", -16), ("cost", 3)]
        assert res.ok and res.steps == 10 and res.cycles == 28

    def test_network_op_flushes_pending_cost_first(self):
        log, res = drive("PUSH 1\nPOP\nPUSH 64\nNET_SEND\nPUSH 8\nNET_RECV\nHALT")
        assert log == [("cost", 3), NetIo(5, 64, 0), ("cost", 1), NetIo(5, 0, 8), ("cost", 1)]
        assert res.ok and res.steps == 7 and res.cycles == 15

    def test_private_fault_flushes_pending_cost(self):
        # the faulting POP is charged, as when each instruction was yielded
        log, res = drive("PUSH 1\nPOP\nPUSH 16\nALLOC\nPUSH 1\nPOP\nPOP\nPOP\nHALT")
        assert res.status == "trapped" and res.reason == "fault:stack-underflow"
        assert log == [("cost", 13), ("mem", 16), ("cost", 4)]
        assert res.steps == 8 and res.cycles == 17

    def test_step_budget_flushes_pending_cost(self):
        log, res = drive("top: PUSH 1\nPOP\nJMP top", limits=VMLimits(max_steps=50))
        assert res.status == "trapped" and res.reason == "budget:steps"
        assert log == [("cost", 50)]
        assert res.steps == 50 and res.cycles == 50

    def test_yields_steps_and_cycles_per_op_class(self):
        # private ops cost `default`, heap ops `heap`, network ops `net`
        log, res = drive("""
            PUSH 16
            ALLOC
            STOREL 0
            LOADL 0
            PUSH 0
            PUSH 5
            STORE
            LOADL 0
            PUSH 32
            REALLOC
            PUSH 64
            NET_SEND
            PUSH 8
            NET_RECV
            FREE
            HALT
        """, costs=CostTable(default=2, heap=7, net=3))
        assert log == [("cost", 9), ("mem", 16), ("cost", 21), ("mem", 16), ("cost", 2),
                       NetIo(3, 64, 0), ("cost", 2), NetIo(3, 0, 8), ("cost", 7), ("mem", -32),
                       ("cost", 2)]
        assert res.ok and res.steps == 16 and res.cycles == 11 * 2 + 3 * 7 + 2 * 3


COST_TABLES = [CostTable(default=1, heap=10, net=5), CostTable(default=2, heap=7, net=3),
               CostTable(default=3, heap=1, net=2)]

# every trap reason the interpreter can return
TRAP_REASONS = {"budget:steps", "budget:memory", "budget:output", "fault:stack-underflow",
                "fault:bad-handle", "fault:out-of-bounds", "fault:input-out-of-bounds"}

# ops that pop, with an operand when they take one, and how many words they pop
POPPING = [("POP", 1), ("DUP", 1), ("SWAP", 2), ("OVER", 2), ("ADD", 2), ("SUB", 2), ("MUL", 2),
           ("LT", 2), ("GT", 2), ("EQ", 2), ("JZ end", 1), ("JNZ end", 1), ("ALLOC", 1),
           ("REALLOC", 2), ("FREE", 1), ("LOAD", 2), ("STORE", 3), ("NET_SEND", 1),
           ("NET_RECV", 1), ("INPUT_WORD", 1), ("OUTPUT_WORD", 1), ("SET_TAG", 1), ("STOREL 3", 1)]

TRAP_SOURCES = [
    "PUSH 99\nPUSH 0\nLOAD\nHALT",  # bad handle on each handle-taking op
    "PUSH 99\nPUSH 0\nPUSH 1\nSTORE\nHALT",
    "PUSH 99\nPUSH 8\nREALLOC\nHALT",
    "PUSH 99\nFREE\nHALT",
    "PUSH 99\nSET_TAG\nHALT",
    "PUSH 8\nALLOC\nDUP\nFREE\nFREE\nHALT",  # double free
    "PUSH 8\nALLOC\nPUSH 1\nLOAD\nHALT",  # one word past the block
    "PUSH 8\nALLOC\nPUSH 1\nPUSH 5\nSTORE\nHALT",
    "PUSH 16\nALLOC\nPUSH 8\nREALLOC\nPUSH 1\nLOAD\nHALT",  # past a shrunk block
    "PUSH 2\nINPUT_WORD\nHALT",
    "top: PUSH 1\nOUTPUT_WORD\nJMP top",
    "PUSH 4096\nALLOC\nHALT",
    "PUSH 8\nALLOC\nPUSH 4096\nREALLOC\nHALT",
    "top: PUSH 512\nALLOC\nPOP\nJMP top",
    "PUSH 4\nSTOREL 0\ntop: LOADL 0\nJZ end\nLOADL 0\nPUSH 1\nSUB\nSTOREL 0\nPUSH 3\n"
    "NET_SEND\nPUSH 8\nALLOC\nPUSH 16\nREALLOC\nFREE\nPUSH 2\nNET_RECV\nJMP top\nend: HALT",
]
TRAP_LIMITS = VMLimits(max_steps=400, max_memory=1024, max_output=64)

# a loop that runs every op class, for step budgets that end on each of them
LOOP_SOURCE = """
        PUSH 0
        STOREL 0
top:    PUSH 8
        ALLOC
        DUP
        PUSH 0
        LOADL 0
        STORE
        PUSH 16
        REALLOC
        FREE
        PUSH 3
        NET_SEND
        LOADL 0
        PUSH 1
        ADD
        STOREL 0
        PUSH 2
        NET_RECV
        JMP top
"""


def recurrence(x=5, b=1, h=4, k=1, d=2, test=None, step="PUSH 1\nADD", body="", top="top", exit="out"):
    """fib's loop: while local `test` (`x` if None) <= local `b`, values[i] =
    values[i - k] + values[i - d] on the block in local `h` with i in local
    `x`, then `body`, then `step` on local `x`; `exit` past it."""
    t = x if test is None else test
    return (f"{top}: LOADL {t}\nLOADL {b}\nGT\nJNZ {exit}\nLOADL {h}\nLOADL {x}\nLOADL {h}\nLOADL {x}\n"
            f"PUSH {k}\nSUB\nLOAD\nLOADL {h}\nLOADL {x}\nPUSH {d}\nSUB\nLOAD\nADD\nSTORE\n{body}"
            f"LOADL {x}\n{step}\nSTOREL {x}\nJMP {top}")


def countdown(c=5, body="PUSH 7\nPOP\n", test=None, step=1, count=None, top="top", exit="out"):
    """A generated counted loop: `count` (if given) into local `c`, then
    while local `test` (`c` if None) is not 0, `body` and local `c` minus
    `step`; `exit` past it."""
    start = "" if count is None else f"PUSH {count}\nSTOREL {c}\n"
    t = c if test is None else test
    return f"{start}{top}: LOADL {t}\nJZ {exit}\n{body}LOADL {c}\nPUSH {step}\nSUB\nSTOREL {c}\nJMP {top}"


# runs around the no-effect runs and around the pieces the two loops are
# made of, which run unfused outside a whole loop: k = 0, SUBs that wrap
# below zero, a STOREL to another slot, a JMP tail, loop tests, fib's
# values[i-k] over the block in local 4 that loads a word, a bad handle, an
# index past the block, into its partial last word and wrapped below zero,
# the no-effect runs with their near misses and a jump into their POP (taken
# when local 3 is 0); `out` is past the run
FUSED_RUNS = [
    "LOADL 1\nLOADL 2",
    "LOADL 1\nLOADL 2\nPUSH 7\nSUB",
    "LOADL 1\nLOADL 2\nPUSH 0\nSUB",
    "LOADL 2\nPUSH 9\nADD\nSTOREL 2",
    "LOADL 2\nPUSH 9\nSUB\nSTOREL 2",
    "LOADL 2\nPUSH 0\nSUB\nSTOREL 2",
    "LOADL 2\nPUSH 0\nADD\nSTOREL 2\nJMP out",
    "LOADL 3\nPUSH 1\nSUB\nSTOREL 3\nJMP out",
    "LOADL 2\nPUSH 1\nADD\nSTOREL 3",
    "LOADL 1\nLOADL 2\nGT\nJNZ out",
    "LOADL 3\nJZ out",
    "LOADL 1\nLOADL 1\nPUSH 1\nADD\nSTOREL 1",
    "LOADL 1\nLOADL 2\nPUSH 1\nSUB\nSTOREL 2\nJMP out",
    "LOADL 1\nLOADL 2\nLOADL 1\nLOADL 2\nGT\nJNZ out",
    "LOADL 3\nLOADL 3\nJZ out",
    "LOADL 4\nLOADL 2\nPUSH 1\nSUB\nLOAD",
    "LOADL 4\nLOADL 2\nPUSH 2\nSUB\nLOAD",
    "LOADL 4\nLOADL 1\nPUSH 7\nSUB\nLOAD",
    "LOADL 3\nLOADL 2\nPUSH 1\nSUB\nLOAD",
    "LOADL 4\nLOADL 2\nLOADL 4\nLOADL 2\nPUSH 1\nSUB\nLOAD\nADD",
    "LOADL 4\nLOADL 2\nPUSH 1\nSUB\nLOAD\nSTOREL 3\nJMP out",
    "PUSH 7\nPOP",
    "PUSH 7\nPUSH 9\nADD\nPOP",
    "PUSH 7\nPUSH 9\nSUB\nPOP",
    "PUSH 7\nPUSH 9\nMUL\nPOP",
    "PUSH 7\nPUSH 9\nGT\nPOP",
    "PUSH 7\nPUSH 9\nADD\nSTOREL 3",
    "PUSH 7\nPUSH 8\nPOP\nPOP",
    "LOADL 3\nJZ p\nPUSH 5\np: POP",
    "LOADL 3\nJZ p\nPUSH 5\nPUSH 6\nMUL\np: POP",
]
# the two whole loops, each entered at its first instruction, its test and
# its body head: fib's over the block in local 4 (its 3 whole words)
# exiting at once, after whole passes, or with its last pass trapping at its
# first LOAD, its second LOAD or its STORE, and stopping after its test at
# i < k, at k <= i < d and on a bad handle; counted loops of 0, 1, 4 and 12
# passes over bodies of 0, 1 and 2 no-effect runs; and each loop's near
# misses, which run unfused; `out` is past the loop
LOOP_RUNS = [
    # i from 1 to local 1 (2 or 9), the pass at i = 3 trapping at its second
    # LOAD, its first LOAD, and (i from 2) its STORE
    "PUSH 1\nSTOREL 5\n" + recurrence(k=1, d=0),
    "PUSH 1\nSTOREL 5\n" + recurrence(k=0, d=1),
    "PUSH 2\nSTOREL 5\n" + recurrence(k=1, d=2),
    "PUSH 1\nSTOREL 5\nPUSH 1\nSTOREL 6\n" + recurrence(b=6, k=1, d=0),  # i = 1 to 1: exits inside the block
    recurrence(x=3, b=2),  # i = 0 < k or i = 4 past the block
    "PUSH 1\nSTOREL 5\n" + recurrence(k=0, d=2),  # k <= i < d
    "PUSH 2\nSTOREL 5\n" + recurrence(h=3),  # no block in local 3
    recurrence(x=1, b=2),  # i = 9 exits at once, i = 2 runs one pass
    "PUSH 1\nSTOREL 5\n" + recurrence(x=4, h=4),  # near misses: i is the block's handle,
    "PUSH 1\nSTOREL 5\n" + recurrence(b=5),  # its own bound,
    "PUSH 1\nSTOREL 5\n" + recurrence(step="PUSH 2\nADD"),  # stepped by 2,
    "PUSH 1\nSTOREL 5\n" + recurrence(test=2),  # not the slot tested,
    "PUSH 1\nSTOREL 5\n" + recurrence(body="PUSH 8\nALLOC\nPOP\n"),  # a heap op in the body,
    "PUSH 1\nSTOREL 5\n" + recurrence(body="LOADL 4\nSET_TAG\n"),  # a SET_TAG in the body
    countdown(count=0),
    countdown(count=1),
    countdown(count=12),
    countdown(c=3, body=""),  # local 3: 0 or 4 passes
    countdown(c=3, body="PUSH 6\nPUSH 7\nMUL\nPOP\n"),
    countdown(c=3, body="PUSH 5\nPOP\nPUSH 6\nPUSH 7\nSUB\nPOP\n"),
    countdown(c=3, step=2),  # near misses: stepped by 2,
    countdown(c=5, test=3, count=2),  # not the slot tested,
    countdown(c=3, body="PUSH 8\nALLOC\nPOP\n"),  # a heap op in the body,
    countdown(c=3, body="LOADL 4\nSET_TAG\n"),  # a SET_TAG in the body
]
# runs around pieces of fib's body that end in a LOAD or STORE, loop tests
# behind a back edge, and fib's whole loop, each entered over every stack of
# FUSED_STACKS, so that a LOAD, ADD or STORE (a pass of the loop entered
# inside its body too) finds each of them
JOINED_RUNS = [
    "LOADL 1\nLOADL 2\nLOADL 4\nLOADL 1\nPUSH 1\nSUB\nLOAD",
    "LOADL 4\nLOADL 1\nLOADL 3\nLOADL 2\nPUSH 0\nSUB\nLOAD",
    "LOADL 2\nLOADL 2\nLOADL 4\nLOADL 2\nPUSH 4\nSUB\nLOAD\nADD\nSTORE",
    "LOADL 4\nLOADL 1\nPUSH 1\nSUB\nLOAD\nADD\nSTORE",
    "LOADL 4\nLOADL 2\nPUSH 2\nSUB\nLOAD\nADD\nSTORE",
    "LOADL 3\nLOADL 1\nPUSH 1\nSUB\nLOAD\nADD\nSTORE",
    "LOADL 4\nLOADL 1\nPUSH 7\nSUB\nLOAD\nADD\nSTORE\nLOADL 1",
    "LOADL 4\nLOADL 2\nLOADL 4\nLOADL 2\nPUSH 1\nSUB\nLOAD\nLOADL 4\nLOADL 2\nPUSH 2\nSUB\nLOAD\nADD\nSTORE",
    "top: LOADL 1\nLOADL 2\nGT\nJNZ out\nLOADL 2\nPUSH 1\nSUB\nSTOREL 2\nJMP top",
    "top: LOADL 3\nJZ out\nLOADL 3\nPUSH 1\nSUB\nSTOREL 3\nJMP top",
    "LOADL 1\nPUSH 7\nSUB\nSTOREL 1\nJMP t\nt: LOADL 2\nLOADL 1\nGT\nJNZ out\nPUSH 77",
    "LOADL 2\nPUSH 3\nADD\nSTOREL 2\nJMP t\nt: LOADL 3\nJZ out\nPUSH 77",
    "LOADL 3\nPUSH 1\nADD\nSTOREL 3\nJMP t\nPUSH 9\nt: LOADL 3\nPUSH 1\nSUB\nSTOREL 3\nJMP out",
    "PUSH 1\nSTOREL 5\n" + recurrence(k=1, d=0),
]
# each loop shape with one thing changed, which _fuse must not fuse: the
# step, the slot stepped or tested, a heap op, a SET_TAG or a jump in the
# body, fib's index also its bound or its block, and the loop cut short by
# the program's end
LOOP_NEAR_MISSES = [source + "\nout: HALT" for source in (
    recurrence(x=4, h=4), recurrence(b=5), recurrence(step="PUSH 2\nADD"), recurrence(step="PUSH 1\nSUB"),
    recurrence(test=2), recurrence(body="PUSH 8\nALLOC\nPOP\n"), recurrence(body="LOADL 4\nSET_TAG\n"),
    recurrence(body="JMP b\nb: PUSH 5\nPOP\n"), recurrence().replace("GT", "LT"),
    countdown(step=2), countdown(step="0xffffffffffffffff"), countdown(test=3),
    countdown(body="PUSH 8\nALLOC\nPOP\n"), countdown(body="LOADL 4\nSET_TAG\n"),
    countdown(body="PUSH 5\nPUSH 6\nGT\nPOP\n"), countdown(body="PUSH 5\nJZ out\n"),
)] + ["\n".join(recurrence(exit="top").splitlines()[:18] + ["JMP top"]),
      "top: LOADL 5\nJZ top\nPUSH 5\nPOP\nLOADL 5\nJMP top"]
# every superinstruction _fuse emits: the no-effect runs and the two loops
FUSED_OPS = {0x7A, 0x7B, 0x7C}
# fib's loop from i = 1 to local 1 = 2 (two passes), then a counted loop of
# three passes over two no-effect runs, then a no-effect run, for locals 1-3
# = (2, 5, 4): a line that runs every fused opcode to completion
FUSED_LINE = ("PUSH 1\nSTOREL 5\n" + recurrence(k=1, d=0, top="f", exit="g") + "\n"
              + "g: " + countdown(c=6, count=3, body="PUSH 5\nPOP\nPUSH 6\nPUSH 7\nMUL\nPOP\n", top="c", exit="e")
              + "\ne: PUSH 8\nPUSH 9\nSUB\nPOP\nJMP out")
# locals 1-3: l1 > l2 with l3 = 0, then l1 < l2 with l3 != 0; both wrap SUB 7
# and SUB 9; l3 is no handle, l2 - 1 and l2 - 2 index the block's words with
# l2 = 3 and lie past them with l2 = 5
FUSED_LOCALS = [(9, 3, 0), (2, 5, 4)]
SENTINEL = 12345
# a step budget past every run of fused_programs that ends (the longest, the
# counted loop of 12 passes, takes 162 steps), for the loops that do not
FUSED_LIMITS = VMLimits(max_steps=170)
# the words under a run, bottom first: 0-3 of them, so that ADD and STORE
# after a fused LOAD find too few words, a bad handle, the block in local 4
# (handle 1) with an index inside it, and one past its whole words; with no
# sentinel at the bottom the epilogue ends in an underflow
FUSED_STACKS = [(), (SENTINEL,), (SENTINEL, 5), (SENTINEL, 5, 6), (1, 2, 7), (1, 3, 7)]


def fused_program(run, values, entry, stack=(SENTINEL, 5, 6)):
    """`run` entered at its `entry`-th instruction, after a prologue that puts
    a 28-byte block holding 100, 101, 102 and a 4-byte tail in local 4, sets
    locals 1-3 to `values` and pushes the words of `stack`, and before an
    epilogue that tags the block in local 4 (so the result shows every word
    a run stored) and outputs the locals and the stack down to the
    sentinel."""
    lines = run.splitlines()
    lines[entry] = "in: " + lines[entry]
    prologue = ["PUSH 28", "ALLOC", "STOREL 4"]
    prologue += [f"LOADL 4\nPUSH {i}\nPUSH {100 + i}\nSTORE" for i in range(3)]
    prologue += [f"PUSH {v}\nSTOREL {slot}" for slot, v in zip((1, 2, 3), values)]
    prologue += [f"PUSH {word}" for word in stack] + ["JMP in"]
    epilogue = ["out: LOADL 4", "SET_TAG", "LOADL 1", "OUTPUT_WORD", "LOADL 2", "OUTPUT_WORD", "LOADL 3",
                "OUTPUT_WORD", "drain: DUP", f"PUSH {SENTINEL}", "EQ", "JNZ done", "OUTPUT_WORD", "JMP drain",
                "done: HALT"]
    return vm_load(assemble("\n".join(prologue + lines + epilogue)))


def fused_programs():
    for runs, stacks in ((FUSED_RUNS, [(SENTINEL, 5, 6)]), (JOINED_RUNS, FUSED_STACKS)):
        for run in runs:
            for values in FUSED_LOCALS:
                for entry in range(len(run.splitlines())):
                    for stack in stacks:
                        yield fused_program(run, values, entry, stack)
    for run in LOOP_RUNS:
        lines = run.splitlines()
        test = next(i for i, line in enumerate(lines) if line.startswith("top:"))
        body = test + (2 if lines[test + 1].startswith("JZ") else 4)
        for values in FUSED_LOCALS:
            for entry in sorted({0, test, body}):
                yield fused_program(run, values, entry)


# a random valid program over the fused patterns' opcodes: single
# instructions and whole patterns, the no-effect runs and both loops
# included, slots from a small set so that patterns and their near misses
# both occur, any jump target, a back edge into a loop test or a jump into
# the next instruction, HALT or JMP last, after a prologue that allocates a
# block into local 0; ("at", j) is the piece's j-th instruction
_SLOTS = st.integers(0, 2)
_WORDS = st.sampled_from([0, 1, 2, 7, WORD - 1]) | st.integers(0, WORD - 1)
_ARITH = st.sampled_from(["ADD", "SUB"])
_BOUNDS = st.integers(0, 12) | st.just(WORD - 1)
_SHIFTS = st.integers(0, 3) | _WORDS
_STEPS = st.sampled_from([1, 1, 1, 2, WORD - 1])
_NOEFFECT_RUN = st.builds(lambda x: (("PUSH", x), ("POP",)), _WORDS) | st.builds(
    lambda x, y, op: (("PUSH", x), ("PUSH", y), (op,), ("POP",)), _WORDS, _WORDS, st.sampled_from(["ADD", "MUL"]))


def _recurrence_piece(bound, i, x, b, h, k, d, step):
    """fib's loop with its bound in local `b` and i in local `x` (stored in
    that order), over the block in local `h`: slot 0 holds the block unless
    a store overwrites it."""
    load = (("LOADL", h), ("LOADL", x))
    return (("PUSH", bound), ("STOREL", b), ("PUSH", i), ("STOREL", x), ("LOADL", x), ("LOADL", b), ("GT",),
            ("JNZ", ("at", 27)), *load, *load, ("PUSH", k), ("SUB",), ("LOAD",), *load, ("PUSH", d), ("SUB",),
            ("LOAD",), ("ADD",), ("STORE",), ("LOADL", x), ("PUSH", step), ("ADD",), ("STOREL", x),
            ("JMP", ("at", 4)))


def _countdown_piece(count, c, runs, step):
    """A counted loop from `count` in local `c` over the no-effect `runs`."""
    body = [instr for run in runs for instr in run]
    return (("PUSH", count), ("STOREL", c), ("LOADL", c), ("JZ", ("at", 9 + len(body))), *body,
            ("LOADL", c), ("PUSH", step), ("SUB",), ("STOREL", c), ("JMP", ("at", 2)))


_PIECES = st.one_of(
    st.tuples(st.sampled_from(["LOADL", "STOREL"]), _SLOTS),
    st.tuples(st.just("PUSH"), _WORDS),
    st.tuples(st.sampled_from(["ADD", "SUB", "MUL", "GT", "POP", "LOAD", "STORE", "HALT"])),
    st.builds(lambda k: (("PUSH", k), ("POP",)), _WORDS),
    st.builds(lambda x, y, op: (("PUSH", x), ("PUSH", y), (op,), ("POP",)),
              _WORDS, _WORDS, st.sampled_from(["ADD", "SUB", "MUL"])),
    st.tuples(st.sampled_from(["JNZ", "JZ", "JMP"]), st.integers(0, 10 ** 6)),
    st.builds(lambda a, b, k: (("LOADL", a), ("LOADL", b), ("PUSH", k), ("SUB",)), _SLOTS, _SLOTS, _WORDS),
    st.builds(lambda a, k, op: (("LOADL", a), ("PUSH", k), (op,), ("STOREL", a)), _SLOTS, _WORDS, _ARITH),
    st.builds(lambda a, b, t: (("LOADL", a), ("LOADL", b), ("GT",), ("JNZ", t)),
              _SLOTS, _SLOTS, st.integers(0, 10 ** 6)),
    st.builds(lambda a, t: (("LOADL", a), ("JZ", t)), _SLOTS, st.integers(0, 10 ** 6)),
    st.builds(lambda h, i, k: (("LOADL", h), ("LOADL", i), ("PUSH", k), ("SUB",), ("LOAD",)),
              _SLOTS, _SLOTS, _WORDS),
    st.builds(lambda a, b, h, i, k: (("LOADL", a), ("LOADL", b), ("LOADL", h), ("LOADL", i), ("PUSH", k),
                                     ("SUB",), ("LOAD",)), _SLOTS, _SLOTS, _SLOTS, _SLOTS, _WORDS),
    st.builds(lambda h, i, k: (("LOADL", h), ("LOADL", i), ("PUSH", k), ("SUB",), ("LOAD",), ("ADD",),
                               ("STORE",)), _SLOTS, _SLOTS, _WORDS),
    st.builds(lambda a, k, op, c, d, t: (("LOADL", c), ("LOADL", d), ("GT",), ("JNZ", t), ("LOADL", a),
                                         ("PUSH", k), (op,), ("STOREL", a), ("JMP", ("at", 0))),
              _SLOTS, _WORDS, _ARITH, _SLOTS, _SLOTS, st.integers(0, 10 ** 6)),
    st.builds(lambda a, k, op, c: (("LOADL", c), ("JZ", ("at", 7)), ("LOADL", a), ("PUSH", k), (op,),
                                   ("STOREL", a), ("JMP", ("at", 0))), _SLOTS, _WORDS, _ARITH, _SLOTS),
    st.builds(lambda a, k, op, c, t: (("LOADL", a), ("PUSH", k), (op,), ("STOREL", a), ("JMP", ("at", 5)),
                                      ("LOADL", c), ("JZ", t)),
              _SLOTS, _WORDS, _ARITH, _SLOTS, st.integers(0, 10 ** 6)),
    st.builds(_recurrence_piece, _BOUNDS, st.integers(0, 6), _SLOTS, _SLOTS, _SLOTS, _SHIFTS, _SHIFTS, _STEPS),
    st.builds(_countdown_piece, _BOUNDS, _SLOTS, st.lists(_NOEFFECT_RUN, max_size=2), _STEPS),
)


@st.composite
def fused_sources(draw):
    instrs = [("PUSH", draw(st.integers(0, 40))), ("ALLOC",), ("STOREL", 0)]
    for piece in draw(st.lists(_PIECES, min_size=1, max_size=12)):
        start = len(instrs)
        for name, *operand in piece if isinstance(piece[0], tuple) else [piece]:
            if operand and isinstance(operand[0], tuple):  # ("at", j)
                operand = [start + operand[0][1]]
            instrs.append((name, *operand))
    instrs.append(draw(st.sampled_from([("HALT",), ("JMP", 0)])))
    lines = []
    for name, *operand in instrs:
        if name in ("JNZ", "JZ", "JMP"):
            operand = [operand[0] % len(instrs)]
        lines.append(" ".join([name, *map(str, operand)]))
    return "\n".join(lines)


# 256 bytes of memory: room for three blocks of a few words, not for the largest sizes
HEAP_LIMITS = VMLimits(max_steps=4000, max_memory=256, max_output=1 << 16)


def heap_source(rng):
    """A random straight-line program over three blocks held in locals 0-2:
    ALLOC, REALLOC (grow, shrink, into and out of a partial word), STORE,
    LOAD (plain, or fib's `LOADL h; LOADL i; PUSH k; SUB; LOAD` with local 3
    as i), SET_TAG and FREE. Slots never allocated or freed hold bad handles;
    a few ops take a literal bad handle, an index up to 2^64-1 or a size past
    the memory budget. Every LOAD outputs its word."""

    def pick(*options):
        return options[rng.randrange(len(options))]

    def size():  # mostly 2-5 words, some under 2 words, some past the budget
        roll = rng.randrange(10)
        return rng.randrange(300) if roll == 0 else rng.randrange(16) if roll == 1 else 16 + rng.randrange(25)

    def index():
        roll = rng.randrange(9)
        return (WORD - 1, 1 << 63, rng.randrange(6))[roll] if roll < 3 else rng.randrange(2)

    def handle(slot):
        return f"PUSH {pick(0, 99, WORD - 1)}" if rng.randrange(30) == 0 else f"LOADL {slot}"

    base = rng.u64()
    lines = [f"PUSH {base}", "STOREL 3"]
    for slot in range(3):
        lines += [f"PUSH {8 + rng.randrange(33)}", "ALLOC", f"STOREL {slot}"]
    for _ in range(1 + rng.randrange(20)):
        slot = rng.randrange(3)
        kind = rng.randrange(12)
        if kind < 1:
            lines += [f"PUSH {size()}", "ALLOC", f"STOREL {slot}"]
        elif kind < 3:
            lines += [handle(slot), f"PUSH {size()}", "REALLOC", f"STOREL {slot}"]
        elif kind < 6:
            value = pick(WORD - 1, rng.u64(), rng.randrange(256))
            lines += [handle(slot), f"PUSH {index()}", f"PUSH {value}", "STORE"]
        elif kind < 8:
            lines += [handle(slot), f"PUSH {index()}", "LOAD", "OUTPUT_WORD"]
        elif kind < 10:
            k = (base - index()) % WORD
            lines += [f"LOADL {slot}", "LOADL 3", f"PUSH {k}", "SUB", "LOAD", "OUTPUT_WORD"]
        elif kind < 11:
            lines += [handle(slot), "SET_TAG"]
        elif rng.randrange(2):
            lines += [handle(slot), "FREE"]
        else:
            lines += [handle(slot), "FREE", f"PUSH {rng.randrange(41)}", "ALLOC", f"STOREL {slot}"]
    lines.append("HALT")
    return "\n".join(lines)


# store all-ones at word 1 of a 16-byte block, shrink it into that word, tag
# it, regrow it and load the word: the four bytes cut off read back as zero
PARTIAL_WORD_SOURCE = """
        PUSH 16
        ALLOC
        STOREL 0
        LOADL 0
        PUSH 1
        PUSH 18446744073709551615
        STORE
        LOADL 0
        PUSH 12
        REALLOC
        SET_TAG
        LOADL 0
        PUSH 16
        REALLOC
        PUSH 1
        LOAD
        OUTPUT_WORD
        HALT
"""


# programs that run every opcode to completion, each with its input words
# and the words it outputs; comparisons see less, equal and greater, jumps
# are taken and not taken, and arithmetic wraps both ways
COMPLETING_PROGRAMS = [
    ("PUSH 5\nPUSH 9\nLT\nOUTPUT_WORD\nPUSH 9\nPUSH 5\nLT\nOUTPUT_WORD\nPUSH 5\nPUSH 5\nLT\n"
     "OUTPUT_WORD\nHALT", [], [1, 0, 0]),
    ("PUSH 5\nPUSH 9\nGT\nOUTPUT_WORD\nPUSH 9\nPUSH 5\nGT\nOUTPUT_WORD\nPUSH 5\nPUSH 5\nGT\n"
     "OUTPUT_WORD\nHALT", [], [0, 1, 0]),
    ("PUSH 5\nPUSH 9\nEQ\nOUTPUT_WORD\nPUSH 5\nPUSH 5\nEQ\nOUTPUT_WORD\nHALT", [], [0, 1]),
    ("PUSH 1\nPUSH 2\nSWAP\nOUTPUT_WORD\nOUTPUT_WORD\nPUSH 10\nPUSH 3\nSWAP\nSUB\nOUTPUT_WORD\nHALT",
     [], [1, 2, WORD - 7]),
    ("PUSH 1\nPUSH 2\nOVER\nOUTPUT_WORD\nOUTPUT_WORD\nOUTPUT_WORD\nPUSH 10\nPUSH 3\nOVER\nSUB\n"
     "SUB\nOUTPUT_WORD\nHALT", [], [1, 2, 1, 17]),
    ("PUSH 3\nDUP\nPUSH 4\nPOP\nMUL\nOUTPUT_WORD\nHALT", [], [9]),
    ("PUSH -1\nPUSH 2\nADD\nOUTPUT_WORD\nPUSH 2\nPUSH 3\nSUB\nOUTPUT_WORD\nPUSH 0x100000000\n"
     "PUSH 0x100000001\nMUL\nOUTPUT_WORD\nHALT", [], [1, WORD - 1, 1 << 32]),
    ("PUSH 0\nJZ a\nPUSH 111\nOUTPUT_WORD\na: PUSH 1\nJZ b\nPUSH 2\nOUTPUT_WORD\nb: PUSH 1\nJNZ c\n"
     "PUSH 333\nOUTPUT_WORD\nc: PUSH 0\nJNZ d\nPUSH 4\nOUTPUT_WORD\nd: JMP e\nPUSH 555\nOUTPUT_WORD\n"
     "e: HALT", [], [2, 4]),
    ("PUSH 1\nINPUT_WORD\nSTOREL 15\nPUSH 0\nINPUT_WORD\nSTOREL 0\nLOADL 0\nLOADL 15\nOUTPUT_WORD\n"
     "OUTPUT_WORD\nHALT", [11, 22], [22, 11]),
    ("PUSH 12\nALLOC\nSTOREL 0\nLOADL 0\nPUSH 0\nPUSH 77\nSTORE\nLOADL 0\nPUSH 24\nREALLOC\nPUSH 2\n"
     "PUSH 5\nSTORE\nLOADL 0\nPUSH 0\nLOAD\nOUTPUT_WORD\nLOADL 0\nPUSH 2\nLOAD\nOUTPUT_WORD\nLOADL 0\n"
     "SET_TAG\nLOADL 0\nFREE\nHALT", [], [77, 5]),
    ("PUSH 64\nNET_SEND\nPUSH 8\nNET_RECV\nPUSH 6\nOUTPUT_WORD\nHALT", [], [6]),
]


def underflow_sources():
    """Each popping op on every too-shallow stack, with and without a pending
    block of private instructions in front of it."""
    for op, depth in POPPING:
        for prefix in ("", "PUSH 7\nPOP\n"):
            for have in range(depth):
                yield prefix + "PUSH 1\n" * have + op + "\nend: HALT"


def mutants(source):
    """Every variant of `source` with one line dropped that still loads."""
    lines = [line for line in source.splitlines() if line.strip()]
    for i in range(len(lines)):
        try:
            yield vm_load(assemble("\n".join(lines[:i] + lines[i + 1:])))
        except (AsmError, LoadError):
            continue


@functools.cache
def adversarial_programs():
    """The image and input of the first 1200 cases of perfbench's
    ``adversarial_sched`` corpus at seed 301, and the limits it runs them
    under."""
    workloads = _load("workloads")
    cases = [workloads.build_case(301, j) for j in range(1200)]
    return [(case.image, case.input) for case in cases], workloads.ADV_LIMITS


@pytest.mark.parametrize("costs", COST_TABLES, ids=lambda c: f"d{c.default}h{c.heap}n{c.net}")
class TestReferenceVm:
    """`execute_steps`, which counts steps and derives cycles, against the
    per-instruction pricing model in ``reference_vm``: same yields (ints and
    NetIo), same hook calls in the same order, equal VMResult."""

    @staticmethod
    def check(image, input_data, limits, costs):
        got = trace(execute_steps, image, input_data, limits, costs)
        assert got == trace(reference_vm.execute_steps, image, input_data, limits, costs)
        return got[1]

    def test_corpus(self, costs):
        images = corp.corpus()
        for n in (1, 2, 10, 150):
            self.check(images["fib"], corp.fib_input(n), LIMITS, costs)
        for sent, received in ((0, 0), (1000, 500)):
            self.check(images["known_network"], corp.known_network_input(sent, received), LIMITS, costs)
        for k in (0, 8, 4096):
            self.check(images["alloc_churn"], corp.alloc_churn_input(k), LIMITS, costs)
        for name in ("empty", "echo_word", "fib", "known_network", "alloc_churn"):
            for data in (b"", corp.words(3)):
                self.check(images[name], data, LIMITS, costs)

    def test_fuzz_programs(self, costs):
        rng = DeterministicRng(20240, "lowerbound")
        limits = VMLimits(max_steps=4000)
        for i in range(2000):
            image, input_data = random_image(rng.child(f"prog{i}"))
            self.check(image, input_data, limits, costs)

    def test_every_opcode_runs_to_completion(self, costs):
        # every mnemonic occurs in a program here, and each program runs to
        # its HALT with the words it is expected to output
        seen = set()
        for source, words, expected in COMPLETING_PROGRAMS:
            image = vm_load(assemble(source))
            res = self.check(image, corp.words(*words), LIMITS, costs)
            assert res.ok and res.output == corp.words(*expected), source
            seen |= {OPCODES[op][0] for op, _ in image.program}
        assert seen == {name for name, _ in OPCODES.values()}

    def test_every_trap_reason(self, costs):
        for source in underflow_sources():
            res = self.check(vm_load(assemble(source)), corp.words(1), TRAP_LIMITS, costs)
            assert res.reason == "fault:stack-underflow"
        images = [vm_load(assemble(source)) for source in TRAP_SOURCES]
        images += [image for source in TRAP_SOURCES for image in mutants(source)]
        reasons = {self.check(image, corp.words(1), TRAP_LIMITS, costs).reason for image in images}
        assert reasons == TRAP_REASONS | {None}

    def test_mutated_corpus_programs(self, costs):
        for source in (corp.FIB_SOURCE, corp.KNOWN_NETWORK_SOURCE, corp.ALLOC_CHURN_SOURCE, LOOP_SOURCE):
            for image in mutants(source):
                for data in (corp.fib_input(6), corp.known_network_input(40, 9), b""):
                    self.check(image, data, TRAP_LIMITS, costs)

    def test_heap_programs(self, costs):
        rng = DeterministicRng(20261018, "heap")
        reasons = set()
        for i in range(3000):
            child = rng.child(f"prog{i}")
            image = vm_load(assemble(heap_source(child)))
            limits = HEAP_LIMITS
            if child.randrange(4) == 0:  # a step budget that may end anywhere
                limits = dataclasses.replace(HEAP_LIMITS, max_steps=1 + child.randrange(60))
            reasons.add(self.check(image, b"", limits, costs).reason)
        assert reasons == {None, "budget:steps", "budget:memory", "fault:bad-handle", "fault:out-of-bounds"}

    def test_partial_word_shrink_tag_and_regrow(self, costs):
        res = self.check(vm_load(assemble(PARTIAL_WORD_SOURCE)), b"", LIMITS, costs)
        assert res.ok and res.output.hex() == "ffffffff00000000"
        assert res.tag == hash_bytes(bytes(8) + b"\xff" * 4)

    def test_fused_runs(self, costs):
        # every pattern entered at each of its instructions (a loop of
        # LOOP_RUNS at its start, test and body head), a joined one and
        # fib's loop over 0-3 words and more, under every step budget up to
        # one past the whole run, so that a budget ends at each offset
        # inside each fused run; a trap fires under every budget that
        # reaches its instruction, and only there
        reasons = set()
        heads = set()
        for image in fused_programs():
            heads |= {op for op, _ in image.code}
            full = self.check(image, b"", FUSED_LIMITS, costs)
            reasons.add(full.reason)
            for max_steps in range(1, full.steps + 2):
                res = self.check(image, b"", VMLimits(max_steps=max_steps), costs)
                assert res.reason == (full.reason if max_steps >= full.steps else "budget:steps")
        assert reasons == {None, "budget:steps", "fault:bad-handle", "fault:out-of-bounds",
                           "fault:stack-underflow"}
        assert FUSED_OPS <= heads

    def test_load_trap_inside_a_fused_run(self, costs):
        # fib's loop on a 5-word block with i from 0 and values[i - 9]: the
        # loop runs its test and stops at the body, whose first LOAD traps
        # at step 18 with the ADD and STORE of its pass still ahead. With
        # values[i] = values[i - 1] + values[i] and i from 1, the loop runs
        # the passes at i = 1-4 whole, and the pass at i = 5 traps at its
        # second LOAD, step 115. The budget ends at every step up to the
        # trap, at the trap, and far past it
        prologue = "PUSH 40\nALLOC\nSTOREL 1\nPUSH 9\nSTOREL 0\nPUSH {i}\nSTOREL 2\n"
        for i, k, d, trap in ((0, 9, 2, 18), (1, 1, 0, 115)):
            image = vm_load(assemble(prologue.format(i=i) + recurrence(x=2, b=0, h=1, k=k, d=d)
                                     + "\nout: HALT"))
            assert image.code[7] == (0x7B, (23, 11, 2, 0, k, 1, d, 30))
            for max_steps in (*range(1, trap + 2), LIMITS.max_steps):
                res = self.check(image, b"", VMLimits(max_steps=max_steps), costs)
                assert (res.reason, res.steps) == (
                    ("fault:out-of-bounds", trap) if max_steps >= trap else ("budget:steps", max_steps))

    def test_adversarial_programs(self, costs):
        # perfbench's adversarial corpus: its arithmetic segments are
        # no-effect runs, and its loops pass a PUSH;POP each iteration
        programs, limits = adversarial_programs()
        for image, input_data in programs:
            self.check(image, input_data, limits, costs)

    @given(source=fused_sources(), max_steps=st.integers(1, 300))
    @settings(max_examples=150, deadline=None)
    def test_random_fused_programs(self, costs, source, max_steps):
        self.check(vm_load(assemble(source)), b"", VMLimits(max_steps=max_steps), costs)

    def test_step_budgets(self, costs):
        loop = vm_load(assemble(LOOP_SOURCE))
        fib = corp.corpus()["fib"]
        for max_steps in range(1, 80):
            res = self.check(loop, b"", VMLimits(max_steps=max_steps), costs)
            assert res.reason == "budget:steps" and res.steps == max_steps
            self.check(fib, corp.fib_input(3), VMLimits(max_steps=max_steps), costs)
        # every fused opcode in a line that runs to completion, so that some
        # budget ends on every step of each, inside every pass of each loop
        line = fused_program(FUSED_LINE, (2, 5, 4), 0)
        assert {op for op, _ in line.code if op >= 0x70} == FUSED_OPS
        full = self.check(line, b"", LIMITS, costs)
        assert full.ok
        for max_steps in range(1, full.steps + 1):
            res = self.check(line, b"", VMLimits(max_steps=max_steps), costs)
            assert res.steps == max_steps and res.reason == (None if max_steps == full.steps else "budget:steps")


class TestConfinement:
    def test_vm_module_reaches_nothing_but_hooks(self):
        # the sandbox must have no path to metering or kernel state other
        # than the on_mem callback handed to it; the network leaves it only
        # as the NetIo it yields
        import ast

        import meterfaas.vm as vm_module

        tree = ast.parse(open(vm_module.__file__).read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
        forbidden = {"meterfaas.metering", "meterfaas.kernel", "meterfaas.orchestrator",
                     "metering", "kernel", "orchestrator"}
        assert not (imported & forbidden), imported

    def test_vm_module_generates_no_code_and_imports_a_fixed_set(self):
        # fusion builds data, not code: no exec/eval/compile/__import__ name
        # anywhere in vm.py, and exactly these imports
        import ast

        import meterfaas.vm as vm_module

        tree = ast.parse(open(vm_module.__file__).read())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not names & {"exec", "eval", "compile", "__import__"}
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((alias.name, None) for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                imported.update((module, alias.name) for alias in node.names)
        assert imported == {("__future__", "annotations"), ("array", "array"), ("sys", None),
                            ("dataclasses", "dataclass"), ("dataclasses", "field"),
                            ("typing", "Callable"), ("typing", "Generator"), (".", "crypto")}

    def test_hooks_are_the_only_capability(self):
        import inspect

        from meterfaas.vm import execute_steps, vm_execute

        params = set(inspect.signature(vm_execute).parameters)
        assert params == {"image", "input_data", "limits", "costs", "default_tag"}
        params = set(inspect.signature(execute_steps).parameters)
        assert params == {"image", "input_data", "limits", "on_mem", "costs", "default_tag"}
