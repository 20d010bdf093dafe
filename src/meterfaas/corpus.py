"""Built-in benchmark functions used by the experiments and acceptance tests.

``fib`` mirrors the classic accuracy workload: it fills a pre-allocated array
of n+1 slots with the Fibonacci sequence, so both its instruction count and its
live memory are linear in n (making the memory time-integral quadratic).
``known_network`` sends and receives caller-chosen byte counts. ``empty`` halts
immediately. ``alloc_churn`` allocates and frees k bytes between ticks, which
separates the peak from the integral. ``echo_word`` reflects one input word,
useful for plaintext-confinement scans.
"""

from __future__ import annotations

from .vm import FunctionImage, assemble, vm_load

FIB_SOURCE = """
; word0 of the input is n (n >= 1)
        PUSH 0
        INPUT_WORD
        STOREL 0            ; L0 = n
        LOADL 0
        PUSH 1
        ADD
        PUSH 8
        MUL
        ALLOC               ; one block of (n+1) 8-byte slots
        STOREL 1            ; L1 = values
        LOADL 1
        PUSH 0
        PUSH 0
        STORE               ; values[0] = 0
        LOADL 1
        PUSH 1
        PUSH 1
        STORE               ; values[1] = 1
        PUSH 2
        STOREL 2            ; L2 = i
loop:   LOADL 2
        LOADL 0
        GT
        JNZ end             ; while i <= n
        LOADL 1
        LOADL 2
        LOADL 1
        LOADL 2
        PUSH 1
        SUB
        LOAD                ; values[i-1]
        LOADL 1
        LOADL 2
        PUSH 2
        SUB
        LOAD                ; values[i-2]
        ADD
        STORE               ; values[i] = sum
        LOADL 2
        PUSH 1
        ADD
        STOREL 2
        JMP loop
end:    LOADL 1
        LOADL 0
        LOAD
        OUTPUT_WORD         ; emit values[n]
        HALT
"""

KNOWN_NETWORK_SOURCE = """
        PUSH 0
        INPUT_WORD
        NET_SEND            ; send word0 bytes
        PUSH 1
        INPUT_WORD
        NET_RECV            ; receive word1 bytes
        HALT
"""

EMPTY_SOURCE = """
        HALT
"""

ALLOC_CHURN_SOURCE = """
        PUSH 0
        INPUT_WORD
        ALLOC               ; k bytes live only briefly
        FREE
        HALT
"""

ECHO_WORD_SOURCE = """
        PUSH 0
        INPUT_WORD
        OUTPUT_WORD
        HALT
"""

SOURCES = {  # name -> assembler source of each built-in function
    "fib": FIB_SOURCE,
    "known_network": KNOWN_NETWORK_SOURCE,
    "empty": EMPTY_SOURCE,
    "alloc_churn": ALLOC_CHURN_SOURCE,
    "echo_word": ECHO_WORD_SOURCE,
}


def corpus() -> dict[str, FunctionImage]:
    """The built-in images, freshly loaded (hashes recomputed at load time)."""
    return {name: vm_load(assemble(src)) for name, src in SOURCES.items()}


def words(*values: int) -> bytes:
    """Pack little-endian 64-bit input words."""
    return b"".join(v.to_bytes(8, "little") for v in values)


def fib_input(n: int) -> bytes:
    return words(n)


def known_network_input(sent: int, received: int) -> bytes:
    return words(sent, received)


def alloc_churn_input(k: int) -> bytes:
    return words(k)
