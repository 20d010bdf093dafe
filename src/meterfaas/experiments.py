"""Accuracy experiments over the built-in corpus, with CSV as the normative
output: compute-time linearity, memory-integral curvature, exact network
counts, and the tick-length under-reporting trade-off. Every row carries the
simulation's own ground truth next to the metered value.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .corpus import corpus, fib_input, known_network_input
from .crypto import DeterministicRng
from .metering import MeterConfig, run_metered
from .vm import VMLimits

DEFAULT_NS = tuple(range(500, 5001, 500))
SMALL_TAU, SMALL_EPSILON = 630, 63  # fib_timing's under-reporting configuration
SWEEP_TAUS = (1, 5, 10, 30, 63, 100, 315, 630, 1260, 6300)
SWEEP_N = 800  # tau_sweep's fib input
LIMITS = VMLimits(max_steps=5_000_000, max_memory=1 << 28)


@dataclass
class ExperimentResult:
    name: str
    header: list[str]
    rows: list[list]

    def to_csv(self) -> str:
        lines = [",".join(self.header)]
        for row in self.rows:
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv())

    def column(self, name: str) -> list:
        idx = self.header.index(name)
        return [row[idx] for row in self.rows]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _metered(image, input_data: bytes, cfg: MeterConfig, what: str):
    """The outcome of a run that did not trap; a trapped run is a ValueError
    naming the run and the trap, so no row ever comes from one."""
    out = run_metered(image, input_data, LIMITS, cfg)
    if not out.vm_result.ok:
        raise ValueError(f"{what}: the run trapped ({out.vm_result.reason})")
    return out


def fib_timing(ns=DEFAULT_NS, tau: int = 100) -> ExperimentResult:
    """Measured compute time versus input size, plus a deliberately
    small-tick, nonzero-overhead configuration that under-reports. Tick
    counts are written as floats (``%.6f``) in the CSV."""
    fib = corpus()["fib"]
    rows = []
    for n in ns:
        out = _metered(fib, fib_input(n), MeterConfig(tau=tau, epsilon=0), f"fib n={n}")
        small = _metered(fib, fib_input(n), MeterConfig(tau=SMALL_TAU, epsilon=SMALL_EPSILON),
                         f"fib n={n}")
        t_max, small_t = float(out.t_max), float(small.t_max)
        oracle = out.trace.resident["worker"]
        rows.append(
            [n, t_max, t_max * tau, oracle, small_t, small_t * SMALL_TAU]
        )
    return ExperimentResult(
        name="fib_timing",
        header=["n", "t_max", "measured_cycles", "oracle_cycles",
                "t_max_small_tau", "small_tau_cycles"],
        rows=rows,
    )


def fib_memory(ns=DEFAULT_NS, tau: int = 100) -> ExperimentResult:
    """Memory time-integral versus input size; quadratic since both live
    memory and runtime grow linearly. m_int/t_max is the time-averaged
    allocation and must come out linear. m_int and m_avg are written as
    floats (``%.6f``) in the CSV."""
    fib = corpus()["fib"]
    rows = []
    for n in ns:
        out = _metered(fib, fib_input(n), MeterConfig(tau=tau, epsilon=0), f"fib n={n}")
        rows.append([n, float(out.m_int), out.m_max, float(out.m_avg)])
    return ExperimentResult(
        name="fib_memory",
        header=["n", "m_int", "m_max", "m_avg"],
        rows=rows,
    )


def network(cases: int = 100, seed: int = 0) -> ExperimentResult:
    """Metered network bytes versus the requested send/receive sizes."""
    image = corpus()["known_network"]
    rng = DeterministicRng(seed, "net-exp")
    rows = []
    for _ in range(cases):
        sent = rng.randrange(1 << 20)
        received = rng.randrange(1 << 20)
        out = _metered(image, known_network_input(sent, received), MeterConfig(tau=100, epsilon=0),
                       f"known_network sent={sent} received={received}")
        rows.append([sent, received, out.net, sent + received])
    return ExperimentResult(
        name="network",
        header=["sent", "received", "net_metered", "net_expected"],
        rows=rows,
    )


def tau_sweep(epsilon: int = 30) -> ExperimentResult:
    """Under-report ratio of the fixed workload as tau shrinks against a fixed
    per-tick bookkeeping overhead."""
    fib = corpus()["fib"]
    rows = []
    for tau in SWEEP_TAUS:
        out = _metered(fib, fib_input(SWEEP_N), MeterConfig(tau=tau, epsilon=epsilon),
                       f"fib n={SWEEP_N} tau={tau}")
        oracle = out.trace.resident["worker"]
        measured = out.t_max * tau
        rows.append([tau, epsilon, out.t_max, measured, oracle, measured / oracle])
    return ExperimentResult(
        name="tau_sweep",
        header=["tau", "epsilon", "t_max", "measured_cycles", "oracle_cycles", "ratio"],
        rows=rows,
    )


EXPERIMENTS = {
    "fib_timing": fib_timing,
    "fib_memory": fib_memory,
    "network": network,
    "tau_sweep": tau_sweep,
}
