"""meterfaas benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload invoke_fib --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` times an untraced closed loop and prints the end-to-end metrics.
``--trace 1`` also replays the corpus once under the span recorder and prints
the per-layer metrics instead. Human-readable lines come first; the last line
of standard output is the JSON result. See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

MIN_OPS = 1000  # at least ten samples beyond the 99th percentile
MIN_SETUPS = 3
# Host times are scaled to the host speed at which a warm reference_loop()
# takes REF_US, its median time on the host the benchmark was written on.
REF_US = 75.0
BARE_VM_MIN_SECONDS = 0.5


def load_program(root: Path) -> None:
    """Import meterfaas from the checkout's own sources, or exit 2."""
    src = root / "src"
    if not (src / "meterfaas" / "__init__.py").is_file():
        print(f"error: no src/meterfaas under {root}; run from the root of a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import meterfaas

    if Path(meterfaas.__file__).resolve().parent != (src / "meterfaas").resolve():
        print(f"error: imported meterfaas from {meterfaas.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    from importlib.metadata import version

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cryptography": version("cryptography"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "model": "unvalidated: the repo holds no hardware reference, so no error figure is given",
        "tracing": "in-process spans from wrapped public functions; no host-wide tracing",
    }


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Pass:
    """Per-item results of passes over the corpus.

    ``first`` holds each item's first result, which the determinism digest
    covers; a repeat whose record differs marks the item nondeterministic.
    ``times`` holds every host time of each item, so that its typical time is
    the median over its repeats and one stalled repeat does not move it.
    """

    def __init__(self, size: int) -> None:
        self.first = [None] * size
        self.times: list[list[float]] = [[] for _ in range(size)]
        self.failures: dict[int, str] = {}
        self.latencies: list[float] = []
        self.first_seconds = 0.0

    def add(self, j: int, result) -> None:
        self.latencies.append(result.seconds)
        self.times[j].append(result.seconds)
        if self.first[j] is None:
            self.first[j] = result
            self.first_seconds += result.seconds
            if result.failure is not None:
                self.failures[j] = result.failure
        elif result.record != self.first[j].record and j not in self.failures:
            self.failures[j] = "nondeterministic"

    def digest(self) -> str:
        h = hashlib.sha256()
        for r in self.first:
            h.update(len(r.record).to_bytes(4, "big"))
            h.update(r.record)
        return h.hexdigest()

    def sim_counts(self) -> dict:
        total = Counter()
        for r in self.first:
            for key in ("vm_cycles", "vm_steps", "billed_cycles", "aex_scheduled", "aex_fired", "aex_skipped"):
                total[key] += getattr(r, key)
        total["failed"] = len(self.failures)
        return dict(sorted(total.items()))


def reference_loop() -> int:
    """Fixed pure-Python work that shares no code with meterfaas: dict and
    list updates, small tuples and strings, and a generator driven by send(),
    like the interpreter-bound code under test."""

    def counter():
        total = 0
        while True:
            total += yield total

    gen = counter()
    next(gen)
    table: dict[int, int] = {}
    items = []
    for i in range(150):
        table[i & 31] = table.get(i & 31, 0) + gen.send(i)
        items.append((i, str(i)))
    return len(items) + len(table)


def time_reference(ref_times: list[float]) -> None:
    """Time one warm run of the reference loop: the first run after an
    operation pays for the caches the operation evicted."""
    reference_loop()
    t0 = time.perf_counter()
    reference_loop()
    ref_times.append(time.perf_counter() - t0)


def timed_setup(wl, setup_times: list[float], ref_times: list[float]):
    gc.collect()
    t0 = time.perf_counter()
    state = wl.setup()
    setup_times.append(time.perf_counter() - t0)
    time_reference(ref_times)
    return state


def untraced_run(wl, seconds: float):
    """Closed loop: cycle through the corpus until the first pass is complete,
    at least MIN_OPS operations ran and ``seconds`` of wall time passed.

    Workloads with ``setup_per_pass`` set up afresh before every pass and
    settle after it, so the set-up samples spread over the whole run; the
    others set up MIN_SETUPS times first and must get the same corpus each
    time. The reference loop is timed after every operation and set-up.
    Returns the pass, the set-up times, the reference times, the last state
    and the settlement and set-up failure kinds.
    """
    size = wl.corpus_size
    result = Pass(size)
    setup_times: list[float] = []
    ref_times: list[float] = []
    problems: list[str] = []
    state = None
    if not wl.setup_per_pass:
        corpora = {wl.corpus_key(timed_setup(wl, setup_times, ref_times)) for _ in range(MIN_SETUPS - 1)}
        state = timed_setup(wl, setup_times, ref_times)
        if corpora != {wl.corpus_key(state)}:
            problems.append("nondeterministic")
    start = time.perf_counter()
    i = 0
    while (i < size or i < MIN_OPS or len(setup_times) < MIN_SETUPS
           or time.perf_counter() - start < seconds):
        j = i % size
        if j == 0 and wl.setup_per_pass:
            if state is not None:
                problems.append(wl.finish(state))
            state = timed_setup(wl, setup_times, ref_times)
        result.add(j, wl.op(state, j))
        time_reference(ref_times)
        i += 1
    problems.append(wl.finish(state))
    return result, setup_times, ref_times, state, [p for p in problems if p is not None]


# --- traced pass -------------------------------------------------------------

CRYPTO = ("sign", "verify", "derive_session_key", "aead_seal", "aead_open")
CODEC_CLASSES = (("meterfaas.worker", "RequestPlain"), ("meterfaas.worker", "ResponsePlain"),
                 ("meterfaas.worker", "Receipt"), ("meterfaas.metering", "SignedMeasurement"))


class Observations:
    """Simulated counts seen through the wrappers during the traced loop."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.cold = self.dispatches = 0
        self.kernel_runs = self.log_events = self.ticks = 0
        self.metered_steps = 0
        self.hash_calls = 0
        self.outcome = None  # last MeteredOutcome, for the in-op trace checks

    def on_dispatch(self, result) -> None:
        self.dispatches += 1
        self.cold += bool(result.cold)

    def on_kernel_run(self, trace) -> None:
        self.kernel_runs += 1
        self.log_events += len(trace.events)
        timer = trace.results.get("timer")
        if isinstance(timer, int):
            self.ticks += timer

    def on_run_metered(self, outcome) -> None:
        self.outcome = outcome
        self.metered_steps += outcome.vm_result.steps


def install(rec, obs: Observations) -> None:
    from meterfaas.kde import KeyDistributionEnclave
    from meterfaas.kernel import SimKernel
    from meterfaas.orchestrator import WorkerPool
    from meterfaas.worker import WorkerEnclave

    for name in CRYPTO:
        rec.wrap_function("meterfaas.crypto", name, f"crypto.{name}")
    rec.wrap_function("meterfaas.crypto", "hash_bytes", "crypto.hash_bytes", count_only=True)
    for name in ("client_prepare", "client_verify_response", "provider_verify_measurement", "compute_invoice"):
        rec.wrap_function("meterfaas.orchestrator", name, f"orchestrator.{name}")
    rec.wrap_function("meterfaas.attest", "verify_transitive", "attest.verify_transitive")
    rec.wrap_function("meterfaas.metering", "run_metered", "metering.run_metered", observe=obs.on_run_metered)
    rec.wrap_function("meterfaas.metering", "build_signed_measurement", "metering.build_signed_measurement")
    rec.wrap_method(WorkerPool, "dispatch", "orchestrator.dispatch", observe=obs.on_dispatch)
    for name in ("ecall_setup", "ecall_init", "ecall_run", "ecall_finish"):
        rec.wrap_method(WorkerEnclave, name, f"worker.{name}")
    rec.wrap_method(KeyDistributionEnclave, "distribute", "kde.distribute")
    rec.wrap_method(SimKernel, "run", "kernel.run", observe=obs.on_kernel_run)
    for module, cls_name in CODEC_CLASSES:
        cls = getattr(sys.modules[module], cls_name)
        for method in ("encode", "decode", "body"):
            if method in cls.__dict__:
                rec.wrap_method(cls, method, f"wire.{cls_name}.{method}")


def traced_pass(wl, state, rec) -> tuple[Pass, Observations, str | None, int]:
    """Replay the corpus once under the recorder. Invocation workloads build a
    fresh deployment under it first, so that set-up spans are captured."""
    obs = Observations()
    install(rec, obs)
    try:
        if wl.setup_per_pass:
            idx = rec.open("bench.setup")
            state = wl.setup()
            rec.close(idx)
        obs.reset()  # count the loop only
        hash_before = rec.counts["crypto.hash_bytes"]
        result = Pass(wl.corpus_size)
        for j in range(wl.corpus_size):
            obs.outcome = None
            result.add(j, wl.op(state, j, rec, obs))
        obs.hash_calls = rec.counts["crypto.hash_bytes"] - hash_before
        idx = rec.open("bench.finish")
        settlement = wl.finish(state)
        rec.close(idx)
    finally:
        rec.uninstall()
    reports = len(state.pool.collected) if wl.setup_per_pass else 0
    return result, obs, settlement, reports


def bare_vm_us_per_step(wl, state) -> float:
    """vm_execute on the same inputs, outside any simulation."""
    from meterfaas.vm import vm_execute

    steps = 0
    elapsed = 0.0
    while elapsed < BARE_VM_MIN_SECONDS:
        for image, data, limits, costs in wl.vm_jobs(state):
            t0 = time.perf_counter()
            ref = vm_execute(image, data, limits, costs=costs)
            elapsed += time.perf_counter() - t0
            steps += ref.steps
    return elapsed / steps * 1e6


def layer_metrics(rec, obs: Observations, traced: Pass, untraced: Pass, reports: int,
                  bare_us: float) -> dict:
    from spans import END, NAME, PARENT, ROOT, START

    spans = rec.spans
    selfs = rec.self_times()
    n_ops = len(traced.first)
    # (phase, name) -> [calls, total seconds, self seconds]
    stats: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
    codec = 0.0
    for k, s in enumerate(spans):
        phase = spans[s[ROOT]][NAME]
        entry = stats[(phase, s[NAME])]
        entry[0] += 1
        entry[1] += s[END] - s[START]
        entry[2] += selfs[k]
        if phase == "bench.op" and s[NAME].startswith("wire."):
            parent = s[PARENT]
            if not spans[parent][NAME].startswith("wire."):
                codec += s[END] - s[START]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def us(name: str, phase: str = "bench.op") -> float:
        calls, total, _ = stats.get((phase, name), (0, 0.0, 0.0))
        return ratio(total * 1e6, calls)

    def self_us(name: str) -> float:
        calls, _, self_total = stats.get(("bench.op", name), (0, 0.0, 0.0))
        return ratio(self_total * 1e6, calls)

    def calls(name: str) -> int:
        return stats.get(("bench.op", name), (0,))[0]

    counts = traced.sim_counts()
    kernel_s = stats.get(("bench.op", "kernel.run"), (0, 0.0))[1]
    kinds = Counter(untraced.failures.values())
    m: dict[str, float] = {}
    for c in CRYPTO:
        m[f"crypto.{c}.us"] = us(f"crypto.{c}")
        m[f"crypto.{c}.calls_per_invocation"] = ratio(calls(f"crypto.{c}"), n_ops)
    m["crypto.hash_bytes.calls_per_invocation"] = ratio(obs.hash_calls, n_ops)
    m["wire.codec.us_per_invocation"] = ratio(codec * 1e6, n_ops)
    for name in ("client_prepare", "client_verify_response", "provider_verify_measurement", "dispatch"):
        m[f"orchestrator.{name}.self_us"] = self_us(f"orchestrator.{name}")
    m["orchestrator.dispatch.cold_frac"] = ratio(obs.cold, obs.dispatches)
    m["orchestrator.compute_invoice.us_per_report"] = ratio(
        stats.get(("bench.finish", "orchestrator.compute_invoice"), (0, 0.0))[1] * 1e6, reports)
    m["worker.ecall_run.self_us"] = self_us("worker.ecall_run")
    m["worker.ecall_finish.self_us"] = self_us("worker.ecall_finish")
    for name in ("worker.ecall_setup", "worker.ecall_init", "kde.distribute", "attest.verify_transitive"):
        m[f"{name}.us"] = us(name, "bench.setup")
    m["metering.run_metered.self_us"] = self_us("metering.run_metered")
    m["metering.build_signed_measurement.self_us"] = self_us("metering.build_signed_measurement")
    m["metering.ticks_per_invocation"] = ratio(obs.ticks, n_ops)
    m["metering.billed_cycle_frac"] = ratio(counts["billed_cycles"], counts["vm_cycles"])
    m["kernel.run.us_per_vm_step"] = ratio(kernel_s * 1e6, obs.metered_steps)
    m["kernel.run.us_per_tick"] = ratio(kernel_s * 1e6, obs.ticks)
    m["kernel.log_events_per_run"] = ratio(obs.log_events, obs.kernel_runs)
    m["kernel.aex_fired_frac"] = ratio(counts["aex_fired"], counts["aex_scheduled"])
    m["kernel.aex_skipped_frac"] = ratio(counts["aex_skipped"], counts["aex_scheduled"])
    m["adversarial.truncated"] = kinds["truncated"]
    m["adversarial.deadlocked"] = kinds["deadlocked"]
    m["vm.steps_per_invocation"] = ratio(counts["vm_steps"], len(traced.first))
    m["vm.bare_us_per_step"] = bare_us
    # one traced pass against each item's median untraced time
    untraced_s = sum(statistics.median(times) for times in untraced.times)
    m["bench.tracing_overhead_frac"] = ratio(traced.first_seconds, untraced_s) - 1
    m["bench.failed_frac"] = ratio(len(untraced.failures), len(untraced.first))
    return m


# --- main --------------------------------------------------------------------

# failure kinds that mean a wrong result, as opposed to an operation that did
# not complete (cycle limit, kernel deadlock, exception); every set-up,
# settlement or trace problem is one of these too
WRONG = {"wrong-output", "lower-bound", "vm-mismatch", "measurement-mismatch", "missing-receipt",
         "nondeterministic", "invoice-count", "trace-divergence"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    load_program(root)
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    from spans import SpanRecorder
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)

    untraced, setup_times, ref_times, state, problems = untraced_run(wl, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # every host time is scaled by REF_US over the reference loop's median
    # time in this run, which follows the host's slow and fast phases
    scale = REF_US * 1e-6 / statistics.median(ref_times)
    typical = [statistics.median(times) * scale for times in untraced.times]
    busy = sum(typical)
    lat_ms = [t * scale * 1e3 for t in untraced.latencies]
    e2e = {
        "setup_s": statistics.median(setup_times) * scale,
        "invocations_per_s": len(typical) / busy,
        "latency_p50_ms": statistics.median(lat_ms),
        "sim_cycles_per_s": sum(r.vm_cycles for r in untraced.first) / busy,
        "peak_rss_mb": peak_rss_mb,
    }
    # the 99th percentile is a per-layer figure, see perfbench/NOTES.md
    p99_ms = percentile(lat_ms, 99)
    lat = untraced.latencies
    failures = dict(untraced.failures)  # corpus item -> failure kind
    run_problems = list(problems)  # set-up and settlement, not tied to one item
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "sim_digest": untraced.digest(),
        "sim_counts": untraced.sim_counts(),
        "operations_timed": len(lat),
        "unscaled": {
            "reference_us": {"fastest": min(ref_times) * 1e6, "median": statistics.median(ref_times) * 1e6},
            "setup_s": statistics.median(setup_times),
            "item_median_sum_ms": busy / scale * 1e3,
            "all_operations_ms": {"p50": statistics.median(lat) * 1e3, "p99": percentile(lat, 99) * 1e3,
                                  "mean": statistics.fmean(lat) * 1e3},
        },
        "corpus_size": wl.corpus_size,
        "setups": len(setup_times),
        "failed_frac": len(untraced.failures) / wl.corpus_size,
        "failed_items": sorted(untraced.failures)[:20],
        "environment": environment(),
    }

    if args.trace:
        rec = SpanRecorder()
        traced, obs, traced_settlement, reports = traced_pass(wl, state, rec)
        metrics = layer_metrics(rec, obs, traced, untraced, reports, bare_vm_us_per_step(wl, state))
        metrics["bench.latency_p99_ms"] = p99_ms
        detail["traced_sim_digest"] = traced.digest()
        if traced.digest() != untraced.digest() or traced.sim_counts() != untraced.sim_counts():
            run_problems.append("trace-divergence")
        for j, kind in traced.failures.items():
            if untraced.failures.get(j) == kind:
                continue
            if kind in WRONG and j not in failures:
                failures[j] = kind  # a check that only the traced pass can make
            else:
                run_problems.append("trace-divergence")
        if traced_settlement is not None:
            run_problems.append(traced_settlement)
        span_file = root / "perfbench" / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        rec.write(span_file)
        detail["spans_file"] = str(span_file.relative_to(root))
        detail["spans"] = len(rec.spans)
        units = layer_units
    else:
        metrics = e2e
        units = e2e_units
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2

    detail["failure_kinds"] = dict(sorted(Counter(failures.values()).items()))
    detail["run_problems"] = run_problems
    wrong = sorted({kind for kind in failures.values() if kind in WRONG} | set(run_problems))
    detail["wrong_kinds"] = wrong
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(lat)} operations timed over a corpus of {wl.corpus_size}")
    for name, value in e2e.items():
        print(f"  {name:<44} {value:>14.6g} {e2e_units[name]}")
    print(f"  {'latency_p99_ms (per-layer bench.latency_p99_ms)':<44} {p99_ms:>14.6g} ms")
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:<44} {value:>14.6g} {units[name]}")
    print(f"  sim_digest {detail['sim_digest']}")
    print(f"  failed {len(failures)} of {wl.corpus_size}: {detail['failure_kinds']}"
          + (f"; run problems {run_problems}" if run_problems else ""))
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not wrong,
        "attempted": wl.corpus_size,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
