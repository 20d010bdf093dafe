"""Reference model of the timing thread, one primitive kernel instruction at a
time: each tick is "read proc, begin tx, read marker, tick, increment, commit,
mirror, checks". ``meterfaas.metering.timer_program`` runs the same loop as
one ``Ticks`` instruction that the kernel advances in closed form. Its
transactions and reads are primitives of ``reference_kernel``, so it runs
only there: tests swap both in (``monkeypatch.setattr(metering,
"SimKernel", ...)`` and ``"timer_program"``) and require byte-identical
traces and outcomes, the role ``vm_execute`` plays for the VM's block
execution."""

from reference_kernel import ReadCell, TxAbort, TxAborted, TxBegin, TxEnd

from meterfaas.kernel import MARKER_VALUE, EresumeHandler, Op, TestAndSet, WaitUntil, WriteCell
from meterfaas.metering import MeterConfig, TimerState


def timer_program(cfg: MeterConfig, ts: TimerState, worker_ssa):
    """The timing thread. One timer counts at a time (enclave-wide mutex);
    ticks run inside transactions watching the worker's SSA marker."""
    handler = EresumeHandler(WriteCell(worker_ssa.marker, MARKER_VALUE, cost=cfg.handler_cost))

    prior = yield TestAndSet(ts.mutex, cost=1)
    while prior != 0:
        yield WaitUntil(lambda: ts.mutex.value == 0)
        prior = yield TestAndSet(ts.mutex, cost=1)
    yield WriteCell(ts.ready, 1)
    yield WaitUntil(lambda: ts.started.value == 1)

    while True:
        proc = yield ReadCell(ts.proc)
        if proc != 1:
            done = yield ReadCell(ts.run_done)
            if done:
                break
            # OCALL pause: wait for the worker to come back, or for the end
            yield WaitUntil(lambda: ts.proc.value == 1 or ts.run_done.value == 1)
            continue

        cause: str | None = None
        try:
            yield TxBegin((worker_ssa.marker,))
            marker = yield ReadCell(worker_ssa.marker)
            if marker != MARKER_VALUE:
                yield TxAbort("marker-missing")
            yield Op(cfg.tau, label="tick")
            count = yield ReadCell(ts.internal)
            yield WriteCell(ts.internal, count + 1)
            yield TxEnd()
        except TxAborted as abort:
            cause = abort.cause

        if cause is None:
            # mirror the private counter outside the write set, then pay for
            # the inter-transaction checks
            count = yield ReadCell(ts.internal)
            yield WriteCell(ts.t, count)
            if cfg.epsilon:
                yield Op(cfg.epsilon, label="checks")
            continue
        if cause in ("interrupt", "conflict"):
            # own interrupt, or the marker cell changed under us: just retry;
            # the marker check in the next transaction sorts out which it was
            continue

        # marker is gone: the worker was interrupted. Install the ERESUME
        # handler (re-installing if a later spill clobbered it) and wait for
        # the marker to come back.
        while True:
            marker = yield ReadCell(worker_ssa.marker)
            if marker == MARKER_VALUE:
                break
            proc = yield ReadCell(ts.proc)
            done = yield ReadCell(ts.run_done)
            if proc != 1 or done:
                break
            rip = yield ReadCell(worker_ssa.rip)
            if not isinstance(rip, EresumeHandler):
                yield WriteCell(ts.original_rip, rip, cost=1)
                yield WriteCell(worker_ssa.rip, handler, cost=1)
            yield WaitUntil(
                lambda: worker_ssa.marker.value == MARKER_VALUE
                or ts.proc.value != 1
                or ts.run_done.value == 1
                or not isinstance(worker_ssa.rip.value, EresumeHandler)
            )

    yield WriteCell(ts.mutex, 0)
    final = yield ReadCell(ts.internal)
    return final
