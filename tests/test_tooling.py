"""The benchmark's traced pass (perfbench/run.py) wraps public names of the
package by name, and its workloads (perfbench/workloads.py) classify the
package's errors. A renamed or removed name or a changed error must fail
here, not only when the benchmark runs."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

from meterfaas import corpus as corp
from meterfaas.attest import AttestationRoot, derive_identity
from meterfaas.crypto import hash_bytes
from meterfaas.kde import KeyDistributionEnclave
from meterfaas.metering import MeterConfig
from meterfaas.orchestrator import ClientContext, WorkerPool, client_prepare
from meterfaas.vm import assemble

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every module-level and class-level binding of the package."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "meterfaas" and not modname.startswith("meterfaas."):
            continue
        for key, value in vars(mod).items():
            out[(modname, key)] = value
            if isinstance(value, type) and value.__module__ == modname:
                for attr, member in vars(value).items():
                    out[(modname, key, attr)] = member
    return out


def test_traced_pass_wraps_and_restores_every_name():
    run, spans = _load("run"), _load("spans")
    before = _bindings()
    rec = spans.SpanRecorder()
    obs = run.Observations()
    run.install(rec, obs)
    try:
        root = AttestationRoot(seed=b"tooling")
        kde_id, worker_id = derive_identity(b"k", b"p"), derive_identity(b"w", b"p")
        kde = KeyDistributionEnclave(root, kde_id, seed=1, worker_identity=worker_id.mrenclave)
        pool = WorkerPool(kde, worker_id, size=1, meter_cfg=MeterConfig(tau=100))
        ctx = ClientContext.create(root.public_key, kde.published, kde_id.mrenclave,
                                   worker_id.mrenclave)
        echo = assemble(corp.ECHO_WORD_SOURCE)
        request, _ = client_prepare(ctx, hash_bytes(echo), corp.words(7), want_measurement=True)
        pool.dispatch(request, echo)
    finally:
        rec.uninstall()
    recorded = {span[spans.NAME] for span in rec.spans}
    for name in ("orchestrator.dispatch", "worker.ecall_setup", "worker.ecall_init",
                 "worker.ecall_run", "worker.ecall_finish", "metering.run_metered",
                 "metering.build_signed_measurement", "kernel.run", "wire.RequestPlain.decode",
                 "wire.SignedMeasurement.encode"):
        assert name in recorded, name
    # the kernel's per-layer metrics read SimKernel.run's trace
    assert obs.kernel_runs >= 1 and obs.ticks >= 1
    assert _bindings() == before


def test_traced_pass_wraps_every_codec_method():
    """A codec method that is not in its class's own namespace is silently
    skipped by the traced pass, which would zero its codec metric."""
    run, spans = _load("run"), _load("spans")
    rec = spans.SpanRecorder()
    run.install(rec, run.Observations())
    try:
        for module, cls_name in run.CODEC_CLASSES:
            cls = getattr(sys.modules[module], cls_name)
            names = ("encode", "decode") + (("body",) if hasattr(cls, "signed_payload") else ())
            for name in names:
                raw = vars(cls).get(name)
                assert raw is not None, f"{cls_name}.{name} not defined on the class itself"
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                assert hasattr(fn, "__wrapped__"), f"{cls_name}.{name} not wrapped"
            assert isinstance(vars(cls)["decode"], classmethod), cls_name
    finally:
        rec.uninstall()


def test_adversarial_op_classifies_a_truncated_run():
    """adversarial.truncated counts the cases whose run hits its cycle limit."""
    workloads = _load("workloads")
    case = dataclasses.replace(workloads.build_case(301, 0), limit=1)
    assert workloads.Adversarial(301).op([case], 0).failure == "truncated"
