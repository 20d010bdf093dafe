"""Command-line entry point.

Deployment state lives in a directory: a key=value ``deployment.cfg`` plus one
canonical ``published-<epoch>.bin`` per key-set epoch. The key distribution
enclave is reconstructed deterministically from the recorded seed and epoch,
so every command is reproducible byte for byte given (state, flags, seed).

Exit codes: 0 accepted/succeeded, 1 verification or property failure,
2 usage, parse or I/O error, or a run truncated at its cycle limit.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import corpus as corp
from . import crypto
from .attest import AttestationError, AttestationRoot, derive_identity, verify_transitive
from .experiments import EXPERIMENTS, LIMITS
from .fuzz import random_schedule, run_lowerbound_fuzz
from .kde import KeyDistributionEnclave, PublishedKeys
from .metering import SignedMeasurement, TruncatedRun, run_metered
from .orchestrator import (
    BillingPolicy,
    ClientContext,
    FunctionFailed,
    MeasurementLog,
    WorkerPool,
    client_prepare,
    client_verify_response,
    compute_invoice,
)
from .scenario import ConfigError, ScenarioConfig, format_schedule, load_keyvalue, load_schedule
from .vm import AsmError, LoadError, assemble, vm_load
from .worker import Receipt, verify_receipt
from .wire import FormatError

KDE_CODE = b"meterfaas-kde-v1"
WORKER_CODE = b"meterfaas-worker-v1"
SIGNER = b"provider"
STATE_CFG = "deployment.cfg"
_HEX_DIGITS = set("0123456789abcdefABCDEF")


class CliError(Exception):
    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


# --- deployment state ---------------------------------------------------------


def kde_identity():
    return derive_identity(KDE_CODE, SIGNER)


def default_worker_identity(parametrization: bytes | None = None):
    return derive_identity(WORKER_CODE, SIGNER, parametrization=parametrization)


def _build_kde(seed: int, worker_identity: bytes) -> KeyDistributionEnclave:
    """The attestation root and the KDE at epoch 0, both derived from the seed."""
    root = AttestationRoot(seed=crypto.DeterministicRng(seed, "root-seed").bytes(16))
    return KeyDistributionEnclave(root, kde_identity(), seed=seed, worker_identity=worker_identity)


def _write_published(state: Path, cfg: dict[str, str], kde: KeyDistributionEnclave) -> None:
    """Publish the KDE's key set under its epoch and as the current one, then
    write ``cfg`` at that epoch: the only writer of ``deployment.cfg``."""
    epoch = kde.keyset.created_at
    data = kde.published.encode()
    (state / f"published-{epoch}.bin").write_bytes(data)
    (state / "published.bin").write_bytes(data)
    cfg["epoch"] = str(epoch)
    (state / STATE_CFG).write_text("".join(f"{k}={v}\n" for k, v in cfg.items()))


def load_state(state: Path) -> tuple[dict[str, str], KeyDistributionEnclave, bytes | None]:
    """The deployment's settings, as written, its KDE at the recorded epoch
    and its parametrization digest (None without one): the only reader of
    ``deployment.cfg``. A missing or malformed value, or an epoch the state
    never published, exits 2 naming its key."""
    path = state / STATE_CFG
    if not path.exists():
        raise CliError(f"no deployment at {state} (run 'kde keygen' first)", 2)
    cfg = load_keyvalue(path)
    typed = {"epoch": 0}
    for key, convert in (("seed", _integer), ("epoch", lambda text: _integer(text, minimum=0)),
                         ("worker_identity", _digest), ("parametrization", _digest)):
        if key in cfg:
            typed[key] = _convert(convert, cfg[key], f"{path}: {key}")
        elif key in ("seed", "worker_identity"):
            raise CliError(f"{path} has no {key!r} (run 'kde keygen' again)", 2)
    # the replay costs one rotation per epoch, so it runs only to an epoch the state published
    epoch = typed["epoch"]
    if not (state / f"published-{epoch}.bin").exists():
        raise CliError(f"{path}: epoch: no key set was published at epoch {epoch}", 2)
    kde = _build_kde(typed["seed"], typed["worker_identity"])
    for _ in range(epoch):
        kde.rotate()
    return cfg, kde, typed.get("parametrization")


def _published_keysets(state: Path) -> dict[bytes, PublishedKeys]:
    """Every key set the deployment has published, by key-set id."""
    published = (PublishedKeys.decode(path.read_bytes()) for path in state.glob("published-*.bin"))
    keysets = {pub.keyset_id: pub for pub in published}
    if not keysets:
        raise CliError("no published key sets in state", 2)
    return keysets


def _retired_note(keysets: dict[bytes, PublishedKeys], pub: PublishedKeys) -> str:
    """What a verdict adds when ``pub`` is not the newest key set."""
    if pub.created_at == max(other.created_at for other in keysets.values()):
        return ""
    return f" (signed by retired key set, epoch {pub.created_at})"


# --- subcommand implementations -------------------------------------------------


def cmd_kde_keygen(args) -> int:
    state = Path(args.state)
    worker_identity = args.worker_identity or default_worker_identity(args.parametrization).mrenclave
    kde = _build_kde(args.seed, worker_identity)  # a bad seed fails before anything is written
    cfg = {"seed": str(args.seed), "worker_identity": worker_identity.hex(), "epoch": "0"}
    if args.parametrization is not None:
        cfg["parametrization"] = args.parametrization.hex()
    state.mkdir(parents=True, exist_ok=True)
    (state / "root.pub").write_text(kde.root.public_key.hex() + "\n")
    _write_published(state, cfg, kde)
    print(f"keyset {kde.keyset.keyset_id.hex()} epoch 0")
    print(f"worker identity {worker_identity.hex()}")
    print(f"published keys written to {state / 'published.bin'}")
    return 0


def cmd_kde_publish(args) -> int:
    pub = load_state(Path(args.state))[1].published
    if args.out:  # written first, so a failed write prints nothing
        Path(args.out).write_bytes(pub.encode())
    print(f"epoch {pub.created_at}")
    print(f"keyset_id {pub.keyset_id.hex()}")
    print(f"k_ka+ {pub.k_ka_pub.hex()}")
    print(f"k_out+ {pub.k_out_pub.hex()}")
    print(f"k_res+ {pub.k_res_pub.hex()}")
    return 0


def cmd_kde_rotate(args) -> int:
    state = Path(args.state)
    cfg, kde, _ = load_state(state)
    kde.rotate()
    _write_published(state, cfg, kde)
    print(f"rotated to epoch {kde.keyset.created_at}, keyset {kde.keyset.keyset_id.hex()}")
    return 0


def cmd_verify_quote(args) -> int:
    published = PublishedKeys.decode(Path(args.keys).read_bytes())
    if args.root_pub:
        root_public = args.root_pub
    elif args.state:
        path = Path(args.state) / "root.pub"
        root_public = _convert(_digest, path.read_text().strip(), path)
    else:
        raise CliError("need --state or --root-pub", 2)
    expected_kde = args.expected_kde or kde_identity().mrenclave
    if args.expected_worker:
        expected_worker = args.expected_worker
    elif args.state:
        expected_worker = load_state(Path(args.state))[1].worker_identity
    else:
        expected_worker = default_worker_identity().mrenclave
    try:
        verify_transitive(
            root_public, published.quote, expected_kde,
            published.k_ka_pub, published.k_out_pub, published.k_res_pub, expected_worker,
        )
    except AttestationError as exc:
        print(f"REJECT: {exc}")
        return 1
    print(f"ACCEPT: keyset {published.keyset_id.hex()} epoch {published.created_at}")
    return 0


def _load_report(path: str) -> SignedMeasurement:
    return SignedMeasurement.decode(Path(path).read_bytes())


def _print_report(report: SignedMeasurement) -> None:
    print(f"t_max {report.t_max}")
    print(f"tau {report.tau}")
    print(f"m_int {report.m_int}")
    print(f"m_max {report.m_max}")
    print(f"m_avg {report.m_avg}")
    print(f"net {report.net}")
    print(f"tag {report.tag.hex()}")
    print(f"keyset_id {report.keyset_id.hex()}")


def _k_res_public(spec: str) -> bytes:
    """A k_res public key given as 64 hex characters, a file holding the raw
    32-byte key, or a published-keys file."""
    if len(spec) == 2 * crypto.KEY_SIZE and set(spec) <= _HEX_DIGITS:
        return bytes.fromhex(spec)
    data = Path(spec).read_bytes()
    return data if len(data) == crypto.KEY_SIZE else PublishedKeys.decode(data).k_res_pub


def cmd_verify_measurement(args) -> int:
    report = _load_report(args.report)
    if args.kres:
        if not report.verify(_k_res_public(args.kres)):
            print("REJECT: signature does not verify under k_res+")
            return 1
        _print_report(report)
        print("ACCEPT")
        return 0
    if not args.state:
        raise CliError("need --state or --kres", 2)
    keysets = _published_keysets(Path(args.state))
    pub = keysets.get(report.keyset_id)
    if pub is not None and report.verify(pub.k_res_pub):
        _print_report(report)
        print(f"ACCEPT{_retired_note(keysets, pub)}")
        return 0
    print("REJECT: no known key set verifies this report")
    return 1


def cmd_verify_receipt(args) -> int:
    receipt = Receipt.decode(Path(args.receipt).read_bytes())
    note = ""
    if args.kout:
        k_out = args.kout
    elif args.state:
        keysets = _published_keysets(Path(args.state))
        pub = keysets.get(receipt.keyset_id)
        if pub is None:
            print("REJECT: no known key set issued this receipt")
            return 1
        k_out, note = pub.k_out_pub, _retired_note(keysets, pub)
    else:
        raise CliError("need --state or --kout", 2)
    input_data = Path(args.input).read_bytes()
    function_hash = crypto.hash_bytes(_function_bytes(args.function))
    output = Path(args.output).read_bytes()
    measurement = _load_report(args.measurement) if args.measurement else None
    ok, reason = verify_receipt(receipt, k_out, input_data, function_hash, output, measurement)
    if ok:
        print(f"ACCEPT: receipt binds (input, function, output){note}")
        return 0
    print(f"REJECT: {reason}")
    return 1


def cmd_vm_asm(args) -> int:
    out = Path(args.out) if args.out else Path(args.source).with_suffix(".mfvm")
    if out.resolve() == Path(args.source).resolve():
        raise CliError(f"{out} is the source file; name another output with -o", 2)
    data = assemble(Path(args.source).read_text())
    image = vm_load(data)
    out.write_bytes(data)
    print(f"{out}: {len(image.program)} instructions, hash {image.function_hash.hex()}")
    return 0


def _function_bytes(spec: str) -> bytes:
    source = corp.SOURCES.get(spec)
    return assemble(source) if source is not None else Path(spec).read_bytes()


def _resolve_scenario(args):
    """Merge a scenario file (when given) under explicit flags, then load the
    function, the input and the schedule that the merged scenario names.

    Returns (scenario, image, input_data, schedule); a fuzzed schedule's
    interrupts start inside an uninterrupted metered run of the image on the
    input under the scenario's meter config and instruction costs.
    """
    mapping = load_keyvalue(args.scenario) if args.scenario else {}
    flags = {"tau": args.tau, "epsilon": args.epsilon, "net_delay": args.net_delay}
    # a flag replaces the file's value before either is checked
    mapping.update((key, str(value)) for key, value in flags.items() if value is not None)
    scenario = ScenarioConfig.from_mapping(mapping)
    function = args.function or scenario.function
    if not function:
        raise CliError("need --function (flag or scenario file)", 2)
    function_bytes = _function_bytes(function)
    input_data = Path(args.input).read_bytes() if args.input else b""
    image = vm_load(function_bytes)
    schedule_spec = args.schedule or scenario.schedule_file
    if schedule_spec:
        schedule = load_schedule(schedule_spec)
    elif scenario.fuzz_seed is not None:
        dry = run_metered(image, input_data, LIMITS, scenario.meter, costs=scenario.costs)
        span = dry.trace.final_cycle
        schedule = random_schedule(crypto.DeterministicRng(scenario.fuzz_seed, "scenario"), span)
    else:
        schedule = []
    return scenario, image, input_data, schedule


def cmd_run(args) -> int:
    state = Path(args.state)
    _, kde, parametrization = load_state(state)
    scenario, image, input_data, schedule = _resolve_scenario(args)
    worker_identity = default_worker_identity(parametrization)
    if worker_identity.mrenclave != kde.worker_identity:
        raise CliError("state worker identity is custom; 'run' supports the default worker", 2)
    # checked before the dispatch, which logs the measurement it bills
    out_dir = Path(args.out_dir) if args.out_dir else state
    if not out_dir.is_dir():
        raise CliError(f"output directory {out_dir} does not exist", 2)

    pool = WorkerPool(
        kde, worker_identity, size=1, meter_cfg=scenario.meter, costs=scenario.costs,
        limits=LIMITS, seed=args.seed,
        measurement_log=MeasurementLog(state / "measurements.log"),
    )
    ctx = ClientContext.create(
        kde.root.public_key, kde.published, kde_identity().mrenclave,
        worker_identity.mrenclave, seed=args.seed,
    )
    token = args.token.encode() if args.token else None
    request, pending = client_prepare(
        ctx, image.function_hash, input_data,
        receipt=args.receipt, want_measurement=args.want_measurement, token=token,
    )
    result = pool.dispatch(request, image.raw, schedule=schedule)
    try:
        verified = client_verify_response(pending, result.response)
    except FunctionFailed as exc:
        print(f"FUNCTION FAILED: {exc.reason}")
        return 1
    (out_dir / "output.bin").write_bytes(verified.output)
    print(f"output {len(verified.output)} bytes -> {out_dir / 'output.bin'}")
    report = result.measurement
    print(f"t_max {report.t_max} ticks (tau {report.tau}), m_int {report.m_int}, "
          f"m_max {report.m_max}, net {report.net}")
    (out_dir / "measurement.bin").write_bytes(report.encode())
    if verified.receipt is not None:
        (out_dir / "receipt.bin").write_bytes(verified.receipt.encode())
        print(f"receipt -> {out_dir / 'receipt.bin'}")
    return 0


def _iter_reports(path: Path):
    """Reports from a hex measurement log, a binary report file, or a
    directory of either."""
    files = sorted(p for p in path.iterdir() if p.is_file()) if path.is_dir() else [path]
    for p in files:
        data = p.read_bytes()
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError:
            text = None
        if text is not None and all(set(line.strip()) <= _HEX_DIGITS for line in text.splitlines()):
            yield from MeasurementLog(p)
        else:
            yield SignedMeasurement.decode(data)


def cmd_bill(args) -> int:
    policy = BillingPolicy.from_mapping(load_keyvalue(args.policy))
    reports = list(_iter_reports(Path(args.reports)))
    if args.state:
        keysets = _published_keysets(Path(args.state))
        for i, report in enumerate(reports):
            pub = keysets.get(report.keyset_id)
            if pub is None or not report.verify(pub.k_res_pub):
                print(f"REJECT: report {i} does not verify against any known key set")
                return 1
    invoice = compute_invoice(reports, policy)
    text = invoice.to_text()
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


def cmd_experiment(args) -> int:
    params = {}
    if args.name in ("fib_timing", "fib_memory"):
        if args.n_min > args.n_max:
            raise CliError(f"--n-min {args.n_min} is above --n-max {args.n_max}", 2)
        params["ns"] = tuple(range(args.n_min, args.n_max + 1, args.n_step))
        params["tau"] = args.tau
    if args.name == "tau_sweep":
        params["epsilon"] = args.epsilon
    if args.name == "network":
        params["cases"] = args.cases
        params["seed"] = args.seed
    result = EXPERIMENTS[args.name](**params)
    out = Path(args.out) if args.out else Path(f"{args.name}.csv")
    result.write(out)
    print(f"{result.name}: {len(result.rows)} rows -> {out}")
    return 0


def cmd_fuzz_lowerbound(args) -> int:
    summary = run_lowerbound_fuzz(args.cases, args.seed)
    if summary.ok:
        print(f"PASS: {summary.cases} cases, 0 violations of t_max*tau <= resident cycles, "
              f"resident cycles conserved in every case")
        return 0
    if not summary.violations:
        case = summary.unconserved[0]
        print(f"FAIL: {len(summary.unconserved)} of {summary.cases} cases lose or double-charge "
              f"worker cycles; first: case {case.seed_index} resident={case.oracle} "
              f"declared={case.declared}")
        return 1
    case = summary.violations[0]
    artifact = Path(args.artifact) if args.artifact else Path(f"lowerbound-violation-{case.seed_index}.schedule")
    artifact.write_text(format_schedule(case.schedule))
    print(
        f"FAIL: {len(summary.violations)} violations out of {summary.cases}; "
        f"first: case {case.seed_index} t_max={case.outcome.t_max} tau={case.cfg.tau} "
        f"oracle={case.oracle}; schedule -> {artifact}"
    )
    return 1


def cmd_replay(args) -> int:
    scenario, image, input_data, schedule = _resolve_scenario(args)
    cfg = scenario.meter
    outcome = run_metered(image, input_data, LIMITS, cfg, schedule=schedule, costs=scenario.costs,
                          full_trace=args.full)
    sys.stdout.write(outcome.trace.export_text())
    oracle = outcome.trace.resident["worker"]
    print(f"# t_max={outcome.t_max} tau={cfg.tau} measured_cycles={outcome.t_max * cfg.tau} "
          f"oracle_cycles={oracle} m_int={outcome.m_int} m_max={outcome.m_max} net={outcome.net}")
    return 0


# --- parser ------------------------------------------------------------------


def _integer(text: str, minimum: int | None = None) -> int:
    """An integer, of at least ``minimum`` when one is given."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise argparse.ArgumentTypeError(f"expected an integer{bound}, got {text!r}")
    return value


def _convert(convert, text: str, where):
    """``convert(text)`` for a value read from a file; a refused one exits 2 naming ``where``."""
    try:
        return convert(text)
    except argparse.ArgumentTypeError as exc:
        raise CliError(f"{where}: {exc}", 2) from None


def _count(text: str) -> int:
    """An integer of at least 1."""
    return _integer(text, minimum=1)


def _digest(text: str) -> bytes:
    """A 32-byte digest or public key written as 64 hex characters."""
    if len(text) != 2 * crypto.DIGEST_SIZE or not set(text) <= _HEX_DIGITS:
        raise argparse.ArgumentTypeError(f"expected {2 * crypto.DIGEST_SIZE} hex characters, got {text!r}")
    return bytes.fromhex(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meterfaas",
        description="Metered FaaS simulator: keys, attestation, metered runs, billing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kde", help="key distribution enclave management")
    kde_sub = p.add_subparsers(dest="kde_cmd", required=True)
    for name, desc, func in (("keygen", "generate a key set", cmd_kde_keygen),
                             ("publish", "show/export published keys", cmd_kde_publish),
                             ("rotate", "rotate the key set", cmd_kde_rotate)):
        sp = kde_sub.add_parser(name, help=desc)
        sp.add_argument("--state", required=True, help="deployment state directory")
        sp.set_defaults(func=func)
        if name == "keygen":
            sp.add_argument("--seed", type=int, required=True)
            sp.add_argument("--worker-identity", type=_digest,
                            help="hex digest of the allowed worker identity")
            sp.add_argument("--parametrization", type=_digest, help="hex digest for damage containment")
        if name == "publish":
            sp.add_argument("--out", help="write canonical published keys here")

    p = sub.add_parser("verify", help="verify quotes, measurements, receipts")
    verify_sub = p.add_subparsers(dest="verify_cmd", required=True)
    vq = verify_sub.add_parser("quote", help="verify a published key quote transitively")
    _quote_flags(vq)
    vq.set_defaults(func=cmd_verify_quote)
    vm_ = verify_sub.add_parser("measurement")
    vm_.add_argument("report")
    vm_.add_argument("--state", help="deployment state (checks current and retired key sets)")
    vm_.add_argument("--kres", help="hex k_res public key, raw 32-byte key file, or published-keys file")
    vm_.set_defaults(func=cmd_verify_measurement)
    vr = verify_sub.add_parser("receipt")
    vr.add_argument("--receipt", required=True)
    vr.add_argument("--input", required=True)
    vr.add_argument("--function", required=True)
    vr.add_argument("--output", required=True)
    vr.add_argument("--measurement")
    vr.add_argument("--state")
    vr.add_argument("--kout", type=_digest, help="hex k_out public key")
    vr.set_defaults(func=cmd_verify_receipt)

    p = sub.add_parser("vm", help="bytecode tools")
    vm_sub = p.add_subparsers(dest="vm_cmd", required=True)
    va = vm_sub.add_parser("asm", help="assemble a textual program")
    va.add_argument("source")
    va.add_argument("-o", "--out")
    va.set_defaults(func=cmd_vm_asm)

    p = sub.add_parser("run", help="end-to-end metered invocation")
    p.add_argument("--state", required=True)
    _scenario_flags(p)
    p.add_argument("--receipt", action="store_true")
    p.add_argument("--want-measurement", action="store_true")
    p.add_argument("--token", help="authorization token carried in the encrypted input")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bill", help="compute an invoice over measurement reports")
    p.add_argument("--policy", required=True, help="key=value policy file")
    p.add_argument("--reports", required=True, help="log file, report file, or directory")
    p.add_argument("--state", help="verify each report against the deployment's key sets")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_bill)

    p = sub.add_parser("experiment", help="accuracy experiments (CSV output)")
    p.add_argument("name", choices=sorted(EXPERIMENTS))
    p.add_argument("-o", "--out")
    p.add_argument("--tau", type=int, default=100)
    p.add_argument("--epsilon", type=int, default=30)
    p.add_argument("--cases", type=_count, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-min", type=_count, default=500)
    p.add_argument("--n-max", type=_count, default=5000)
    p.add_argument("--n-step", type=_count, default=500)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("fuzz-lowerbound", help="randomized lower-bound property check")
    p.add_argument("--cases", type=_count, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--artifact", help="where to dump a reproducing schedule on failure")
    p.set_defaults(func=cmd_fuzz_lowerbound)

    p = sub.add_parser("replay", help="run one metered simulation and print its trace")
    _scenario_flags(p)
    p.add_argument("--full", action="store_true", help="log writes and per-instruction steps")
    p.set_defaults(func=cmd_replay)

    return parser


def _quote_flags(p) -> None:
    p.add_argument("--keys", required=True, help="canonical published-keys file")
    p.add_argument("--state", help="deployment state directory")
    p.add_argument("--root-pub", type=_digest, help="hex attestation root public key")
    p.add_argument("--expected-kde", type=_digest, help="hex KDE mrenclave")
    p.add_argument("--expected-worker", type=_digest, help="hex worker mrenclave")


def _scenario_flags(p) -> None:
    """Flags that override a scenario file's settings (``run`` and ``replay``)."""
    p.add_argument("--function", help="bytecode file or corpus name")
    p.add_argument("--input", help="input file (little-endian 64-bit words)")
    p.add_argument("--scenario", help="key=value scenario file supplying defaults")
    p.add_argument("--schedule", help="interrupt schedule file")
    p.add_argument("--tau", type=int)
    p.add_argument("--epsilon", type=int)
    p.add_argument("--net-delay", type=int)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (FormatError, ConfigError, AsmError, LoadError, ValueError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (OSError, TruncatedRun) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
