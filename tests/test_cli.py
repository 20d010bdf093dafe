"""CLI surface: state management, verification verdicts, exit codes."""

import pytest

from meterfaas import cli
from meterfaas import corpus as corp
from meterfaas.cli import main
from meterfaas.crypto import DeterministicRng
from meterfaas.experiments import LIMITS
from meterfaas.fuzz import FuzzSummary, random_schedule, run_case
from meterfaas.kde import PublishedKeys
from meterfaas.kernel import ScheduleEvent
from meterfaas.metering import run_metered
from meterfaas.scenario import ScenarioConfig, format_schedule, load_keyvalue
from meterfaas.vm import assemble
from meterfaas.worker import WorkerEnclave


@pytest.fixture
def state(tmp_path):
    d = tmp_path / "state"
    assert main(["kde", "keygen", "--state", str(d), "--seed", "7"]) == 0
    return d


@pytest.fixture
def fib_files(tmp_path):
    fn = tmp_path / "fib.mfvm"
    fn.write_bytes(assemble(corp.FIB_SOURCE))
    inp = tmp_path / "in.bin"
    inp.write_bytes(corp.fib_input(10))
    return fn, inp


def run_invocation(state, fib_files, extra=()):
    fn, inp = fib_files
    return main([
        "run", "--state", str(state), "--function", str(fn), "--input", str(inp),
        "--receipt", "--want-measurement", "--token", "alice",
        "--tau", "10", "--epsilon", "0", *extra,
    ])


class TestKdeCommands:
    def test_keygen_creates_state(self, state):
        assert (state / "deployment.cfg").exists()
        assert (state / "published.bin").exists()
        assert (state / "published-0.bin").exists()

    def test_publish_prints_keys(self, state, capsys):
        assert main(["kde", "publish", "--state", str(state)]) == 0
        out = capsys.readouterr().out
        assert "keyset_id" in out and "k_res+" in out

    def test_rotate_bumps_epoch(self, state, capsys):
        assert main(["kde", "rotate", "--state", str(state)]) == 0
        assert "epoch 1" in capsys.readouterr().out
        assert (state / "published-1.bin").exists()

    def test_state_holds_no_private_key_set(self, state, capsys):
        # load_state rebuilds the key distribution enclave from the seed and
        # the epoch, so no private key set is ever written to the state
        assert main(["kde", "rotate", "--state", str(state)]) == 0
        assert list(state.glob("keyset-*.bin")) == []

    @pytest.mark.parametrize("extra, identity, tail", [
        ([], "ae39b660e3f54c692ff7f8c3051d35a612ee078a78f14e1b2233605b79175236", ""),
        (["--parametrization", "ab" * 32], "e011c644f96458a2cdc290c6d913202affc9ed2d344a4a3e5ebd622f506776b3",
         "parametrization=" + "ab" * 32 + "\n"),
    ], ids=["default", "parametrized"])
    def test_deployment_cfg_text(self, tmp_path, extra, identity, tail):
        # the exact settings keygen writes, and a rotation's rewrite of them
        # in the same key order at the new epoch
        state = tmp_path / "state"
        assert main(["kde", "keygen", "--state", str(state), "--seed", "7", *extra]) == 0
        for epoch in (0, 1):
            text = f"seed=7\nworker_identity={identity}\nepoch={epoch}\n{tail}"
            assert (state / "deployment.cfg").read_text() == text
            assert main(["kde", "rotate", "--state", str(state)]) == 0


class TestRunAndVerify:
    def test_run_produces_artifacts(self, state, fib_files, capsys):
        assert run_invocation(state, fib_files) == 0
        out = capsys.readouterr().out
        assert "t_max" in out
        assert (state / "output.bin").read_bytes() == (55).to_bytes(8, "little")
        assert (state / "measurement.bin").exists()
        assert (state / "receipt.bin").exists()
        assert (state / "measurements.log").exists()

    def test_run_to_missing_out_dir_bills_nothing(self, state, fib_files, capsys, tmp_path):
        # the directory is checked before the dispatch logs a measurement
        assert run_invocation(state, fib_files) == 0
        log = (state / "measurements.log").read_text()
        assert run_invocation(state, fib_files, ["--out-dir", str(tmp_path / "missing")]) == 2
        assert "does not exist" in capsys.readouterr().err
        assert (state / "measurements.log").read_text() == log

    def test_verify_quote_accepts_and_rejects(self, state, capsys, tmp_path):
        assert main(["verify", "quote", "--keys", str(state / "published.bin"), "--state", str(state)]) == 0
        # substituted worker identity must be rejected with exit 1
        rc = main([
            "verify", "quote", "--keys", str(state / "published.bin"), "--state", str(state),
            "--expected-worker", "00" * 32,
        ])
        assert rc == 1
        assert "REJECT" in capsys.readouterr().out

    def test_removed_aliases_exit_2(self, state, fib_files):
        # one verb per action: `verify quote` and `verify measurement --kres`
        run_invocation(state, fib_files)
        published = str(state / "published.bin")
        for argv in (["attest", "verify", "--keys", published, "--state", str(state)],
                     ["measure", "verify", str(state / "measurement.bin"), published]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_verify_measurement_and_tamper(self, state, fib_files, capsys):
        run_invocation(state, fib_files)
        report = state / "measurement.bin"
        assert main(["verify", "measurement", str(report), "--state", str(state)]) == 0
        data = bytearray(report.read_bytes())
        data[5] ^= 1
        bad = state / "bad.bin"
        bad.write_bytes(bytes(data))
        assert main(["verify", "measurement", str(bad), "--state", str(state)]) == 1

    def test_kres_key_forms_agree(self, state, fib_files, tmp_path):
        run_invocation(state, fib_files)
        report = str(state / "measurement.bin")
        published = PublishedKeys.decode((state / "published.bin").read_bytes())
        raw = tmp_path / "k_res.bin"
        raw.write_bytes(published.k_res_pub)
        for spec in (published.k_res_pub.hex(), str(raw), str(state / "published.bin")):
            assert main(["verify", "measurement", report, "--kres", spec]) == 0
        other = tmp_path / "other.bin"
        other.write_bytes(b"\x01" * 32)
        assert main(["verify", "measurement", report, "--kres", str(other)]) == 1

    def test_verify_measurement_kres_prints_fields(self, state, fib_files, capsys):
        run_invocation(state, fib_files)
        rc = main(["verify", "measurement", str(state / "measurement.bin"), "--kres", str(state / "published.bin")])
        assert rc == 0
        out = capsys.readouterr().out
        for field in ("t_max", "tau", "m_int", "m_max", "m_avg", "net", "tag"):
            assert field in out

    def test_verify_receipt_and_mismatch(self, state, fib_files, capsys, tmp_path):
        fn, inp = fib_files
        run_invocation(state, fib_files)
        args = [
            "verify", "receipt", "--receipt", str(state / "receipt.bin"),
            "--input", str(inp), "--function", str(fn),
            "--output", str(state / "output.bin"), "--state", str(state),
        ]
        assert main(args) == 0
        wrong = tmp_path / "wrong_output.bin"
        wrong.write_bytes(b"\x00" * 8)
        args[args.index(str(state / "output.bin"))] = str(wrong)
        assert main(args) == 1
        assert "output-digest" in capsys.readouterr().out

    def test_verify_receipt_from_an_unpublished_key_set_exit_1(self, state, fib_files, capsys, tmp_path):
        fn, inp = fib_files
        other = tmp_path / "other"
        assert main(["kde", "keygen", "--state", str(other), "--seed", "8"]) == 0
        run_invocation(other, fib_files)
        capsys.readouterr()
        rc = main([
            "verify", "receipt", "--receipt", str(other / "receipt.bin"),
            "--input", str(inp), "--function", str(fn),
            "--output", str(other / "output.bin"), "--state", str(state),
        ])
        assert rc == 1
        assert capsys.readouterr().out == "REJECT: no known key set issued this receipt\n"

    def test_verify_receipt_without_key_exit_2(self, state, fib_files, capsys):
        fn, inp = fib_files
        run_invocation(state, fib_files)
        rc = main([
            "verify", "receipt", "--receipt", str(state / "receipt.bin"),
            "--input", str(inp), "--function", str(fn), "--output", str(state / "output.bin"),
        ])
        assert rc == 2
        assert "need --state or --kout" in capsys.readouterr().err

    @pytest.mark.parametrize("command, message", [
        ("verify-quote", "need --state or --root-pub"),
        ("verify-measurement", "need --state or --kres"),
        ("replay", "need --function (flag or scenario file)"),
    ], ids=["verify-quote", "verify-measurement", "replay"])
    def test_missing_key_or_function_exit_2(self, state, fib_files, capsys, tmp_path, command, message):
        # neither flag that names the key, or a scenario whose function is empty
        run_invocation(state, fib_files)
        scenario = tmp_path / "no-function.cfg"
        scenario.write_text("function=\n")
        argv = {
            "verify-quote": ["verify", "quote", "--keys", str(state / "published.bin")],
            "verify-measurement": ["verify", "measurement", str(state / "measurement.bin")],
            "replay": ["replay", "--scenario", str(scenario)],
        }[command]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_retired_keyset_note(self, state, fib_files, capsys):
        run_invocation(state, fib_files)
        assert main(["kde", "rotate", "--state", str(state)]) == 0
        capsys.readouterr()
        rc = main(["verify", "measurement", str(state / "measurement.bin"), "--state", str(state)])
        assert rc == 0
        assert "retired key set, epoch 0" in capsys.readouterr().out

    def test_verify_receipt_after_rotation(self, state, fib_files, capsys):
        fn, inp = fib_files
        run_invocation(state, fib_files)
        assert main(["kde", "rotate", "--state", str(state)]) == 0
        capsys.readouterr()
        rc = main([
            "verify", "receipt", "--receipt", str(state / "receipt.bin"),
            "--input", str(inp), "--function", str(fn),
            "--output", str(state / "output.bin"), "--state", str(state),
        ])
        assert rc == 0
        assert "retired key set, epoch 0" in capsys.readouterr().out

    def test_verify_receipt_corpus_function_by_name(self, state, fib_files):
        _, inp = fib_files
        assert main(["run", "--state", str(state), "--function", "fib", "--input", str(inp),
                     "--receipt"]) == 0
        rc = main([
            "verify", "receipt", "--receipt", str(state / "receipt.bin"),
            "--input", str(inp), "--function", "fib",
            "--output", str(state / "output.bin"), "--state", str(state),
        ])
        assert rc == 0

    def test_current_keyset_after_ten_rotations(self, state, fib_files, capsys):
        # epoch 10 is the newest, though "published-10.bin" sorts before "published-2.bin"
        for _ in range(10):
            assert main(["kde", "rotate", "--state", str(state)]) == 0
        run_invocation(state, fib_files)
        capsys.readouterr()
        rc = main(["verify", "measurement", str(state / "measurement.bin"), "--state", str(state)])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[-1] == "ACCEPT"

    def test_run_with_schedule_file(self, state, fib_files, tmp_path):
        sched = tmp_path / "sched.txt"
        sched.write_text("worker,50,80\ntimer,200,240\n")
        assert run_invocation(state, fib_files, extra=("--schedule", str(sched))) == 0

    def test_run_builds_one_worker(self, state, fib_files, monkeypatch):
        built = []
        init = WorkerEnclave.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(WorkerEnclave, "__init__", counting_init)
        assert run_invocation(state, fib_files) == 0
        assert len(built) == 1

    def test_scenario_pool_size_is_an_unknown_key(self, state, fib_files, tmp_path, capsys):
        scenario = tmp_path / "pool.cfg"
        scenario.write_text("function=fib\npool_size=2\n")
        assert run_invocation(state, fib_files, extra=("--scenario", str(scenario))) == 2
        assert "unknown scenario key 'pool_size'" in capsys.readouterr().err

    def test_truncated_run_exit_2(self, state, fib_files, tmp_path, capsys):
        # the worker is interrupted until past the default cycle limit
        sched = tmp_path / "late.txt"
        sched.write_text("worker,2,10000002\n")
        assert run_invocation(state, fib_files, extra=("--schedule", str(sched))) == 2
        err = capsys.readouterr().err
        assert "error: simulation truncated at cycle limit 10000000" in err
        assert "Traceback" not in err

    def test_unknown_scenario_key_exit_2(self, state, fib_files, tmp_path, capsys):
        scenario = tmp_path / "typo.cfg"
        scenario.write_text("function=fib\ntua=5\n")
        assert run_invocation(state, fib_files, extra=("--scenario", str(scenario))) == 2
        assert "tua" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["seed", "worker_identity"])
    @pytest.mark.parametrize("command", ["publish", "run"])
    def test_deployment_cfg_missing_key_exit_2(self, state, fib_files, capsys, key, command):
        cfg = state / "deployment.cfg"
        cfg.write_text("".join(line + "\n" for line in cfg.read_text().splitlines()
                               if not line.startswith(f"{key}=")))
        if command == "publish":
            assert main(["kde", "publish", "--state", str(state)]) == 2
        else:
            assert run_invocation(state, fib_files) == 2
        assert f"has no {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("seed", "abc", "expected an integer, got 'abc'"),
        ("epoch", "-1", "expected an integer >= 0, got '-1'"),
        ("worker_identity", "zz", "expected 64 hex characters, got 'zz'"),
    ], ids=["seed", "epoch", "worker_identity"])
    @pytest.mark.parametrize("command", ["publish", "rotate", "run", "verify-quote"])
    def test_deployment_cfg_malformed_value_exit_2(self, state, fib_files, capsys, key, value, message, command):
        cfg = state / "deployment.cfg"
        cfg.write_text("".join(f"{key}={value}\n" if line.startswith(f"{key}=") else line + "\n"
                               for line in cfg.read_text().splitlines()))
        before = {path.name: path.read_bytes() for path in state.iterdir()}
        argv = {
            "publish": ["kde", "publish", "--state", str(state)],
            "rotate": ["kde", "rotate", "--state", str(state)],
            "verify-quote": ["verify", "quote", "--keys", str(state / "published.bin"), "--state", str(state)],
        }
        capsys.readouterr()
        assert (main(argv[command]) if command in argv else run_invocation(state, fib_files)) == 2
        assert capsys.readouterr().err == f"error: {cfg}: {key}: {message}\n"
        assert {path.name: path.read_bytes() for path in state.iterdir()} == before

    @pytest.mark.parametrize("epoch", ["5", "99999999999"])
    @pytest.mark.parametrize("command", ["publish", "rotate", "run", "verify-quote"])
    def test_deployment_cfg_unpublished_epoch_exit_2(self, state, fib_files, capsys, epoch, command):
        # only published-0.bin exists, so no replay to a later epoch is run
        cfg = state / "deployment.cfg"
        cfg.write_text(cfg.read_text().replace("epoch=0\n", f"epoch={epoch}\n"))
        before = {path.name: path.read_bytes() for path in state.iterdir()}
        argv = {
            "publish": ["kde", "publish", "--state", str(state)],
            "rotate": ["kde", "rotate", "--state", str(state)],
            "verify-quote": ["verify", "quote", "--keys", str(state / "published.bin"), "--state", str(state)],
        }
        capsys.readouterr()
        assert (main(argv[command]) if command in argv else run_invocation(state, fib_files)) == 2
        assert capsys.readouterr() == ("", f"error: {cfg}: epoch: no key set was published at epoch {epoch}\n")
        assert {path.name: path.read_bytes() for path in state.iterdir()} == before

    def test_malformed_root_pub_names_its_file(self, state, capsys):
        (state / "root.pub").write_text("zz\n")
        capsys.readouterr()
        assert main(["verify", "quote", "--keys", str(state / "published.bin"), "--state", str(state)]) == 2
        assert capsys.readouterr() == ("", f"error: {state / 'root.pub'}: expected 64 hex characters, got 'zz'\n")

    @pytest.mark.parametrize("command", ["measurement", "receipt", "bill"])
    def test_state_without_published_key_sets_exit_2(self, state, fib_files, tmp_path, capsys, command):
        fn, inp = fib_files
        run_invocation(state, fib_files)
        for path in state.glob("published-*.bin"):
            path.unlink()
        policy = tmp_path / "policy.cfg"
        policy.write_text(POLICY)
        argv = {
            "measurement": ["verify", "measurement", str(state / "measurement.bin"), "--state", str(state)],
            "receipt": ["verify", "receipt", "--receipt", str(state / "receipt.bin"), "--input", str(inp),
                        "--function", str(fn), "--output", str(state / "output.bin"), "--state", str(state)],
            "bill": ["bill", "--policy", str(policy), "--reports", str(state / "measurement.bin"),
                     "--state", str(state)],
        }[command]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: no published key sets in state\n")

    def test_corpus_function_by_name(self, state, tmp_path):
        inp = tmp_path / "net.bin"
        inp.write_bytes(corp.known_network_input(1000, 500))
        rc = main(["run", "--state", str(state), "--function", "known_network", "--input", str(inp)])
        assert rc == 0


POLICY = ("per_invocation=0.0000002\nper_ghz_second=0.00001\nper_gb_second=0.0000166667\n"
          "per_gb_network=0.12\ncpu_frequency_assumption=2000000000\n")


class TestDocumentedPaths:
    """Forms of the commands that the README documents, one run each."""

    @pytest.fixture
    def policy(self, tmp_path):
        path = tmp_path / "policy.cfg"
        path.write_text(POLICY)
        return path

    def test_bill_reads_a_binary_report_and_a_directory_of_one(self, state, fib_files, policy, tmp_path,
                                                              capsys):
        run_invocation(state, fib_files)
        single = tmp_path / "single"
        single.mkdir()
        (single / "measurement.bin").write_bytes((state / "measurement.bin").read_bytes())
        capsys.readouterr()
        invoices = []
        for reports in (state / "measurements.log", state / "measurement.bin", single):
            assert main(["bill", "--policy", str(policy), "--reports", str(reports), "--state", str(state)]) == 0
            invoices.append(capsys.readouterr().out)
        assert invoices[0] == invoices[1] == invoices[2]
        assert "invocations,1," in invoices[0]

    def test_bill_an_empty_report_file_bills_as_an_empty_log(self, policy, tmp_path, capsys):
        empty, folder = tmp_path / "empty.log", tmp_path / "none"
        empty.write_bytes(b"")
        folder.mkdir()
        invoices = []
        for reports in (empty, folder):
            assert main(["bill", "--policy", str(policy), "--reports", str(reports)]) == 0
            invoices.append(capsys.readouterr().out)
        assert invoices[0] == invoices[1] and "invocations,0," in invoices[0]

    def test_bill_skips_an_empty_file_in_a_directory(self, state, fib_files, policy, tmp_path, capsys):
        run_invocation(state, fib_files)
        folder = tmp_path / "reports"
        folder.mkdir()
        (folder / "empty.log").write_bytes(b"")
        (folder / "measurement.bin").write_bytes((state / "measurement.bin").read_bytes())
        capsys.readouterr()
        invoices = []
        for reports in (folder, state / "measurement.bin"):
            assert main(["bill", "--policy", str(policy), "--reports", str(reports), "--state", str(state)]) == 0
            invoices.append(capsys.readouterr().out)
        assert invoices[0] == invoices[1] and "invocations,1," in invoices[0]

    def test_bill_state_rejects_a_report_of_another_deployment(self, state, fib_files, policy, tmp_path,
                                                              capsys):
        other = tmp_path / "other"
        assert main(["kde", "keygen", "--state", str(other), "--seed", "8"]) == 0
        run_invocation(other, fib_files)
        capsys.readouterr()
        rc = main(["bill", "--policy", str(policy), "--reports", str(other / "measurement.bin"),
                   "--state", str(state)])
        assert rc == 1
        assert capsys.readouterr().out == "REJECT: report 0 does not verify against any known key set\n"

    def test_bill_writes_the_invoice_with_o(self, state, fib_files, policy, tmp_path, capsys):
        run_invocation(state, fib_files)
        out = tmp_path / "invoice.csv"
        capsys.readouterr()
        assert main(["bill", "--policy", str(policy), "--reports", str(state / "measurements.log"),
                     "-o", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out
        assert out.read_text().startswith("item,quantity,charge_exact,charge_approx\n")

    def test_verify_receipt_with_kout(self, state, fib_files, capsys):
        fn, inp = fib_files
        run_invocation(state, fib_files)
        k_out = PublishedKeys.decode((state / "published.bin").read_bytes()).k_out_pub.hex()
        args = ["verify", "receipt", "--receipt", str(state / "receipt.bin"), "--input", str(inp),
                "--function", str(fn), "--output", str(state / "output.bin")]
        capsys.readouterr()
        assert main(args + ["--kout", k_out]) == 0
        assert capsys.readouterr().out == "ACCEPT: receipt binds (input, function, output)\n"
        assert main(args + ["--kout", "00" * 32]) == 1

    def test_run_of_a_trapping_function_exit_1(self, state, tmp_path, capsys):
        fn = tmp_path / "trap.mfvm"
        fn.write_bytes(assemble("PUSH 2\nINPUT_WORD\nOUTPUT_WORD\nHALT"))
        rc = main(["run", "--state", str(state), "--function", str(fn), "--input", "/dev/null"])
        assert rc == 1
        assert capsys.readouterr().out == "FUNCTION FAILED: fault:input-out-of-bounds\n"
        assert not (state / "output.bin").exists()

    def test_keygen_with_parametrization_then_run(self, tmp_path, fib_files, capsys):
        state = tmp_path / "param"
        assert main(["kde", "keygen", "--state", str(state), "--seed", "7",
                     "--parametrization", "ab" * 32]) == 0
        assert "parametrization=" + "ab" * 32 in (state / "deployment.cfg").read_text()
        assert run_invocation(state, fib_files) == 0
        assert (state / "output.bin").read_bytes() == (55).to_bytes(8, "little")

    def test_keygen_with_custom_worker_identity_then_run_exit_2(self, tmp_path, fib_files, capsys):
        state = tmp_path / "custom"
        assert main(["kde", "keygen", "--state", str(state), "--seed", "7",
                     "--worker-identity", "cd" * 32]) == 0
        assert f"worker identity {'cd' * 32}" in capsys.readouterr().out
        assert run_invocation(state, fib_files) == 2
        assert "state worker identity is custom" in capsys.readouterr().err

    def test_kde_publish_out(self, state, tmp_path):
        out = tmp_path / "keys.bin"
        assert main(["kde", "publish", "--state", str(state), "--out", str(out)]) == 0
        assert out.read_bytes() == (state / "published.bin").read_bytes()

    def test_kde_publish_failed_write_prints_nothing(self, state, tmp_path, capsys):
        # --out naming a directory: the write fails before any key is printed
        capsys.readouterr()
        assert main(["kde", "publish", "--state", str(state), "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Is a directory" in captured.err

    def test_load_state_returns_the_parametrization_it_checked(self, tmp_path, state):
        # the one reader of deployment.cfg converts the digest; run uses that value
        assert cli.load_state(state)[2] is None
        param = tmp_path / "param"
        assert main(["kde", "keygen", "--state", str(param), "--seed", "7",
                     "--parametrization", "ab" * 32]) == 0
        cfg, kde, parametrization = cli.load_state(param)
        assert parametrization == bytes.fromhex("ab" * 32) and cfg["parametrization"] == "ab" * 32
        assert kde.worker_identity == cli.default_worker_identity(parametrization).mrenclave

    def test_verify_quote_with_root_pub(self, state, tmp_path, capsys):
        keys = str(state / "published.bin")
        root = (state / "root.pub").read_text().strip()
        capsys.readouterr()
        assert main(["verify", "quote", "--keys", keys, "--root-pub", root]) == 0
        assert capsys.readouterr().out.startswith("ACCEPT: keyset ")
        assert main(["verify", "quote", "--keys", keys, "--root-pub", "00" * 32]) == 1


class TestTools:
    def test_vm_asm(self, tmp_path, capsys):
        src = tmp_path / "prog.txt"
        src.write_text("PUSH 3\nOUTPUT_WORD\nHALT\n")
        out = tmp_path / "prog.mfvm"
        assert main(["vm", "asm", str(src), "-o", str(out)]) == 0
        assert out.exists()
        assert "3 instructions" in capsys.readouterr().out

    @pytest.mark.parametrize("named", [False, True], ids=["default-output", "o-names-the-source"])
    def test_vm_asm_never_overwrites_its_source(self, tmp_path, capsys, named):
        # without -o the output is the source's name with .mfvm, here the
        # source itself; with -o, a path that resolves to it
        src = tmp_path / "prog.mfvm"
        src.write_text("PUSH 3\nOUTPUT_WORD\nHALT\n")
        (tmp_path / "sub").mkdir()
        argv = ["vm", "asm", str(src)] + (["-o", str(tmp_path / "sub" / ".." / "prog.mfvm")] if named else [])
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        assert src.read_text() == "PUSH 3\nOUTPUT_WORD\nHALT\n"

    def test_vm_asm_parse_error_exit_2(self, tmp_path):
        src = tmp_path / "bad.txt"
        src.write_text("NOT_AN_OP\n")
        assert main(["vm", "asm", str(src)]) == 2

    def test_vm_asm_immediate_out_of_range_exit_2(self, tmp_path, capsys):
        src = tmp_path / "big.txt"
        src.write_text("PUSH 18446744073709551616\nOUTPUT_WORD\nHALT\n")
        out = tmp_path / "big.mfvm"
        assert main(["vm", "asm", str(src), "-o", str(out)]) == 2
        assert "line 1: immediate 18446744073709551616 out of range" in capsys.readouterr().err
        assert not out.exists()

    def test_vm_asm_fall_through_exit_2(self, tmp_path, capsys):
        src = tmp_path / "ff.txt"
        src.write_text("PUSH 1\n")
        out = tmp_path / "ff.mfvm"
        assert main(["vm", "asm", str(src), "-o", str(out)]) == 2
        assert "neither HALT nor JMP" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source,message", [
        (".entry\nHALT", "line 1: .entry needs one label"),
        ("1x: HALT", "line 1: bad label '1x'"),
        ("a: HALT\na: HALT", "line 2: duplicate label 'a'"),
        ("PUSH 1 2\nHALT", "line 1: too many operands"),
        ("HALT 1", "line 1: HALT takes no operand"),
        ("PUSH\nHALT", "line 1: PUSH needs an operand"),
        ("LOADL 16\nHALT", "line 1: slot 16 out of range"),
        (".entry go\nHALT", ".entry label 'go' undefined"),
        ("; nothing but a comment\n", "empty program (offset 13)"),
    ])
    def test_vm_asm_each_error_exit_2(self, tmp_path, capsys, source, message):
        src = tmp_path / "bad.txt"
        src.write_text(source)
        out = tmp_path / "bad.mfvm"
        assert main(["vm", "asm", str(src), "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"parse error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "replay"])
    def test_fall_through_function_exit_2(self, state, tmp_path, capsys, command):
        fn = tmp_path / "ff.mfvm"
        fn.write_bytes(assemble("PUSH 1"))
        args = [command, "--function", str(fn), "--input", "/dev/null", "--tau", "10"]
        if command == "run":
            args += ["--state", str(state)]
        assert main(args) == 2
        assert "neither HALT nor JMP" in capsys.readouterr().err

    def test_bill_deterministic(self, state, fib_files, tmp_path, capsys):
        run_invocation(state, fib_files)
        policy = tmp_path / "policy.cfg"
        policy.write_text(
            "per_invocation=0.0000002\nper_ghz_second=0.00001\n"
            "per_gb_second=0.0000166667\nper_gb_network=0.12\n"
            "cpu_frequency_assumption=2000000000\n"
        )
        args = ["bill", "--policy", str(policy), "--reports", str(state / "measurements.log"),
                "--state", str(state)]
        capsys.readouterr()
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert "total" in first

    def test_bill_unknown_policy_key_exit_2(self, state, fib_files, tmp_path, capsys):
        run_invocation(state, fib_files)
        policy = tmp_path / "typo.cfg"
        policy.write_text("per_invokation=1\nper_ghz_second=0.00001\n")
        assert main(["bill", "--policy", str(policy), "--reports", str(state / "measurements.log")]) == 2
        assert "per_invokation" in capsys.readouterr().err

    def test_bill_zero_denominator_price_exit_2(self, state, fib_files, tmp_path, capsys):
        run_invocation(state, fib_files)
        policy = tmp_path / "zero.cfg"
        policy.write_text("per_invocation = 1/0\n")
        assert main(["bill", "--policy", str(policy), "--reports", str(state / "measurements.log")]) == 2
        assert "per_invocation" in capsys.readouterr().err

    def test_bill_non_integer_frequency_exit_2(self, state, fib_files, tmp_path, capsys):
        run_invocation(state, fib_files)
        policy = tmp_path / "freq.cfg"
        policy.write_text("per_invocation=1\ncpu_frequency_assumption=abc\n")
        capsys.readouterr()
        assert main(["bill", "--policy", str(policy), "--reports", str(state / "measurements.log")]) == 2
        assert capsys.readouterr() == ("", "parse error: cpu_frequency_assumption: not an integer: 'abc'\n")

    def test_fuzz_lowerbound_passes(self, capsys):
        assert main(["fuzz-lowerbound", "--cases", "50", "--seed", "1"]) == 0
        assert "PASS" in capsys.readouterr().out

    @staticmethod
    def failing_fuzz(monkeypatch, violated):
        """``fuzz-lowerbound`` with a summary of 20 real cases that reports
        case 7 as a violation (``violated``) or as unconserved."""
        rng = DeterministicRng(1, "lowerbound")
        case = run_case(rng, 7)
        assert case.schedule
        failed = dict(violations=[case], unconserved=[]) if violated else dict(violations=[], unconserved=[case])
        monkeypatch.setattr(cli, "run_lowerbound_fuzz",
                            lambda cases, seed: FuzzSummary(cases=20, **failed))
        return case

    def test_fuzz_lowerbound_violation_writes_its_schedule(self, capsys, tmp_path, monkeypatch):
        case = self.failing_fuzz(monkeypatch, violated=True)
        artifact = tmp_path / "v.schedule"
        assert main(["fuzz-lowerbound", "--cases", "20", "--artifact", str(artifact)]) == 1
        assert capsys.readouterr().out == (
            f"FAIL: 1 violations out of 20; first: case 7 t_max={case.outcome.t_max} "
            f"tau={case.cfg.tau} oracle={case.oracle}; schedule -> {artifact}\n")
        assert artifact.read_text() == format_schedule(case.schedule)
        monkeypatch.chdir(tmp_path)
        assert main(["fuzz-lowerbound", "--cases", "20"]) == 1
        assert (tmp_path / "lowerbound-violation-7.schedule").read_text() == format_schedule(case.schedule)

    def test_fuzz_lowerbound_unconserved_case_exit_1(self, capsys, tmp_path, monkeypatch):
        case = self.failing_fuzz(monkeypatch, violated=False)
        monkeypatch.chdir(tmp_path)
        assert main(["fuzz-lowerbound", "--cases", "20"]) == 1
        assert capsys.readouterr().out == (
            f"FAIL: 1 of 20 cases lose or double-charge worker cycles; first: case 7 "
            f"resident={case.oracle} declared={case.declared}\n")
        assert list(tmp_path.iterdir()) == []

    def test_replay_scenario_fuzz_seed(self, capsys, tmp_path, monkeypatch):
        # the scenario's fuzz_seed draws the schedule inside an uninterrupted
        # metered run under the scenario's meter config
        scenario = tmp_path / "fuzz.cfg"
        scenario.write_text("function=fib\ntau=10\nepsilon=0\nfuzz_seed=3\n")
        inp = tmp_path / "in.bin"
        inp.write_bytes(corp.fib_input(40))
        drawn = []

        def recording_schedule(rng, span):
            drawn.append(random_schedule(rng, span))
            return drawn[-1]

        monkeypatch.setattr(cli, "random_schedule", recording_schedule)
        args = ["replay", "--scenario", str(scenario), "--input", str(inp)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        fib = corp.corpus()["fib"]
        cfg = ScenarioConfig.from_mapping(load_keyvalue(scenario)).meter
        dry = run_metered(fib, corp.fib_input(40), LIMITS, cfg).trace.final_cycle
        # every scheduled interrupt starts inside the run it interrupts
        assert all(ev.interrupt_at <= dry for ev in drawn[0])
        schedule = random_schedule(DeterministicRng(3, "scenario"), dry)
        expected = run_metered(fib, corp.fib_input(40), LIMITS, cfg, schedule=schedule)
        assert first.splitlines()[:-1] == expected.trace.export_lines()
        kinds = [line.split()[2] for line in first.splitlines() if not line.startswith("#")]
        assert "AEX" in kinds and "ERESUME" in kinds

    def test_replay_scenario_fuzz_seed_sized_by_scenario_costs(self, capsys, tmp_path):
        # the dry run that sizes a fuzz_seed schedule prices the
        # instructions as the scenario does, so the span covers its cycles
        scenario = tmp_path / "fuzz.cfg"
        scenario.write_text("function=fib\ntau=10\nepsilon=0\nfuzz_seed=3\ncost_default=3\n")
        inp = tmp_path / "in.bin"
        inp.write_bytes(corp.fib_input(40))
        assert main(["replay", "--scenario", str(scenario), "--input", str(inp)]) == 0
        out = capsys.readouterr().out
        loaded = ScenarioConfig.from_mapping(load_keyvalue(scenario))
        fib = corp.corpus()["fib"]
        dry = run_metered(fib, corp.fib_input(40), LIMITS, loaded.meter, costs=loaded.costs)
        assert dry.trace.final_cycle > 2 * run_metered(fib, corp.fib_input(40), LIMITS,
                                                       loaded.meter).trace.final_cycle
        schedule = random_schedule(DeterministicRng(3, "scenario"), dry.trace.final_cycle)
        expected = run_metered(fib, corp.fib_input(40), LIMITS, loaded.meter, schedule=schedule,
                               costs=loaded.costs)
        assert out.splitlines()[:-1] == expected.trace.export_lines()

    def test_replay_deterministic(self, capsys, tmp_path):
        sched = tmp_path / "s.txt"
        sched.write_text("worker,30,60\n")
        args = ["replay", "--function", "fib", "--input", "/dev/null", "--tau", "5",
                "--schedule", str(sched)]
        # /dev/null input means zero input words: the function traps, but the
        # trace and metering stay well defined and deterministic
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_replay_honours_scenario_handler_cost(self, capsys, tmp_path):
        inp = tmp_path / "in.bin"
        inp.write_bytes(corp.fib_input(200))
        sched = tmp_path / "s.txt"
        sched.write_text("worker,100,130\n")
        oracles = []
        for handler_cost in (1, 12):
            scenario = tmp_path / f"h{handler_cost}.cfg"
            scenario.write_text(f"function=fib\ntau=10\nepsilon=0\nhandler_cost={handler_cost}\n")
            capsys.readouterr()
            assert main(["replay", "--scenario", str(scenario), "--input", str(inp),
                         "--schedule", str(sched)]) == 0
            summary = capsys.readouterr().out.splitlines()[-1]
            printed = int(summary.split("oracle_cycles=")[1].split()[0])
            cfg = ScenarioConfig.from_mapping(load_keyvalue(scenario)).meter
            out = run_metered(corp.corpus()["fib"], corp.fib_input(200), LIMITS, cfg,
                              schedule=[ScheduleEvent("worker", 100, 130)])
            assert printed == out.trace.resident["worker"]
            oracles.append(printed)
        assert oracles[0] != oracles[1]

    def test_replay_negative_handler_cost_exit_2(self, capsys, tmp_path):
        inp = tmp_path / "in.bin"
        inp.write_bytes(corp.fib_input(30))
        sched = tmp_path / "s.txt"
        sched.write_text("worker,50,60\n")
        scenario = tmp_path / "neg.cfg"
        scenario.write_text("function=fib\ntau=10\nepsilon=0\nhandler_cost=-5\n")
        assert main(["replay", "--scenario", str(scenario), "--input", str(inp),
                     "--schedule", str(sched), "--full"]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_replay_zero_instruction_cost_exit_2(self, capsys, tmp_path):
        inp = tmp_path / "in.bin"
        inp.write_bytes(corp.fib_input(30))
        scenario = tmp_path / "zero.cfg"
        scenario.write_text("function=fib\ntau=10\ncost_heap=0\n")
        assert main(["replay", "--scenario", str(scenario), "--input", str(inp)]) == 2
        assert "all instruction costs must be positive" in capsys.readouterr().err

    def test_replay_negative_net_delay_exit_2(self, capsys, tmp_path):
        inp = tmp_path / "net.bin"
        inp.write_bytes(corp.known_network_input(10, 0))
        assert main(["replay", "--function", "known_network", "--input", str(inp),
                     "--net-delay", "-3"]) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["worker,-1,0", "worker,-5,-3"])
    def test_replay_negative_interrupt_cycle_exit_2(self, capsys, tmp_path, line):
        inp = tmp_path / "in.bin"
        inp.write_bytes(corp.fib_input(30))
        sched = tmp_path / "s.txt"
        sched.write_text(line + "\n")
        assert main(["replay", "--function", "fib", "--input", str(inp), "--tau", "10",
                     "--schedule", str(sched), "--full"]) == 2
        err = capsys.readouterr().err
        assert "parse error" in err and f"negative cycle {line.split(',')[1]}" in err

    @pytest.mark.parametrize("line", ["os,5,10", "os,5000,5001"])
    def test_replay_unknown_actor_exit_2(self, capsys, tmp_path, line):
        inp = tmp_path / "in.bin"
        inp.write_bytes(corp.fib_input(30))
        sched = tmp_path / "s.txt"
        sched.write_text(line + "\n")
        assert main(["replay", "--function", "fib", "--input", str(inp), "--tau", "10",
                     "--schedule", str(sched)]) == 2
        assert "unknown actor 'os'" in capsys.readouterr().err

    def test_replay_truncated_run_exit_2(self, capsys, tmp_path):
        sched = tmp_path / "late.txt"
        sched.write_text("worker,2,10000002\n")
        assert main(["replay", "--function", "echo_word", "--input", "/dev/null",
                     "--schedule", str(sched)]) == 2
        err = capsys.readouterr().err
        assert "error: simulation truncated at cycle limit 10000000" in err
        assert "Traceback" not in err

    def test_replay_misspelt_boolean_exit_2(self, capsys, tmp_path):
        scenario = tmp_path / "typo.cfg"
        scenario.write_text("function=echo_word\ninclude_load_time=flase\n")
        assert main(["replay", "--scenario", str(scenario), "--input", "/dev/null"]) == 2
        assert "include_load_time" in capsys.readouterr().err

    def test_replay_non_integer_scenario_value_exit_2(self, capsys, tmp_path):
        scenario = tmp_path / "typo.cfg"
        scenario.write_text("function=echo_word\ntau=abc\n")
        assert main(["replay", "--scenario", str(scenario), "--input", "/dev/null"]) == 2
        assert "tau: expected an integer, got 'abc'" in capsys.readouterr().err

    def test_flag_overrides_scenario_value_before_it_is_checked(self, capsys, tmp_path):
        # tau=0 alone is invalid; --tau replaces it, so the run goes ahead
        scenario = tmp_path / "tau0.cfg"
        scenario.write_text("function=fib\ntau=0\n")
        inp = tmp_path / "in.bin"
        inp.write_bytes(corp.fib_input(10))
        args = ["replay", "--scenario", str(scenario), "--input", str(inp)]
        assert main(args) == 2
        capsys.readouterr()
        assert main(args + ["--tau", "5"]) == 0
        assert " tau=5 " in capsys.readouterr().out.splitlines()[-1]

    def test_experiment_small_and_deterministic(self, tmp_path, capsys):
        out = tmp_path / "net.csv"
        rc = main(["experiment", "network", "--cases", "5", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sent,received,net_metered,net_expected"
        assert len(lines) == 6
        first = out.read_bytes()
        assert main(["experiment", "network", "--cases", "5", "-o", str(out)]) == 0
        assert out.read_bytes() == first  # byte-identical CSV on rerun

    def test_schedule_parse_error_exit_2(self, state, fib_files, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("worker,50\n")
        assert run_invocation(state, fib_files, extra=("--schedule", str(bad))) == 2

    def test_missing_state_exit_2(self, tmp_path):
        rc = main(["kde", "publish", "--state", str(tmp_path / "nope")])
        assert rc == 2


class TestBadArguments:
    """Arguments no command can use fail with exit 2 before anything is
    written."""

    TOO_BIG = str(1 << 128)  # the smallest seed that does not fit in 128 bits

    @pytest.mark.parametrize("command", ["keygen", "run", "run-scenario", "replay-scenario",
                                         "fuzz-lowerbound", "experiment-network"])
    def test_seed_beyond_128_bits_exit_2(self, state, tmp_path, capsys, command):
        fresh = tmp_path / "fresh"
        scenario = tmp_path / "scenario.cfg"
        scenario.write_text(f"function=fib\nfuzz_seed={self.TOO_BIG}\n")
        csv = tmp_path / "net.csv"
        argv = {
            "keygen": ["kde", "keygen", "--state", str(fresh), "--seed", self.TOO_BIG],
            "run": ["run", "--state", str(state), "--function", "fib", "--seed", self.TOO_BIG],
            "run-scenario": ["run", "--state", str(state), "--scenario", str(scenario)],
            "replay-scenario": ["replay", "--scenario", str(scenario)],
            "fuzz-lowerbound": ["fuzz-lowerbound", "--cases", "3", "--seed", self.TOO_BIG],
            "experiment-network": ["experiment", "network", "--cases", "2", "--seed", self.TOO_BIG,
                                   "-o", str(csv)],
        }[command]
        log = state / "measurements.log"
        before = log.read_bytes() if log.exists() else None
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.endswith("does not fit in 128 bits\n") and err.count("\n") == 1, err
        assert not fresh.exists() and not csv.exists()
        assert (log.read_bytes() if log.exists() else None) == before

    @pytest.mark.parametrize("argv", [
        ["experiment", "fib_timing", "--n-min", "0", "--n-max", "0"],
        ["experiment", "fib_timing", "--n-min", "-5"],
        ["experiment", "fib_memory", "--n-max", "0"],
        ["experiment", "fib_memory", "--n-step", "0"],
        ["experiment", "network", "--cases", "0"],
        ["experiment", "network", "--cases", "x"],
        ["fuzz-lowerbound", "--cases", "-1"],
    ], ids=["fib_timing-0", "fib_timing-negative", "n-max-0", "n-step-0", "cases-0", "cases-x",
            "fuzz-cases-negative"])
    def test_counts_below_one_exit_2(self, tmp_path, capsys, argv):
        csv = tmp_path / "out.csv"
        extra = ["-o", str(csv)] if argv[0] == "experiment" else []
        with pytest.raises(SystemExit) as exc:
            main(argv + extra)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "expected an integer >= 1" in err and "Traceback" not in err
        assert not csv.exists()

    @pytest.mark.parametrize("name", ["fib_timing", "fib_memory"])
    def test_reversed_experiment_range_exit_2(self, tmp_path, capsys, name):
        csv = tmp_path / "out.csv"
        assert main(["experiment", name, "--n-min", "5", "--n-max", "1", "-o", str(csv)]) == 2
        assert capsys.readouterr() == ("", "error: --n-min 5 is above --n-max 1\n")
        assert not csv.exists()

    @pytest.mark.parametrize("command", ["verify-quote", "replay", "bill", "vm-asm", "verify-measurement", "run"])
    def test_directory_given_as_a_file_exit_2(self, state, fib_files, tmp_path, capsys, command):
        # an input that cannot be read is a usage error, not a failed verification
        folder = tmp_path / "folder"
        folder.mkdir()
        report = tmp_path / "measurement.bin"
        if command == "verify-measurement":
            run_invocation(state, fib_files, extra=("--out-dir", str(tmp_path)))
        fn, _ = fib_files
        argv = {
            "verify-quote": ["verify", "quote", "--keys", str(folder), "--state", str(state)],
            "replay": ["replay", "--function", "fib", "--input", str(folder)],
            "bill": ["bill", "--policy", str(folder), "--reports", str(tmp_path)],
            "vm-asm": ["vm", "asm", str(folder)],
            "verify-measurement": ["verify", "measurement", str(report), "--kres", str(folder)],
            "run": ["run", "--state", str(state), "--function", str(fn), "--input", str(folder)],
        }[command]
        capsys.readouterr()
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        assert str(folder) in err
        if command == "run":
            assert not (state / "measurements.log").exists()

    @pytest.mark.parametrize("flag", ["--parametrization", "--worker-identity"])
    @pytest.mark.parametrize("value", ["ab", "abcd", "zz" * 32, "ab" * 33],
                             ids=["one-byte", "two-bytes", "not-hex", "33-bytes"])
    def test_keygen_malformed_digest_writes_nothing(self, tmp_path, capsys, flag, value):
        state = tmp_path / "state"
        with pytest.raises(SystemExit) as exc:
            main(["kde", "keygen", "--state", str(state), "--seed", "7", flag, value])
        assert exc.value.code == 2
        assert "expected 64 hex characters" in capsys.readouterr().err
        assert not state.exists()

    @pytest.mark.parametrize("flag", ["--root-pub", "--expected-kde", "--expected-worker", "--kout"])
    @pytest.mark.parametrize("value", ["ab", "abcd", "zz" * 32, "ab" * 33],
                             ids=["one-byte", "two-bytes", "not-hex", "33-bytes"])
    def test_verify_malformed_hex_flag_exit_2(self, state, capsys, flag, value):
        # a mistyped key is a usage error, not a forged record
        if flag == "--kout":
            argv = ["verify", "receipt", "--receipt", "r.bin", "--input", "in.bin", "--function", "fib",
                    "--output", "out.bin"]
        else:
            argv = ["verify", "quote", "--keys", str(state / "published.bin"), "--state", str(state)]
        before = {path.name: path.read_bytes() for path in state.iterdir()}
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"meterfaas verify {argv[1]}: error: argument {flag}: expected 64 hex characters, got {value!r}"]
        assert {path.name: path.read_bytes() for path in state.iterdir()} == before

    def test_experiment_writes_no_row_from_a_trapped_run(self, monkeypatch):
        from meterfaas import experiments
        from meterfaas.vm import VMLimits

        monkeypatch.setattr(experiments, "LIMITS", VMLimits(max_steps=100))
        with pytest.raises(ValueError, match=r"n=50: the run trapped \(budget:steps\)"):
            experiments.fib_timing(ns=(50,))
        monkeypatch.undo()
        with pytest.raises(ValueError, match=r"n=0: the run trapped \(fault:out-of-bounds\)"):
            experiments.fib_memory(ns=(0,))
