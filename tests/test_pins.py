"""Determinism pins: byte-exact digests of the CLI's experiment CSVs,
``replay --full`` traces, ``run`` artifacts and one pass of each perfbench
workload, run in-process.

Every value here was computed from the code before the change that added
this file. A change that moves one of them changes behaviour: it updates
the value and says which value moved and why.
"""

import hashlib

import pytest

from test_tooling import _load

from meterfaas import corpus as corp
from meterfaas.cli import main

EXPERIMENT_CSV_SHA256 = {
    "fib_memory": "cf7c6dbb1d947767a0c623b8b112d7bdec4659b40ca1d3ffbe9c813027353540",
    "fib_timing": "1febe9d03554fff6d3880d0eefb1b9569e8de3305cbb5c835bb1e490cddeba15",
    "network": "d9e8b50e224575f39a0b8bf8ba2952919aea00db13fcc81393d63a8a7637b93e",
    "tau_sweep": "2f563b3ff8340d4117da815af925187a714204544d0d619985190e0bcd785622",
}

# one scenario that sets every integer key it can, and a schedule that
# interrupts the worker, the timer, and the worker again for one cycle
SCENARIO = "tau=10\nepsilon=3\nnet_delay=20\nhandler_cost=7\ncost_heap=12\ncost_net=4\n"
SCHEDULE = "worker,25,40\ntimer,60,75\nworker,90,91\n"

# function -> (input, lines, SHA-256 of the whole replay --full text, last line)
REPLAY_FULL = {
    "fib": (corp.fib_input(20), 77,
            "80223bc2a3d9a4d1ffe266aae762b8b424c9ff2b01aa3e7f4b3d6f6e23fa26d6",
            "# t_max=4 tau=10 measured_cycles=40 oracle_cycles=484 m_int=504 m_max=168 net=0"),
    "known_network": (corp.known_network_input(100, 50), 60,
                      "c13179b4cf780be6436357e6144bc29502aad3db5c7508b0854aab9a1cd626f7",
                      "# t_max=2 tau=10 measured_cycles=20 oracle_cycles=53 m_int=0 m_max=0 net=150"),
    "empty": (b"", 29,
              "51bf402af7bdc07342b402ffa2908709a659ddb6f2967d0e3f8b809229fee9cb",
              "# t_max=0 tau=10 measured_cycles=0 oracle_cycles=1 m_int=0 m_max=0 net=0"),
    "alloc_churn": (corp.alloc_churn_input(64), 55,
                    "8e2aec1e944cacd0e0a5f1024ac690fd14a9817098d6170725fc05bccba44a41",
                    "# t_max=2 tau=10 measured_cycles=20 oracle_cycles=34 m_int=64 m_max=64 net=0"),
    "echo_word": (corp.words(12345), 29,
                  "6d020fa24d72ffa4630d9faa10c1f165c81f4383fa301b5a1d7377060e07e13d",
                  "# t_max=0 tau=10 measured_cycles=0 oracle_cycles=4 m_int=0 m_max=0 net=0"),
}

# function -> SHA-256 of the output.bin, measurement.bin and receipt.bin that
# ``run --receipt --want-measurement --token alice`` writes under SCENARIO and
# SCHEDULE, on the REPLAY_FULL input, against a deployment made with seed 7
RUN_ARTIFACTS = {
    "alloc_churn": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                    "03f508d0951183b02045242187cc6b663749435e101230783eac43c3838b342b",
                    "b7778d9eaf046dac9f979bb9b08a5723953dbb56da613bdf9554b588dc078c33"),
    "echo_word": ("e1543551249113046932741cc28f36b4bbcc542233eb5094874072d3167f160a",
                  "21d03513d28083a4d1de8621b714cefa8185f1d72fb3e4b6dbb8be0273292d40",
                  "a2c23497d808898f4fb80a7a6b52f2058ce4c3250d7f9a50a48913bfd5ee54ab"),
    "empty": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
              "21d03513d28083a4d1de8621b714cefa8185f1d72fb3e4b6dbb8be0273292d40",
              "f400d64bce125d8dafcc62f2b0346c5a509eeb0b30947ed563a2ae0271001f6a"),
    "fib": ("e7516a5975a45d1e431bc219a413cc9a180138a6020f04dbb646ee6147b18ee1",
            "a3cf8552f26d3c28131ae312b9f8f75d701df6af8be2b8774260c459a6a3a25d",
            "8246580d114795e033a3cd3bda720eb8f16c3c3232d061b1e3603f0a0e1d56cc"),
    "known_network": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                      "1ea8c01ceeed0f0a5d8c2cb03bba3d94677a5520043574e5d8d7b54bb63ce330",
                      "9726d7cfda3491bd3a51c9270805c9ad8719c29ff441d49b473b037ec90f2d65"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(EXPERIMENT_CSV_SHA256))
def test_experiment_csv_at_defaults(name, tmp_path, capsys):
    out = tmp_path / f"{name}.csv"
    assert main(["experiment", name, "-o", str(out)]) == 0
    assert sha256(out.read_bytes()) == EXPERIMENT_CSV_SHA256[name]


def test_replay_full_covers_the_corpus():
    assert set(REPLAY_FULL) == set(corp.corpus())


@pytest.mark.parametrize("name", sorted(REPLAY_FULL))
def test_replay_full_text(name, tmp_path, capsys):
    data, lines, digest, last = REPLAY_FULL[name]
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(SCENARIO)
    schedule = tmp_path / "schedule.txt"
    schedule.write_text(SCHEDULE)
    inp = tmp_path / "in.bin"
    inp.write_bytes(data)
    capsys.readouterr()
    assert main(["replay", "--scenario", str(scenario), "--function", name, "--input", str(inp),
                 "--schedule", str(schedule), "--full"]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[-1] == last
    assert len(text.splitlines()) == lines
    assert sha256(text.encode()) == digest


def test_run_artifacts_cover_the_corpus():
    assert set(RUN_ARTIFACTS) == set(corp.corpus())


@pytest.mark.parametrize("name", sorted(RUN_ARTIFACTS))
def test_run_artifacts(name, tmp_path, capsys):
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(SCENARIO)
    schedule = tmp_path / "schedule.txt"
    schedule.write_text(SCHEDULE)
    inp = tmp_path / "in.bin"
    inp.write_bytes(REPLAY_FULL[name][0])
    state = tmp_path / "state"
    assert main(["kde", "keygen", "--state", str(state), "--seed", "7"]) == 0
    assert main(["run", "--state", str(state), "--scenario", str(scenario), "--function", name,
                 "--input", str(inp), "--schedule", str(schedule),
                 "--receipt", "--want-measurement", "--token", "alice"]) == 0
    digests = tuple(sha256((state / f).read_bytes()) for f in ("output.bin", "measurement.bin", "receipt.bin"))
    assert digests == RUN_ARTIFACTS[name]


# workload -> (sim_digest, sim_counts) of one untraced pass over perfbench's
# corpus at seed 301, as ``perfbench/run.py`` reports them
PERFBENCH_PASS = {
    "adversarial_sched": ("35d75d4a387145e925b640fa7d1e50277cd35b926e4d2f73dc7d7a59a159583f",
                          {"aex_fired": 8109, "aex_scheduled": 10636, "aex_skipped": 1059,
                           "billed_cycles": 69678, "failed": 0, "vm_cycles": 199845, "vm_steps": 95717}),
    "invoke_echo": ("d77ecf4dc4f87b39f0e136f5c619b9e15b78fb054a5bd6eb67bfa9d972d79d52",
                    {"aex_fired": 0, "aex_scheduled": 0, "aex_skipped": 0, "billed_cycles": 0,
                     "failed": 0, "vm_cycles": 1200, "vm_steps": 1200}),
    "invoke_fib": ("6d7d71a3624b943b6cb425c9412749289cb71ee246e4c5f33e4ac4ebc9f2e021",
                   {"aex_fired": 0, "aex_scheduled": 0, "aex_skipped": 0, "billed_cycles": 87800,
                    "failed": 0, "vm_cycles": 115888, "vm_steps": 115438}),
    "invoke_fib_tau1": ("48c7770988a96216715dfd75fe5488daefbe43018f922549dd17ae41970d301f",
                        {"aex_fired": 0, "aex_scheduled": 0, "aex_skipped": 0, "billed_cycles": 29477,
                         "failed": 0, "vm_cycles": 29477, "vm_steps": 29027}),
}


@pytest.mark.parametrize("workload", sorted(PERFBENCH_PASS))
def test_perfbench_one_pass(workload):
    run, workloads = _load("run"), _load("workloads")
    assert set(PERFBENCH_PASS) == set(workloads.WORKLOADS)
    wl = workloads.WORKLOADS[workload](301)
    state = wl.setup()
    result = run.Pass(wl.corpus_size)
    for j in range(wl.corpus_size):
        result.add(j, wl.op(state, j))
    assert wl.finish(state) is None
    assert (result.digest(), result.sim_counts()) == PERFBENCH_PASS[workload]
