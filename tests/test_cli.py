import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cesaro import audit as audit_mod
from cesaro import cli
from cesaro import construct as construct_mod
from cesaro.cli import check_config_keys, growth_from_config, load_config, main
from cesaro.construct import replay_trace
from cesaro.space import Space

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

THM42_CFG = {
    "schema": 1,
    "space": {"dimension": 1, "seminorm_weights": ["1"]},
    "ground_set": {"kind": "lattice", "scale": "1"},
    "index_set": {"kind": "all"},
    "epsilon": "1/4",
    "k": 1,
    "targets": [["1/2"]],
    "budgets": {"kernel_k_max": 6, "kernel_n_max": 400, "term_cap": 1000000},
    "seed": 0,
}


LEMMA33_CFG = {
    "schema": 1,
    "space": {"dimension": 1},
    "ground_set": {"kind": "lattice", "scale": "1"},
    "epsilon": "1/10",
    "k": 2,
    "witness": {"atoms": [["1/2", ["0"]], ["1/2", ["1"]]]},
}

PLAN_CFG = {
    "schema": 1,
    "space": {"dimension": 1},
    "ground_set": {"kind": "lattice", "scale": "1"},
    "index_set": {"kind": "all"},
    "plan": [{"targets": [["1"]]}],
    "budgets": {"term_cap": 1000000},
}

DENSE_CFG = {
    "schema": 1,
    "space": {"dimension": 1},
    "ground_set": {"kind": "lattice", "scale": "10"},
    "dense": {
        "enumeration": [[f"{j}/10"] for j in range(8)],
        "growth": {"kind": "power", "base": 4},
        "terms": 400,
        "ks": [1, 2],
        "target_count": 3,
    },
}


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def construct_trace(tmp_path, mode, cfg):
    out_dir = tmp_path / "run"
    assert main(["construct", "--mode", mode, "--config", str(cfg),
                 "--out-dir", str(out_dir)]) == 0
    return json.loads((out_dir / "trace.json").read_text())


def test_kernel_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(["kernel", "--k", "2", "--n", "3", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "1,1"
    assert lines[1] == "2,3/4,1/4"
    assert lines[2] == "3,11/18,5/18,1/9"


def test_kernel_row2_of_t1(tmp_path):
    out = tmp_path / "rows.csv"
    assert main(["kernel", "--k", "1", "--n", "2", "--out", str(out)]) == 0
    assert out.read_text() == "1,1\n2,1/2,1/2\n"


def test_kernel_json_roundtrip(tmp_path):
    out = tmp_path / "rows.json"
    assert main(["kernel", "--k", "2", "--n", "4", "--format", "json",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["k"] == 2
    assert payload["rows"]["3"] == ["11/18", "5/18", "1/9"]


@pytest.mark.parametrize("argv, digest", [
    (["--k", "3", "--n", "40"],
     "ac9961c4903005132e8922ae0c933e720ebee15c0d5d265dd6115602e5574629"),
    (["--k", "5", "--n", "60", "--format", "json"],
     "8aa368ad2ffb5e44f597fdf25dcd05c20c6d96e1d660d39bac2cb8e69abd9864"),
])
def test_kernel_output_bytes_pinned(monkeypatch, capsys, argv, digest):
    # digests recorded from the column-sum recurrence
    # T^k_(n,m) = (1/n) sum_{i=m..n} T^(k-1)_(i,m), which shares no code with
    # the symmetric-polynomial sweep that builds the rows
    monkeypatch.delenv("CESARO_CACHE_BUDGET", raising=False)
    assert main(["kernel", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_dense_output_bytes_pinned(tmp_path):
    # digest of density.json from the per-index running minimum (one push and
    # one exact metric per index), before the search over monotone pieces
    config = Path(__file__).resolve().parents[1] / "configs" / "dense.json"
    assert main(["construct", "--mode", "dense", "--config", str(config),
                 "--out-dir", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "density.json").read_bytes()).hexdigest()
    assert digest == "a4d0aec07c0aaabc57d048707024640682fab4cf71909b32ce18a803fa94ea35"


@pytest.mark.parametrize("mode, config, trace_digest, csv_digest", [
    ("thm42", "simultaneous.json",
     "b732f917b74eb00ebc88f8140573b068ca5c916567aed982be5524953e96f9e0",
     "5aa190075a454f4bf9f2bbaee8ee67aff413ea4db32f16aef17529a4ddb061d3"),
    ("lemma33", "single-target.json",
     "4753e2dd2afdb22f8844a8470270af0834ed93986ce45a36338f9330632cbfa8",
     "d936c7e6a384c61064ca9fe1ebbc0a7e47beecbf61c9acc22e8ec88c7e2bffc6"),
    ("thm41", "plan.json",
     "9e86e51ab71bb5512ba3f469f21dd05eaf2232eb94da11896387db00faa1bd58",
     "528b4fd0fa695ae13f8888c1c99e2aa4640f714d44341ffc782acd9037b8dfbf"),
])
def test_construct_output_bytes_pinned(tmp_path, monkeypatch, mode, config,
                                       trace_digest, csv_digest):
    # digests recorded while lemma33 and thm42 still serialized their final
    # distances each with its own code
    monkeypatch.delenv("CESARO_CACHE_BUDGET", raising=False)
    assert main(["construct", "--mode", mode, "--config", str(CONFIGS / config),
                 "--out-dir", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "trace.json").read_bytes()).hexdigest() == trace_digest
    assert hashlib.sha256((tmp_path / "trajectory.csv").read_bytes()).hexdigest() == csv_digest


def test_kernel_budget_exit(monkeypatch, capsys):
    monkeypatch.setenv("CESARO_CACHE_BUDGET", "2,50")
    assert main(["kernel", "--k", "3", "--n", "10"]) == 2


def test_audit_cli(tmp_path):
    out = tmp_path / "report.json"
    code = main(["audit", "--suite", "prop412", "--samples", "40",
                 "--n-max", "30", "--seed", "7", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["failed"] == 0
    assert "wall_time_ms" not in payload


@pytest.mark.parametrize("argv", [
    ["--suite", "kernel", "--k-max", "2", "--n-max", "12"],
    ["--suite", "oracle", "--samples", "20", "--seed", "5"],
], ids=["kernel", "oracle"])
def test_audit_suites_pass(tmp_path, capsys, argv):
    out = tmp_path / "report.json"
    assert main(["audit", *argv, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["checked"] == payload["passed"] > 0
    assert "counterexample:" not in capsys.readouterr().out


def test_audit_failure_exits_3(monkeypatch, capsys):
    # an oracle that disagrees with the kernel rows makes every instance a counterexample
    original = audit_mod.apply_iterate_oracle
    monkeypatch.setattr(audit_mod, "apply_iterate_oracle",
                        lambda *args: tuple(c + 1 for c in original(*args)))
    assert main(["audit", "--suite", "oracle", "--samples", "3", "--seed", "5"]) == 3
    out = capsys.readouterr().out
    assert "suite=oracle checked=3 passed=0 failed=3" in out
    assert out.count("  counterexample: {'check': 'oracle'") == 3


def test_certification_failure_exits_4(tmp_path, monkeypatch, capsys):
    # a final distance record that misses epsilon is a bug, not a bad config
    original = construct_mod._distance_record
    monkeypatch.setattr(construct_mod, "_distance_record",
                        lambda *args: {**original(*args), "metric": "1"})
    cfg = write_cfg(tmp_path, LEMMA33_CFG)
    assert main(["construct", "--mode", "lemma33", "--config", cfg,
                 "--out-dir", str(tmp_path / "run")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("certification failure (bug): final metric distance for level 2")
    assert not (tmp_path / "run" / "trace.json").exists()


def test_audit_unknown_suite():
    assert main(["audit", "--suite", "nonsense"]) == 1


def test_audit_determinism(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        assert main(["audit", "--suite", "abel", "--samples", "30",
                     "--seed", "3", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_construct_simultaneous_mode(tmp_path, capsys):
    cfg = write_cfg(tmp_path, THM42_CFG)
    out_dir = tmp_path / "run"
    assert main(["construct", "--mode", "thm42", "--config", cfg,
                 "--out-dir", str(out_dir)]) == 0
    trace = json.loads((out_dir / "trace.json").read_text())
    assert trace["kind"] == "thm42"
    assert trace["final_index"] == trace["m"]
    csv_lines = (out_dir / "trajectory.csv").read_text().splitlines()
    assert csv_lines[0].startswith("n,k,coord_1,coord_1_dec")
    assert len(csv_lines) == 2
    captured = capsys.readouterr()
    assert "replay matches recorded distances: True" in captured.out


def test_construct_simultaneous_mode_determinism(tmp_path):
    cfg = write_cfg(tmp_path, THM42_CFG)
    for d in ("a", "b"):
        assert main(["construct", "--mode", "thm42", "--config", cfg,
                     "--out-dir", str(tmp_path / d)]) == 0
    assert (tmp_path / "a/trace.json").read_bytes() == (tmp_path / "b/trace.json").read_bytes()
    assert (tmp_path / "a/trajectory.csv").read_bytes() == (tmp_path / "b/trajectory.csv").read_bytes()


def test_construct_simultaneous_mode_budget_exit(tmp_path, capsys):
    cfg_payload = dict(THM42_CFG)
    cfg_payload["k"] = 2
    cfg_payload["epsilon"] = "3/10"
    cfg_payload["targets"] = [["0"], ["5"]]
    cfg = write_cfg(tmp_path, cfg_payload)
    code = main(["construct", "--mode", "thm42", "--config", cfg,
                 "--out-dir", str(tmp_path / "run")])
    assert code == 2
    captured = capsys.readouterr()
    assert "m0=" in captured.err


def test_trace_file_replays(tmp_path):
    trace = construct_trace(tmp_path, "thm42", write_cfg(tmp_path, THM42_CFG))
    replay = replay_trace(trace, Space(1))
    assert replay["matches"]
    assert replay["distances"] == [d["metric"] for d in trace["distances"]]


def test_lemma33_trace_replays(tmp_path):
    trace = construct_trace(tmp_path, "lemma33", CONFIGS / "single-target.json")
    assert replay_trace(trace, Space(1))["matches"]


@pytest.mark.parametrize("field", ["value", "seminorms"])
def test_replay_compares_whole_records(tmp_path, field):
    trace = construct_trace(tmp_path, "thm42", write_cfg(tmp_path, THM42_CFG))
    trace["distances"][0][field][0] = "7"  # the recorded metric is left as it was
    replay = replay_trace(trace, Space(1))
    assert replay["distances"] == [d["metric"] for d in trace["distances"]]
    assert not replay["matches"]


def test_construct_single_target_mode(tmp_path):
    cfg = write_cfg(tmp_path, LEMMA33_CFG)
    out_dir = tmp_path / "run"
    assert main(["construct", "--mode", "lemma33", "--config", cfg,
                 "--out-dir", str(out_dir)]) == 0
    trace = json.loads((out_dir / "trace.json").read_text())
    assert trace["kind"] == "lemma33"
    assert trace["n0"] == trace["final_index"]


def test_construct_plan_mode(tmp_path):
    cfg = write_cfg(tmp_path, PLAN_CFG)
    out_dir = tmp_path / "run"
    assert main(["construct", "--mode", "thm41", "--config", cfg,
                 "--out-dir", str(out_dir)]) == 0
    payload = json.loads((out_dir / "trace.json").read_text())
    assert payload["kind"] == "thm41"
    assert len(payload["schedule"]) == 1


def test_construct_dense(tmp_path, capsys):
    cfg = write_cfg(tmp_path, DENSE_CFG)
    out_dir = tmp_path / "run"
    assert main(["construct", "--mode", "dense", "--config", cfg,
                 "--out-dir", str(out_dir)]) == 0
    payload = json.loads((out_dir / "density.json").read_text())
    assert payload["kind"] == "dense"
    assert "not a density proof" in payload["note"]
    assert payload["table"]
    captured = capsys.readouterr()
    assert "empirical audit" in captured.out


@pytest.mark.parametrize("growth, code", [
    ({"kind": "power", "base": 2}, 0),
    ({"kind": "linear"}, 0),
    ({"kind": "constant", "value": 3}, 0),
    ({"kind": "tower"}, 1),
    ({"kind": "exponential"}, 1),
])
def test_dense_growth_kinds(tmp_path, growth, code):
    if code:
        with pytest.raises(ValueError):
            growth_from_config(growth)
    else:
        assert growth_from_config(growth)(3) >= 1
    cfg = write_cfg(tmp_path, {
        "schema": 1,
        "space": {"dimension": 1},
        "dense": {"enumeration": [["0"], ["1"], ["-1"]], "growth": growth,
                  "terms": 20, "ks": [1]},
    })
    assert main(["construct", "--mode", "dense", "--config", cfg,
                 "--out-dir", str(tmp_path / "run")]) == code


def test_thm42_k_must_match_targets(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {**THM42_CFG, "k": 2})
    assert main(["construct", "--mode", "thm42", "--config", cfg,
                 "--out-dir", str(tmp_path / "run")]) == 1
    assert "k=2" in capsys.readouterr().err
    assert not (tmp_path / "run" / "trace.json").exists()


@pytest.mark.parametrize("mode, payload", [
    ("thm42", {**THM42_CFG, "epsilom": "1/4"}),
    ("thm42", {**THM42_CFG, "plan": []}),
    ("dense", {"schema": 1, "space": {"dimension": 1}, "targets": [["0"]],
               "dense": {"enumeration": [["0"], ["1"]], "terms": 5, "ks": [1]}}),
])
def test_unknown_config_key_exits_1(tmp_path, capsys, mode, payload):
    cfg = write_cfg(tmp_path, payload)
    assert main(["construct", "--mode", mode, "--config", cfg,
                 "--out-dir", str(tmp_path / "run")]) == 1
    assert "unknown config keys" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


class ReadKeys(dict):
    """A config that records which of its top-level keys are read."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


@pytest.mark.parametrize("mode, payload", [
    ("thm42", THM42_CFG), ("lemma33", LEMMA33_CFG), ("thm41", PLAN_CFG), ("dense", DENSE_CFG),
])
def test_mode_keys_are_the_keys_read(tmp_path, monkeypatch, mode, payload):
    seen = []

    def recording_load(path):
        seen.append(ReadKeys(load_config(path)))
        return seen[-1]

    monkeypatch.setattr(cli, "load_config", recording_load)
    cfg = write_cfg(tmp_path, payload)
    assert main(["construct", "--mode", mode, "--config", cfg,
                 "--out-dir", str(tmp_path / "run")]) == 0
    assert seen[0].read - cli._SHARED_KEYS == cli._MODES[mode][0]


def test_shipped_configs_pass_key_check():
    configs = Path(__file__).resolve().parents[1] / "configs"
    modes = {"simultaneous.json": "thm42", "simultaneous-two-level.json": "thm42",
             "single-target.json": "lemma33", "plan.json": "thm41", "dense.json": "dense"}
    assert sorted(p.name for p in configs.glob("*.json")) == sorted(modes)
    for name, mode in modes.items():
        check_config_keys(load_config(configs / name), mode)


@pytest.mark.parametrize("mode, payload, message", [
    ("thm42", [THM42_CFG], "config must be a JSON object"),
    ("thm42", {**THM42_CFG, "ground_set": {"kind": "latice", "scale": "1"}},
     "unknown ground set kind 'latice'"),
    ("thm42", {**THM42_CFG, "index_set": {"kind": "al"}}, "unknown index set kind 'al'"),
    ("thm42", {**THM42_CFG, "budgets": []}, "'budgets' must be an object"),
    ("dense", {**DENSE_CFG, "dense": {**DENSE_CFG["dense"], "growth": "power"}},
     "growth must be an object"),
    ("dense", {**DENSE_CFG, "dense": {**DENSE_CFG["dense"], "terms": 0}},
     "a prefix needs at least one term, got 0"),
    ("dense", {**DENSE_CFG, "dense": {**DENSE_CFG["dense"], "target_count": -2}},
     "'target_count' must be in 1..8, got -2"),
    ("dense", {**DENSE_CFG, "dense": {**DENSE_CFG["dense"], "target_count": 9}},
     "'target_count' must be in 1..8, got 9"),
    ("thm42", {**THM42_CFG, "ground_set": {"kind": "explicit", "points": []}},
     "explicit ground set needs points"),
    ("thm42", {**THM42_CFG, "ground_set": {"kind": "explicit"}},
     "config key 'points' is missing"),
    ("thm41", {**PLAN_CFG, "plan": []}, "need at least one plan entry"),
    ("lemma33", {key: v for key, v in LEMMA33_CFG.items() if key != "epsilon"},
     "config key 'epsilon' is missing"),
], ids=["array", "ground-kind-typo", "index-kind-typo", "budgets-array", "growth-string",
        "dense-no-terms", "target-count-negative", "target-count-past-enumeration",
        "explicit-no-points", "explicit-points-missing", "plan-empty", "epsilon-missing"])
def test_config_shape_errors_exit_1(tmp_path, capsys, mode, payload, message):
    cfg = write_cfg(tmp_path, payload)
    assert main(["construct", "--mode", mode, "--config", cfg,
                 "--out-dir", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "run" / "trace.json").exists()


@pytest.mark.parametrize("mode, payload, message", [
    ("thm42", {**THM42_CFG, "epsilon": 0.25}, "'epsilon': refusing to coerce float 0.25"),
    ("thm42", {**THM42_CFG, "targets": [1]}, "'targets' must be a list, got 1"),
    ("lemma33", {**LEMMA33_CFG, "witness": {"atoms": [[0.5, ["0"]], ["1/2", ["1"]]]}},
     "'atoms': refusing to coerce float 0.5"),
    ("thm41", {**PLAN_CFG, "plan": [[["1"]]]}, "'plan' must be an object"),
    ("thm42", {**THM42_CFG, "budgets": {"term_cap": [10]}},
     "'term_cap' must be an integer, got [10]"),
    ("dense", {**DENSE_CFG, "dense": {**DENSE_CFG["dense"], "terms": 300.9}},
     "'terms': refusing to coerce float 300.9"),
    ("dense", {**DENSE_CFG, "dense": {**DENSE_CFG["dense"], "ks": [1, True]}},
     "'ks': refusing to coerce bool True"),
    ("dense", {**DENSE_CFG, "dense": {**DENSE_CFG["dense"], "terms": "300.9"}},
     "'terms' must be an integer, got '300.9'"),
    ("thm42", {**THM42_CFG, "budgets": {"term_cap": 0}},
     "'term_cap' must be at least 1, got 0"),
    ("lemma33", {**LEMMA33_CFG, "budgets": {"term_cap": -3}},
     "'term_cap' must be at least 1, got -3"),
    ("lemma33", {**LEMMA33_CFG, "witness": {"atoms": [["1/2"]]}},
     "'atoms': an atom must be a [weight, point] pair, got ['1/2']"),
], ids=["epsilon-float", "target-not-a-list", "atom-weight-float", "plan-entry-array",
        "term-cap-array", "terms-float", "ks-bool", "terms-decimal-string", "term-cap-zero",
        "term-cap-negative", "atom-not-a-pair"])
def test_config_type_errors_exit_1(tmp_path, capsys, mode, payload, message):
    cfg = write_cfg(tmp_path, payload)
    assert main(["construct", "--mode", mode, "--config", cfg,
                 "--out-dir", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config key ") and message in err
    assert not (tmp_path / "run" / "trace.json").exists()


def test_bad_config_schema(tmp_path):
    cfg = write_cfg(tmp_path, {"schema": 99})
    assert main(["construct", "--mode", "thm42", "--config", cfg]) == 1


def test_missing_config_file():
    assert main(["construct", "--mode", "thm42", "--config", "/nope/missing.json"]) == 1


def test_console_script_runs():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "cesaro.cli", "kernel", "--k", "1", "--n", "3"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[2] == "3,1/3,1/3,1/3"
