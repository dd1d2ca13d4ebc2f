import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bperc
from bperc.cli import main
from bperc.geometry import Direction, NeighbourhoodSpec, build_neighbourhood
from bperc.quasidroplets import ExtensionParams, QuasiDroplet
from bperc.scenarios import corpus_dir
from test_quasidroplets import bar_steps, edge_walk_droplet, reference_count


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_usage_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "closure", "--model", "square", "--box", "4")
    assert code == 2 and "no initial set" in err


def test_module_runs_the_cli():
    # `python -m bperc` from a checkout, with only the sources on the path
    env = dict(os.environ, PYTHONPATH=str(Path(bperc.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-m", "bperc", "--version"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout.strip()) == (0, f"bperc {bperc.__version__}")


def test_unknown_model_exits_2(capsys):
    code, _, err = run_cli(capsys, "threshold", "--model", "hexagonal")
    assert code == 2 and "hexagonal" in err


def test_missing_domain_exits_2(capsys):
    code, _, err = run_cli(capsys, "closure", "--model", "square",
                           "--infected", "(0,0)")
    assert code == 2 and "no domain" in err


def test_zero_torus_is_not_a_missing_domain(capsys):
    code, _, err = run_cli(capsys, "closure", "--model", "square", "--torus", "0",
                           "--infected", "(0,0)")
    assert code == 2 and "torus side must be positive" in err


@pytest.mark.parametrize("argv", [
    ["closure", "--model", "square", "--box", "2", "--infected-file", "{dir}"],
    ["closure", "--model", "square", "--box", "2", "--infected", "(0,0)", "--out", "{dir}"],
    ["tau", "--model", "square", "--n", "8", "--seed", "1", "--out", "{dir}"],
    ["sweep", "--models", "square", "--ns", "8", "--seeds", "1", "--out", "{dir}"],
    ["sweep", "--models", "square", "--ns", "8", "--seeds", "1", "--records-out", "{dir}"],
], ids=["closure-infected-file", "closure-out", "tau-out", "sweep-out", "sweep-records-out"])
def test_unusable_path_exits_2(capsys, tmp_path, argv):
    # a directory where a file is expected: an OSError other than a missing file
    code, out, err = run_cli(capsys, *[a.format(dir=tmp_path) for a in argv])
    assert code == 2 and not out
    assert err.startswith("error: ") and "Is a directory" in err


def test_bad_site_list_exits_2(capsys):
    code, _, err = run_cli(capsys, "closure", "--model", "square", "--box", "4",
                           "--infected", "0 0 junk")
    assert code == 2


def test_success_exits_0(capsys):
    code, out, _ = run_cli(capsys, "quasi", "--s", "1")
    assert code == 0
    assert json.loads(out)["count"] == 8


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------


def test_closure_grid_output(capsys):
    code, out, _ = run_cli(capsys, "closure", "--model", "square", "--box", "2",
                           "--infected", "(0,0),(1,1)", "--format", "grid")
    assert code == 0
    assert "# infected=4" in out


def test_closure_json_with_times(capsys):
    code, out, _ = run_cli(capsys, "closure", "--model", "square", "--box", "2",
                           "--infected", "(0,0),(1,1)", "--format", "json",
                           "--times")
    assert code == 0
    obj = json.loads(out)
    assert obj["size"] == 4 and obj["generations"] == 1
    times = {tuple(s): t for s, t in obj["times"]}
    assert times[(0, 1)] == 1 and times[(0, 0)] == 0
    assert obj["config"]["model"] == "square"  # run config is echoed back


def test_closure_from_grid_file(capsys, tmp_path):
    p = tmp_path / "seeds.txt"
    p.write_text("#.\n.#\n")
    code, out, _ = run_cli(capsys, "closure", "--model", "square",
                           "--rect", "0,0,4,4", "--infected-file", str(p),
                           "--format", "json")
    assert code == 0 and json.loads(out)["size"] == 4


# ---------------------------------------------------------------------------
# threshold
# ---------------------------------------------------------------------------


def test_threshold_square4(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--model", "square4")
    obj = json.loads(out)
    assert code == 0
    assert obj["threshold"] == 17 and obj["offset_count"] == 41
    assert sorted(obj["stable_directions"]) == [[-1, 0], [0, -1], [0, 1], [1, 0]]


def test_threshold_lp_ball(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--lp", "2", "--s", "8")
    obj = json.loads(out)
    assert code == 0
    assert 32 <= obj["threshold"] <= 128  # within [s^2/2, 2 s^2]


def test_threshold_explicit_offsets(capsys):
    code, out, _ = run_cli(capsys, "threshold",
                           "--offsets", "(1,0),(0,1),(-1,0),(0,-1)",
                           "--threshold", "2")
    assert code == 0 and json.loads(out)["threshold"] == 2


# ---------------------------------------------------------------------------
# tau / sweep
# ---------------------------------------------------------------------------


def test_tau_csv_header_and_determinism(capsys):
    argv = ("tau", "--model", "square", "--n", "16", "--seed", "1", "2")
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out2, _ = run_cli(capsys, *argv)
    lines1, lines2 = out1.splitlines(), out2.splitlines()
    assert lines1[0].startswith("schema_version,model,n,seed,tau,closure_before")
    assert len(lines1) == 3
    for a, b in zip(lines1[1:], lines2[1:]):
        # identical rows apart from the wall-clock column
        assert a.rsplit(",", 1)[0] == b.rsplit(",", 1)[0]


def test_tau_too_small_torus_exits_2(capsys):
    code, out, err = run_cli(capsys, "tau", "--model", "square4", "--n", "8", "--seed", "1")
    assert code == 2 and not out
    assert "torus side 8 too small" in err and "need n >= 9" in err


def test_tau_audit_passes(capsys):
    code, out, _ = run_cli(capsys, "tau", "--model", "square", "--n", "8",
                           "--seed", "7", "--audit", "--format", "jsonl")
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["tau"] <= 64


def test_sweep_summary_and_records(capsys, tmp_path):
    rec_path = tmp_path / "runs.csv"
    code, out, _ = run_cli(capsys, "sweep", "--models", "square", "--ns", "16",
                           "--seeds", "4", "--master-seed", "9",
                           "--parallelism", "2", "--records-out", str(rec_path))
    assert code == 0
    obj = json.loads(out)
    assert obj["runs"] == 4
    group = obj["summary"]["groups"][0]
    assert group["model"] == "square" and group["n"] == 16
    assert len(rec_path.read_text().splitlines()) == 5


@pytest.mark.parametrize("value", ["-1", "18446744073709551616"])
def test_tau_seed_outside_64_bits_exits_2(capsys, value):
    code, out, err = run_cli(capsys, "tau", "--model", "square", "--n", "8", "--seed", value)
    assert code == 2 and not out
    assert f"error: seed must be an integer in [0, 2^64), got {value}" in err


@pytest.mark.parametrize("value", ["-5", "18446744073709551616"])
def test_sweep_master_seed_outside_64_bits_exits_2(capsys, value):
    code, out, err = run_cli(capsys, "sweep", "--models", "square", "--ns", "8",
                             "--seeds", "2", "--master-seed", value)
    assert code == 2 and not out
    assert f"error: master_seed must be an integer in [0, 2^64), got {value}" in err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_sweep_bad_parallelism_exits_2(capsys, value):
    code, _, err = run_cli(capsys, "sweep", "--models", "square", "--ns", "16",
                           "--seeds", "2", "--parallelism", value)
    assert code == 2
    assert f"error: parallelism must be a positive integer, got {value}" in err


def test_sweep_deterministic_across_parallelism(capsys, tmp_path):
    # square and diamond take the scalar path, square4 the batched one
    outs, rows = [], []
    for par in ("1", "2", "4"):
        csv_path = tmp_path / f"runs{par}.csv"
        _, out, _ = run_cli(capsys, "sweep", "--models", "square,square4,diamond",
                            "--ns", "16", "--seeds", "4", "--master-seed", "2",
                            "--parallelism", par, "--records-out", str(csv_path))
        outs.append(json.loads(out)["summary"])
        # every column but wall_ms, the last
        rows.append([line.rsplit(",", 1)[0] for line in csv_path.read_text().splitlines()])
    assert outs[0] == outs[1] == outs[2]
    assert rows[0] == rows[1] == rows[2] and len(rows[0]) == 13


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_corpus_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", str(corpus_dir()))
    assert code == 0
    assert "FAIL" not in out and out.count("PASS") >= 6


def test_verify_failing_scenario_exits_1(capsys, tmp_path):
    bad = {
        "schema_version": 1,
        "name": "single-site-cannot-fill",
        "domain": {"kind": "box", "d": 2},
        "neighbourhood": {"kind": "named", "name": "square"},
        "infected": [[0, 0]],
        "assertions": [{"type": "closure_equals_domain"}],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    code, out, _ = run_cli(capsys, "verify", str(p))
    assert code == 1 and "FAIL" in out


def test_verify_missing_assertion_field_is_a_load_error(capsys, tmp_path):
    bad = {
        "schema_version": 1,
        "name": "size-without-size",
        "domain": {"kind": "box", "d": 2},
        "neighbourhood": {"kind": "named", "name": "square"},
        "assertions": [{"type": "closure_size"}],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    code, out, _ = run_cli(capsys, "verify", str(p))
    assert code == 1
    assert out == (f"LOAD-ERROR {p}: schema violation at assertions/0: "
                   "'size' is a required property\n")


def test_verify_unreadable_file_counts_as_failure(capsys, tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{")
    code, out, _ = run_cli(capsys, "verify", str(p))
    assert code == 1 and "LOAD-ERROR" in out
    # a file that is not UTF-8 is a load error naming the file, and the
    # files after it still run
    undecodable = tmp_path / "bad.json"
    undecodable.write_bytes(b"\xff\xfe")
    good = corpus_dir().joinpath("square_pair_fill.json")
    code, out, err = run_cli(capsys, "verify", str(undecodable), str(good))
    lines = out.splitlines()
    assert code == 1 and err == ""
    assert lines[0].startswith(f"LOAD-ERROR {undecodable}: not UTF-8 text")
    assert lines[1:] and all(line.startswith("PASS ") for line in lines[1:])


def test_verify_missing_file_is_a_load_error_and_the_rest_run(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    good = corpus_dir().joinpath("square_pair_fill.json")
    code, out, err = run_cli(capsys, "verify", str(missing), str(good))
    lines = out.splitlines()
    assert code == 1 and err == ""
    assert lines[0] == f"LOAD-ERROR {missing}: cannot read: No such file or directory"
    assert lines[1:] and all(line.startswith("PASS ") for line in lines[1:])


# ---------------------------------------------------------------------------
# droplets / extend
# ---------------------------------------------------------------------------


def test_droplets_union_matches_closure(capsys):
    code, out, _ = run_cli(capsys, "droplets", "--model", "square",
                           "--infected", "(0,0),(1,1),(8,8)", "--full-union")
    assert code == 0
    obj = json.loads(out)
    union = {tuple(s) for s in obj["union"]}
    assert union == {(0, 0), (0, 1), (1, 0), (1, 1), (8, 8)}
    assert obj["union_size"] == 5


OCTAGON = {"constraints": [[1, 0, 20], [0, 1, 20], [-1, 0, 0], [0, -1, 0],
                           [1, 1, 35], [-1, 1, 15], [-1, -1, -5], [1, -1, 15]]}


def test_extend_trace_output(capsys, tmp_path):
    droplet = tmp_path / "droplet.json"
    droplet.write_text(json.dumps(OCTAGON))
    aprime = tmp_path / "aprime.json"
    aprime.write_text("[]")
    code, out, _ = run_cli(capsys, "extend", "--model", "square",
                           "--droplet", str(droplet), "--a-prime", str(aprime),
                           "--big-c", "27", "--stop-bound", "200")
    assert code == 0
    lines = out.strip().splitlines()
    assert json.loads(lines[-1])["status"] in ("stalled", "exited", "step_limit")
    counts = [json.loads(l)["lattice_points"] for l in lines[:-1]]
    assert counts == sorted(counts)


@pytest.mark.parametrize("droplet, a_prime, message", [
    ({}, [], "no 'constraints' list"),
    ({"constraints": [[1, 0]]}, [], "'constraints[0]' is not an integer triple"),
    (OCTAGON, {"x": 1}, "--a-prime is not a JSON list of [x, y] integer pairs"),
    (OCTAGON, [[21, 0, 1]], "--a-prime is not a JSON list of [x, y] integer pairs"),
    (OCTAGON, [[21, 0.5]], "--a-prime is not a JSON list of [x, y] integer pairs"),
], ids=["no-constraints", "short-constraint", "a-prime-object", "a-prime-triple",
        "a-prime-float"])
def test_extend_bad_input_exits_2(capsys, tmp_path, droplet, a_prime, message):
    droplet_path, a_prime_path = tmp_path / "droplet.json", tmp_path / "aprime.json"
    droplet_path.write_text(json.dumps(droplet))
    a_prime_path.write_text(json.dumps(a_prime))
    code, out, err = run_cli(capsys, "extend", "--model", "square",
                             "--droplet", str(droplet_path), "--a-prime", str(a_prime_path),
                             "--big-c", "27", "--stop-bound", "200")
    assert code == 2 and not out
    assert err.startswith("error: ") and message in err


def test_extend_counts_match_row_oracle(capsys, tmp_path):
    params = ExtensionParams(build_neighbourhood(NeighbourhoodSpec.lp_ball(2, 4)), 4096)
    steps = bar_steps(4, params)
    steps[Direction(1, 1)] *= 3  # long enough for unstable steps
    steps[Direction(1, 0)] *= 2  # and for a stable one, witnessed past the right face
    qd, _ = edge_walk_droplet(4, steps)
    right = qd.level(Direction(1, 0))
    droplet = tmp_path / "droplet.json"
    droplet.write_text(json.dumps(qd.to_json()))
    aprime = tmp_path / "aprime.json"
    aprime.write_text(json.dumps([[right + 3, y] for y in range(-3, 4)]))
    code, out, _ = run_cli(capsys, "extend", "--lp", "2", "--s", "4",
                           "--droplet", str(droplet), "--a-prime", str(aprime),
                           "--big-c", "4096", "--stop-bound", "1000")
    assert code == 0
    steps = [json.loads(line) for line in out.strip().splitlines()[:-1]]
    assert {"unstable", "stable"} <= {st["kind"] for st in steps}
    for st in steps:
        assert st["lattice_points"] == reference_count(QuasiDroplet.from_json(st["droplet"]))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
