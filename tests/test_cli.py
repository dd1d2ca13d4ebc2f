import json

import pytest

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


def test_unknown_model_exits_2(capsys):
    code, _, err = run_cli(capsys, "threshold", "--model", "hexagonal")
    assert code == 2 and "hexagonal" in err


def test_missing_domain_exits_2(capsys):
    code, _, err = run_cli(capsys, "closure", "--model", "square",
                           "--infected", "(0,0)")
    assert code == 2 and "no domain" in err


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


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_sweep_bad_thread_env_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("BPERC_THREADS", value)
    code, _, err = run_cli(capsys, "sweep", "--models", "square", "--ns", "16",
                           "--seeds", "2")
    assert code == 2
    assert f"BPERC_THREADS must be a positive integer, got {value!r}" in err


def test_bad_thread_env_leaves_other_subcommands_alone(capsys, monkeypatch):
    monkeypatch.setenv("BPERC_THREADS", "abc")
    code, out, _ = run_cli(capsys, "closure", "--model", "square", "--box", "2",
                           "--infected", "(0,0)")
    assert code == 0 and "# infected=1" in out
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0


def test_sweep_deterministic_across_parallelism(capsys):
    outs = []
    for par in ("1", "3"):
        _, out, _ = run_cli(capsys, "sweep", "--models", "square", "--ns", "16",
                            "--seeds", "6", "--master-seed", "2",
                            "--parallelism", par)
        obj = json.loads(out)
        del obj["config"]["parallelism"]
        outs.append(obj["summary"])
    assert outs[0] == outs[1]


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


def test_verify_unreadable_file_counts_as_failure(capsys, tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{")
    code, out, _ = run_cli(capsys, "verify", str(p))
    assert code == 1 and "LOAD-ERROR" in out


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


def test_extend_trace_output(capsys, tmp_path):
    droplet = tmp_path / "droplet.json"
    droplet.write_text(json.dumps({
        "constraints": [[1, 0, 20], [0, 1, 20], [-1, 0, 0], [0, -1, 0],
                        [1, 1, 35], [-1, 1, 15], [-1, -1, -5], [1, -1, 15]],
    }))
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
