"""The benchmark's own tests: the generator and ground truth are right, and
each checker rejects a wrong result.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import truth  # noqa: E402
import qent.cli as cli  # noqa: E402
from qent import iter_gates, parse_circuit  # noqa: E402


def _case(tmp_path, grid, name="c", truths=None, pitfall=False):
    return run.write_case(str(tmp_path), name, grid, truths, pitfall)


def _out(argv):
    rc, out, _ = run.run_cli(cli, argv)
    return rc, out


@pytest.fixture
def tiled_case(tmp_path):
    return _case(tmp_path, gen.tiled_grid(7, 24, 80, 0.08, 0.02, 80))


@pytest.fixture
def pitfall_case(tmp_path):
    return _case(tmp_path, gen.oracle_circuit(3, "pitfall", 9, 30), "pit", pitfall=True)


def test_generator_text_matches_its_gate_list(tiled_case):
    with open(tiled_case.path, encoding="utf-8") as fh:
        tree = parse_circuit(fh.read())
    assert [(g.kind.value, q) for g, q in iter_gates(tree)] == tiled_case.gates
    assert tree.height == tiled_case.wires


def test_groups_end_with_non_trivial_results(tmp_path):
    grid = gen.tiled_grid(1, 200, 100, 0.05, 0.02, 100)
    truths = truth.grid_truth(grid)
    assert sum(len(t.blocks) > 1 for t in truths) > len(truths) / 2
    assert sum(len(t.levels) > 0 for t in truths) > 0


def test_ghz_construction_matches_simulation():
    for width in (3, 9, 12):
        grid = gen.oracle_circuit(width, "ghz", width, 30)
        [sim] = truth.grid_truth(grid)
        built = truth.ghz_truth(width)
        assert (sim.blocks, sim.levels, sim.basis) == (built.blocks, built.levels, built.basis)


def test_truth_of_known_states():
    bell = truth.simulate(2, [("H", 0), ("CX", 0)])
    assert truth.finest_blocks(bell) == [[0, 1]]
    assert truth.level_pairs(bell) == {(0, 1)}
    plus_one = truth.simulate(2, [("H", 0), ("X", 1)])
    assert truth.finest_blocks(plus_one) == [[0], [1]]
    assert [truth.basis_class(plus_one, q) for q in (0, 1)] == ["d", "s"]
    assert truth.basis_class(truth.simulate(1, [("H", 0), ("T", 0)]), 0) == "top"


def test_analyze_accepts_correct_output(tiled_case):
    assert checks.check_analyze(tiled_case, "levels", *_out(
        ["analyze", tiled_case.path, "--format", "json"])) is None


def test_analyze_rejects_unsafe_result_on_pitfall(pitfall_case):
    rc, out = _out(["analyze", pitfall_case.path, "--mode", "unsafe-leveling", "--format", "json"])
    doc = json.loads(out)
    doc["mode"] = "levels"
    problem = checks.check_analyze(pitfall_case, "levels", rc, json.dumps(doc))
    assert problem and "guarantee broken" in problem


def test_analyze_rejects_wrong_label_and_crossing_block(tiled_case):
    rc, out = _out(["analyze", tiled_case.path, "--format", "json"])
    doc = json.loads(out)
    top = doc["labels"].index("top")
    doc["labels"][top] = "s"
    assert "label" in checks.check_analyze(tiled_case, "levels", rc, json.dumps(doc))
    doc = json.loads(out)
    doc["separability"] = [list(range(tiled_case.wires))]
    assert "crosses" in checks.check_analyze(tiled_case, "levels", rc, json.dumps(doc))


def _compare_case(case):
    for mode in ("levels", "no-levels"):
        rc, out = _out(["analyze", case.path, "--mode", mode, "--format", "json"])
        assert checks.check_analyze(case, mode, rc, out) is None
    return _out(["compare", case.path])


def test_compare_rejects_a_missing_pair(tmp_path):
    # dense compute-uncompute motifs, so levels mode is more precise somewhere
    for seed in range(20):
        case = _case(tmp_path, gen.tiled_grid(seed, 24, 40, 0.15, 0.0, 40), f"c{seed}")
        rc, out = _compare_case(case)
        assert checks.check_compare(case, rc, out) is None
        lines = out.splitlines()
        if lines[3] != "more precise on: (none)":
            break
    else:
        pytest.fail("no generated circuit where levels is more precise")
    pairs = lines[3].split()
    lines[3] = " ".join(pairs[:-1]) if len(pairs) > 4 else "more precise on: (none)"
    assert "differ" in checks.check_compare(case, rc, "\n".join(lines) + "\n")


def test_compare_rejects_a_wrong_state_line(tiled_case):
    rc, out = _compare_case(tiled_case)
    lines = out.splitlines()
    lines[1] = lines[1].replace("top", "s", 1)
    assert checks.check_compare(tiled_case, rc, "\n".join(lines) + "\n")


def test_trace_json_rejects_a_dropped_step(tiled_case):
    rc, out = _out(["analyze", tiled_case.path, "--trace", "--format", "json"])
    assert checks.check_trace_json(tiled_case, rc, out) is None
    doc = json.loads(out)
    del doc["trace"][len(doc["trace"]) // 2]
    assert "trace steps" in checks.check_trace_json(tiled_case, rc, json.dumps(doc))
    doc = json.loads(out)
    doc["trace"][3]["index"] += 1
    assert "generator wrote" in checks.check_trace_json(tiled_case, rc, json.dumps(doc))


def test_trace_text_rejects_a_dropped_step(tiled_case):
    rc, out = _out(["analyze", tiled_case.path, "--trace"])
    assert checks.check_trace_text(tiled_case, rc, out) is None
    lines = out.splitlines()
    del lines[-1]
    assert checks.check_trace_text(tiled_case, rc, "\n".join(lines) + "\n")


def test_oracle_accepts_sound_modes_and_catches_pitfall(pitfall_case):
    for mode in ("levels", "no-levels", "unsafe-leveling"):
        rc, out = _out(["analyze", pitfall_case.path, "--check-oracle", "--format", "json", "--mode", mode])
        assert checks.check_oracle(pitfall_case, mode, rc, out) is None
        assert rc == (3 if mode == "unsafe-leveling" else 0)


def test_oracle_rejects_a_hidden_violation(pitfall_case):
    argv = ["analyze", pitfall_case.path, "--check-oracle", "--format", "json", "--mode", "unsafe-leveling"]
    rc, out = _out(argv)
    doc = json.loads(out)
    doc["soundness"]["violations"] = doc["soundness"]["violations"][1:]
    assert "ground truth" in checks.check_oracle(pitfall_case, "unsafe-leveling", rc, json.dumps(doc))
    doc = json.loads(out)
    doc["soundness"] = {"entanglement_ok": True, "level_ok": True, "label_ok": True, "violations": []}
    assert checks.check_oracle(pitfall_case, "unsafe-leveling", 0, json.dumps(doc))
