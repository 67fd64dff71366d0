"""Command-line interface tests, run in-process against main()."""

from __future__ import annotations

import json

import pytest

from qent.analyzer import AnalysisMode, analyze, analyze_traced
from qent.circuit import parse_circuit
from qent.cli import document_to_state, main, state_to_document
from helpers import state_row


@pytest.fixture
def qc(tmp_path):
    def write(text, name="circuit.qc"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_bell_text(self, qc, capsys):
        code, out, err = run(capsys, ["analyze", qc("H ** I oo CX")])
        assert code == 0
        assert "labels: top top" in out
        assert "separability: {0,1}" in out
        assert "levels: {0,1}" in out
        assert err == ""

    def test_identity(self, qc, capsys):
        code, out, _ = run(capsys, ["analyze", qc("I")])
        assert code == 0
        assert "labels: s" in out
        assert "separability: {0}" in out

    def test_no_levels_alias(self, qc, capsys):
        path = qc("H ** I oo CX oo CX")
        code, out, _ = run(capsys, ["analyze", path, "--no-levels"])
        assert code == 0
        assert "mode: no-levels" in out
        assert "separability: {0,1}" in out
        code, out, _ = run(capsys, ["analyze", path, "--mode", "no-levels"])
        assert "separability: {0,1}" in out

    def test_levels_mode_more_precise(self, qc, capsys):
        code, out, _ = run(capsys, ["analyze", qc("H ** I oo CX oo CX")])
        assert code == 0
        assert "labels: top s" in out
        assert "separability: {0} {1}" in out

    def test_json_document(self, qc, capsys):
        code, out, _ = run(capsys, ["analyze", qc("H ** I oo CX"), "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "qubits": 2,
            "mode": "levels",
            "labels": ["top", "top"],
            "separability": [[0, 1]],
            "levels": [[0, 1]],
        }

    def test_json_round_trips_to_state(self, qc, capsys):
        text = "H ** I ** H oo CX ** T oo SW ** I"
        code, out, _ = run(capsys, ["analyze", qc(text), "--format", "json"])
        doc = json.loads(out)
        rebuilt = document_to_state(doc)
        assert state_row(rebuilt) == state_row(analyze(parse_circuit(text)))

    def test_trace_round_trip(self, qc, capsys):
        text = "H ** I oo CX"
        code, out, _ = run(capsys, ["analyze", qc(text), "--format", "json", "--trace"])
        doc = json.loads(out)
        final, steps = analyze_traced(parse_circuit(text))
        assert len(doc["trace"]) == len(steps)
        for entry, step in zip(doc["trace"], steps):
            assert entry["gate"] == step.gate.value
            assert entry["index"] == step.index
            assert state_row(document_to_state({"qubits": final.n, **entry})) == state_row(step.state)

    def test_trace_text(self, qc, capsys):
        code, out, _ = run(capsys, ["analyze", qc("H ** I oo CX"), "--trace"])
        assert "step 1: H@0" in out
        assert "step 3: CX@0" in out

    def test_check_oracle_pass(self, qc, capsys):
        code, out, _ = run(capsys, ["analyze", qc("H ** I oo CX"), "--check-oracle"])
        assert code == 0
        assert "soundness: ok" in out

    def test_check_oracle_unsound_mode_exits_3(self, qc, capsys):
        # the leveling-pitfall sequence, SW-encoded; the flawed rule ends up
        # claiming the entangled qubit 1 is separable
        text = ("H ** I ** I oo CX ** I oo SW ** I oo CX ** I oo SW ** I "
                "oo I ** H ** I oo I ** CX oo H ** I ** I oo CX ** I "
                "oo I ** SW oo I ** CX oo I ** SW")
        code, out, err = run(capsys, [
            "analyze", qc(text), "--mode", "unsafe-leveling", "--check-oracle"])
        assert code == 3
        assert "soundness: VIOLATED" in out
        assert "violation[entanglement]" in out
        assert "unsound" in err

    def test_check_oracle_respects_qubit_limit(self, qc, capsys):
        text = " ** ".join(["I"] * 5)
        code, _, err = run(capsys, [
            "analyze", qc(text), "--check-oracle", "--max-oracle-qubits", "4"])
        assert code == 2
        assert "exceeds" in err

    def test_parse_error_exit_1(self, qc, capsys):
        code, out, err = run(capsys, ["analyze", qc("H **")])
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_validation_error_exit_2(self, qc, capsys):
        code, out, err = run(capsys, ["analyze", qc("H oo CX")])
        assert code == 2
        assert "different heights" in err

    def test_non_utf8_file_exit_1(self, tmp_path, capsys):
        path = tmp_path / "latin1.qc"
        path.write_bytes(b"H oo\r\nH # caf\xe9")
        code, out, err = run(capsys, ["analyze", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {path}:2:8: not UTF-8")
        assert "0xe9" in err

    def test_deeply_nested_parentheses(self, qc, capsys):
        depth = 10**5
        code, out, err = run(capsys, ["analyze", qc("(" * depth + "H" + ")" * depth)])
        assert code == 0
        assert "labels: d" in out
        assert err == ""

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run(capsys, ["analyze", "/nonexistent/nowhere.qc"])
        assert code == 1
        assert "cannot read" in err

    def test_deterministic_output(self, qc, capsys):
        path = qc("H ** I oo CX oo SW oo CX")
        runs = set()
        for _ in range(2):
            for fmt in ("text", "json"):
                code, out, _ = run(capsys, ["analyze", path, "--format", fmt, "--trace"])
                runs.add((fmt, out))
        assert len(runs) == 2  # one distinct output per format


class TestCompare:
    def test_precision_delta(self, qc, capsys):
        code, out, _ = run(capsys, ["compare", qc("H ** I oo CX oo CX")])
        assert code == 0
        assert "more precise on: (0,1)" in out

    def test_no_delta_when_both_join(self, qc, capsys):
        code, out, _ = run(capsys, ["compare", qc("H ** I oo CX")])
        assert code == 0
        assert "more precise on: (none)" in out

    def test_trivial_circuit(self, qc, capsys):
        code, out, _ = run(capsys, ["compare", qc("I ** I")])
        assert code == 0
        assert "more precise on: (none)" in out

    def test_propagates_parse_errors(self, qc, capsys):
        code, _, err = run(capsys, ["compare", qc("H ** ")])
        assert code == 1

    def test_propagates_validation_errors(self, qc, capsys):
        code, _, err = run(capsys, ["compare", qc("H oo CX")])
        assert code == 2


class TestDocumentHelpers:
    def test_blocks_sorted(self):
        st = analyze(parse_circuit("I ** (H ** I oo CX)"))
        doc = state_to_document(st, AnalysisMode.LEVELS)
        assert doc["separability"] == [[0], [1, 2]]
        assert all(block == sorted(block) for block in doc["separability"])

    def test_document_state_round_trip(self):
        import random

        from helpers import random_circuit

        rng = random.Random(67)
        for _ in range(100):
            c = random_circuit(rng, rng.randint(1, 6), rng.randint(1, 10))
            mode = rng.choice(list(AnalysisMode))
            st = analyze(c, mode)
            doc = state_to_document(st, mode)
            rebuilt = document_to_state(json.loads(json.dumps(doc)))
            assert state_row(rebuilt) == state_row(st)
