"""Command-line interface tests, run in-process against main()."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tracemalloc
import types
from itertools import combinations
from pathlib import Path

import pytest

import qent
from qent.analyzer import AnalysisMode, analyze, analyze_traced
from qent.circuit import GateKind, parse_circuit, unparse
from qent.cli import _soundness_doc, document_to_state, main, state_to_document
from qent.oracle import check_soundness, simulate
from helpers import ALL_KINDS, random_circuit, state_row


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

    @pytest.mark.parametrize("mode, code, levels, soundness, err", [
        ("levels", 0, "{0} {1} {2}", "ok (entanglement=True level=True label=True)\n", ""),
        ("no-levels", 0, "{0} {1} {2}", "ok (entanglement=True level=True label=True)\n", ""),
        ("unsafe-leveling", 3, "{0} {1,2}",
         "VIOLATED (entanglement=True level=False label=True)\n"
         "  violation[level] (1, 2): analysis marks qubits 1 and 2 as leveled but they are not\n",
         "error: analysis is unsound for this circuit\n"),
    ])
    def test_unsafe_leveling_witness(self, qc, capsys, mode, code, levels, soundness, err):
        """H@0, H@1, CX@1, CX@0: the shortest circuit on which the oracle
        catches unsafe-leveling's false level pair."""
        path = qc("H ** H ** I oo I ** CX oo CX ** I")
        out = (f"qubits: 3\nmode: {mode}\nlabels: top top top\nseparability: {{0,1,2}}\n"
               f"levels: {levels}\nsoundness: {soundness}")
        assert run(capsys, ["analyze", path, "--mode", mode, "--check-oracle"]) == (code, out, err)

    def test_check_oracle_respects_qubit_limit(self, qc, capsys):
        text = " ** ".join(["I"] * 5)
        code, _, err = run(capsys, [
            "analyze", qc(text), "--check-oracle", "--max-oracle-qubits", "4"])
        assert code == 2
        assert "exceeds" in err
        for limit in ("0", "-5"):
            with pytest.raises(SystemExit) as exc:
                main(["analyze", qc(text), "--check-oracle", "--max-oracle-qubits", limit])
            assert exc.value.code == 2
            assert f"invalid positive_int value: '{limit}'" in capsys.readouterr().err

    def test_check_oracle_out_of_memory_exits_2(self, qc, capsys, monkeypatch):
        def out_of_memory(circuit, max_qubits):
            raise MemoryError("Unable to allocate 16.0 GiB")

        monkeypatch.setattr("qent.cli.simulate", out_of_memory)
        code, out, err = run(capsys, ["analyze", qc(" ** ".join(["I"] * 30)),
                                      "--check-oracle", "--max-oracle-qubits", "30"])
        assert code == 2
        assert out == ""
        assert err == "error: 30 qubits: not enough memory for the exact oracle\n"

    @pytest.mark.parametrize("wires", [59, 64, 70])
    def test_check_oracle_unindexable_state_exits_2(self, qc, capsys, wires):
        # 2^wires amplitudes of 16 bytes exceed the largest array numpy can
        # index; the oracle refuses them before allocating anything
        path = qc(" ** ".join(["I"] * wires))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, ["analyze", path, "--check-oracle",
                                          "--max-oracle-qubits", "100"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err == f"error: {wires} qubits: not enough memory for the exact oracle\n"
        assert peak < 1 << 20

    def test_parse_error_exit_1(self, qc, capsys):
        code, out, err = run(capsys, ["analyze", qc("H **")])
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_validation_error_exit_2(self, qc, capsys):
        path = qc("H oo CX")
        code, out, err = run(capsys, ["analyze", path])
        assert code == 2
        assert out == ""
        assert err == f"error: {path}:1:3: sequence composes circuits of different heights (1 vs 2)\n"

    @pytest.mark.parametrize("text, diagnostic", [
        ("H ** I\noo X ** X\noo CX oo H", "3:7: sequence composes circuits of different heights (2 vs 1)"),
        ("H oo CX oo", "1:3: sequence composes circuits of different heights (1 vs 2)"),
    ], ids=["later-oo-and-line", "before-end-of-input"])
    def test_validation_error_position(self, qc, capsys, text, diagnostic):
        path = qc(text)
        assert run(capsys, ["compare", path]) == (2, "", f"error: {path}:{diagnostic}\n")

    def test_non_utf8_file_exit_1(self, tmp_path, capsys):
        path = tmp_path / "latin1.qc"
        path.write_bytes(b"H oo\r\nH # caf\xe9")
        code, out, err = run(capsys, ["analyze", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {path}:2:8: not UTF-8")
        assert "0xe9" in err

    @pytest.mark.parametrize("text", [b"H ** I oo CX", b"H **\nQQ"])
    def test_byte_order_mark_ignored(self, tmp_path, capsys, text):
        path = tmp_path / "circuit.qc"
        path.write_bytes(text)
        plain = run(capsys, ["analyze", str(path)])
        path.write_bytes(b"\xef\xbb\xbf" + text)
        assert run(capsys, ["analyze", str(path)]) == plain

    def test_byte_order_mark_then_non_utf8(self, tmp_path, capsys):
        path = tmp_path / "bom.qc"
        path.write_bytes(b"\xef\xbb\xbfH \xe9")
        code, out, err = run(capsys, ["analyze", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {path}:1:3: not UTF-8")
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

    def test_deterministic_across_processes(self, qc):
        """GateKind hashes by identity and str hashes are salted per process,
        so each run gets a fresh interpreter with its own hash seed."""
        path = qc(unparse(random_circuit(random.Random(12), 7, 14)))
        src = str(Path(qent.__file__).resolve().parent.parent)
        for argv in (["analyze", path, "--trace", "--format", "json"], ["compare", path]):
            outputs = []
            for seed in ("1", "2"):
                env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
                done = subprocess.run([sys.executable, "-m", "qent.cli", *argv], env=env,
                                      capture_output=True, check=True, timeout=60)
                outputs.append(done.stdout)
            assert outputs[0] == outputs[1]
            assert outputs[0]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_reader_closed_after_first_line(self, qc, fmt):
        """As `qent analyze FILE --trace | head -1`: the trace, several MB,
        outgrows the pipe, so the writer meets the closed reader."""
        path = qc(unparse(random_circuit(random.Random(14), 40, 250)))
        src = str(Path(qent.__file__).resolve().parent.parent)
        proc = subprocess.Popen(
            [sys.executable, "-m", "qent.cli", "analyze", path, "--trace", "--format", fmt],
            env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        finally:
            proc.kill()
            proc.stderr.close()
        assert err == b""


def state_text(state, sep):
    """The text form of a state, from Partition.blocks() and label.value."""
    def blocks(partition):
        return " ".join("{" + ",".join(map(str, block)) + "}" for block in partition.blocks())

    return sep.join([
        "labels: " + " ".join(label.value for label in state.labels),
        "separability: " + blocks(state.sep),
        "levels: " + blocks(state.lvl),
    ])


# many SW and CX gates: blocks that persist across snapshots and blocks whose qubits move
SWAP_HEAVY = [GateKind.SW, GateKind.CX, GateKind.SW, GateKind.CX, GateKind.H, GateKind.T, GateKind.I]


class TestTraceWriters:
    """Output against references that do not use the writers: the document
    dumped whole by json.dumps, and one line per state or step built by
    state_text."""

    def check_against_reference(self, qc, capsys, circuit, mode, check):
        path = qc(unparse(circuit))
        extra = ["--check-oracle"] if check else []
        for argv_trace in ([], ["--trace"]):
            if argv_trace:
                final, steps = analyze_traced(circuit, mode)
            else:
                final, steps = analyze(circuit, mode), None
            doc = state_to_document(final, mode, steps)
            if check:
                doc["soundness"] = _soundness_doc(check_soundness(final, simulate(circuit)))
            code, out, _ = run(capsys, ["analyze", path, "--mode", mode.value, "--format", "json",
                                        *argv_trace, *extra])
            assert code in (0, 3)
            assert out == json.dumps(doc, indent=2) + "\n"

            lines = [f"qubits: {final.n}", f"mode: {mode.value}", state_text(final, "\n")]
            lines += [f"step {k}: {step.gate.value}@{step.index} -> " + state_text(step.state, " | ")
                      for k, step in enumerate(steps or (), 1)]
            code, out, _ = run(capsys, ["analyze", path, "--mode", mode.value, *argv_trace, *extra])
            assert code in (0, 3)
            if check:
                head, _, tail = out.partition("\nsoundness: ")
                assert head == "\n".join(lines) and tail
            else:
                assert out == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("check", [False, True], ids=["plain", "oracle"])
    @pytest.mark.parametrize("mode", list(AnalysisMode), ids=lambda m: m.value)
    def test_equal_to_reference(self, qc, capsys, mode, check):
        rng = random.Random(79)
        for _ in range(200):
            circuit = random_circuit(rng, rng.randint(1, 6), rng.randint(1, 12))
            self.check_against_reference(qc, capsys, circuit, mode, check)

    @pytest.mark.parametrize("mode", list(AnalysisMode), ids=lambda m: m.value)
    def test_wide_swap_heavy_equal_to_reference(self, qc, capsys, mode):
        rng = random.Random(83)
        for k in range(12):
            kinds = SWAP_HEAVY if k % 3 else ALL_KINDS
            circuit = random_circuit(rng, rng.randint(20, 64), rng.randint(5, 30), kinds)
            self.check_against_reference(qc, capsys, circuit, mode, False)
        for _ in range(12):
            circuit = random_circuit(rng, rng.randint(8, 12), rng.randint(5, 30), SWAP_HEAVY)
            self.check_against_reference(qc, capsys, circuit, mode, True)

    def test_compare_equal_to_reference(self, qc, capsys):
        rng = random.Random(89)
        for _ in range(40):
            circuit = random_circuit(rng, rng.randint(1, 64), rng.randint(1, 20), SWAP_HEAVY)
            code, out, _ = run(capsys, ["compare", qc(unparse(circuit))])
            assert code == 0
            lines = out.splitlines()
            assert lines[1] == "levels:    " + state_text(analyze(circuit, AnalysisMode.LEVELS), " | ")
            assert lines[2] == "no-levels: " + state_text(analyze(circuit, AnalysisMode.NO_LEVELS),
                                                          " | ")


class TestOutputCost:
    """A JSON trace is encoded by hand: json.dumps runs once per output,
    whatever the trace length, and each distinct block is rendered once."""

    def test_json_trace_renders_each_block_once(self, qc, capsys, monkeypatch):
        import qent.cli as cli

        dumps, renders = [], []
        shim = types.SimpleNamespace(**vars(json))
        shim.dumps = lambda *args, **kwargs: dumps.append(1) or json.dumps(*args, **kwargs)
        block_json = cli._block_json
        monkeypatch.setattr(cli, "json", shim)
        monkeypatch.setattr(cli, "_block_json", lambda *args: renders.append(1) or block_json(*args))

        circuit = random_circuit(random.Random(97), 48, 60, SWAP_HEAVY)
        final, steps = analyze_traced(circuit)
        blocks = {block for step in steps for p in (step.state.sep, step.state.lvl)
                  for block in p.members}
        code, out, _ = run(capsys, ["analyze", qc(unparse(circuit)), "--trace", "--format", "json"])
        assert code == 0
        assert out == json.dumps(state_to_document(final, AnalysisMode.LEVELS, steps), indent=2) + "\n"
        assert len(steps) > 1000 and len({id(step.state) for step in steps}) > 50
        assert len(dumps) <= 1
        assert 0 < len(renders) <= len(blocks)


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

    def test_delta_sorted_across_blocks(self, qc, capsys):
        # no-levels blocks {0,3,4} {1,2}: block order would list (3,4) before (1,2)
        text = """H ** I ** I ** H ** I
        oo I ** I ** I ** CX oo I ** I ** I ** CX
        oo I ** H ** I ** I ** I oo I ** CX ** I ** I oo I ** CX ** I ** I
        oo SW ** I ** I ** I oo I ** SW ** I ** I
        oo I ** I ** CX ** I
        oo I ** SW ** I ** I oo SW ** I ** I ** I"""
        code, out, _ = run(capsys, ["compare", qc(text)])
        assert code == 0
        assert "separability: {0,3,4} {1,2} |" in out
        assert out.splitlines()[-1] == "more precise on: (0,4) (1,2) (3,4)"

    def test_delta_matches_all_pairs_definition(self, qc, capsys):
        rng = random.Random(71)
        for _ in range(200):
            circuit = random_circuit(rng, rng.randint(1, 8), rng.randint(1, 6))
            with_levels = analyze(circuit, AnalysisMode.LEVELS)
            without = analyze(circuit, AnalysisMode.NO_LEVELS)
            delta = [f"({i},{j})" for i, j in combinations(range(with_levels.n), 2)
                     if without.sep.same_block(i, j) and not with_levels.sep.same_block(i, j)]
            code, out, _ = run(capsys, ["compare", qc(unparse(circuit))])
            assert code == 0
            assert out.splitlines()[-1] == "more precise on: " + (" ".join(delta) or "(none)")

    def test_propagates_parse_errors(self, qc, capsys):
        code, _, err = run(capsys, ["compare", qc("H ** ")])
        assert code == 1

    def test_propagates_validation_errors(self, qc, capsys):
        code, _, err = run(capsys, ["compare", qc("H oo CX")])
        assert code == 2


class TestRobustness:
    PIECES = [b"H", b"X", b"T", b"SW", b"CX", b"oo", b"**", b"(", b")", b"#", b" ", b"\n",
              b"\xef\xbb\xbf", b"\xe9", b"\x00", b"\r", b"\r\n", b"*"]
    ARGVS = [["analyze"], ["analyze", "--format", "json", "--trace"],
             ["analyze", "--check-oracle"], ["compare"]]

    def fuzz_input(self, rng):
        """Random pieces, or a random circuit's text with pieces spliced in."""
        if rng.random() < 0.5:
            return rng.choice([b"", b" "]).join(rng.choices(self.PIECES, k=rng.randint(0, 10)))
        data = unparse(random_circuit(rng, rng.randint(1, 6), rng.randint(1, 4))).encode()
        for _ in range(rng.randint(0, 2)):
            k = rng.randint(0, len(data))
            data = data[:k] + rng.choice(self.PIECES) + data[k:]
        return data

    def test_no_traceback_on_random_bytes(self, tmp_path, capsys):
        rng = random.Random(73)
        path = tmp_path / "fuzz.qc"
        for _ in range(300):
            path.write_bytes(self.fuzz_input(rng))
            for argv in self.ARGVS:
                code, _, _ = run(capsys, [argv[0], str(path), *argv[1:]])
                assert code in (0, 1, 2, 3)


class TestDocumentHelpers:
    def test_blocks_sorted(self):
        st = analyze(parse_circuit("I ** (H ** I oo CX)"))
        doc = state_to_document(st, AnalysisMode.LEVELS)
        assert doc["separability"] == [[0], [1, 2]]
        assert all(block == sorted(block) for block in doc["separability"])

    def test_document_state_round_trip(self):
        rng = random.Random(67)
        for _ in range(100):
            c = random_circuit(rng, rng.randint(1, 6), rng.randint(1, 10))
            mode = rng.choice(list(AnalysisMode))
            st = analyze(c, mode)
            doc = state_to_document(st, mode)
            rebuilt = document_to_state(json.loads(json.dumps(doc)))
            assert state_row(rebuilt) == state_row(st)

    @pytest.mark.parametrize("doc", [
        {"qubits": 2, "labels": ["s"], "separability": [[0], [1]], "levels": [[0], [1]]},
        {"qubits": 2, "labels": ["s", "s"], "separability": [[0], [], [1]], "levels": [[0], [1]]},
    ], ids=["labels-short", "empty-block"])
    def test_inconsistent_document_rejected(self, doc):
        with pytest.raises(ValueError):
            document_to_state(doc)
