"""Command-line interface tests, run in-process against main()."""

from __future__ import annotations

import errno
import gc
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
from qent.circuit import (CX, DEFAULT_QUBIT_LIMIT, H, GateKind, Program, Seq, parse_circuit,
                          unparse)
from qent.cli import _soundness_doc, _split_pairs, main, state_to_document
from qent.domain import AbstractState, Partition
from qent.oracle import check_soundness, simulate
from helpers import (ALL_KINDS, forbid, pad_at, random_circuit, reference_rows,
                     set_partitions, state_row)


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


_NEEDS_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
# the commands that TestAnalyze.test_stdout_cannot_be_written runs, by test id
_WRITERS = {"text": ["analyze"], "json-trace": ["analyze", "--trace", "--format", "json"],
            "compare": ["compare"]}


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
        final = analyze(parse_circuit(text))
        assert json.loads(out) == state_to_document(final, AnalysisMode.LEVELS)

    def test_trace_round_trip(self, qc, capsys):
        text = "H ** I oo CX"
        code, out, _ = run(capsys, ["analyze", qc(text), "--format", "json", "--trace"])
        doc = json.loads(out)
        final, steps = analyze_traced(parse_circuit(text))
        assert len(doc["trace"]) == len(steps)
        assert doc == state_to_document(final, AnalysisMode.LEVELS, steps)

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
        forbid(monkeypatch, qent.cli, "analyze", "analyze_traced")
        code, out, err = run(capsys, ["analyze", qc(" ** ".join(["I"] * 30)),
                                      "--check-oracle", "--max-oracle-qubits", "30"])
        assert code == 2
        assert out == ""
        assert err == "error: 30 qubits: not enough memory for the exact oracle\n"

    def test_check_soundness_out_of_memory_exits_2(self, qc, capsys, monkeypatch):
        def out_of_memory(st, state):
            raise MemoryError("Unable to allocate 16.0 GiB")

        monkeypatch.setattr("qent.cli.check_soundness", out_of_memory)
        assert run(capsys, ["analyze", qc("H ** I ** I oo CX ** I"), "--check-oracle"]) == (
            2, "", "error: 3 qubits: not enough memory for the exact oracle\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("trace", [[], ["--trace"]], ids=["final", "trace"])
    def test_oracle_refusal_comes_before_the_analysis(self, qc, capsys, monkeypatch, fmt, trace):
        """A circuit over the qubit limit, or no numpy, is refused before the
        analysis runs, with the same one stderr line."""
        forbid(monkeypatch, qent.cli, "analyze", "analyze_traced")
        wires = DEFAULT_QUBIT_LIMIT + 1
        argv = ["analyze", qc(" ** ".join(["I"] * wires)), "--check-oracle", "--format", fmt,
                *trace]
        assert run(capsys, argv) == (
            2, "", f"error: {wires} qubits exceeds the simulation limit of {DEFAULT_QUBIT_LIMIT}\n")

        def no_numpy():
            raise ImportError("No module named 'numpy'")

        monkeypatch.setattr(qent.cli, "_load_oracle", no_numpy)
        assert run(capsys, argv) == (
            2, "", "error: --check-oracle needs numpy: No module named 'numpy'\n")

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

    @pytest.mark.parametrize("target, extra", [
        *(pytest.param("/dev/full", extra, id=name, marks=_NEEDS_DEV_FULL)
          for name, extra in _WRITERS.items()),
        *(pytest.param(None, extra, id="closed-" + name) for name, extra in _WRITERS.items()),
    ])
    def test_stdout_cannot_be_written(self, qc, target, extra):
        """As `qent analyze FILE > /dev/full`, where every write fails with
        ENOSPC, and as `qent analyze FILE >&-`, where there is no stdout
        (EBADF): reported in one line, with no traceback."""
        path = qc("H ** I oo CX")
        src = str(Path(qent.__file__).resolve().parent.parent)
        command = [sys.executable, "-m", "qent.cli", extra[0], path, *extra[1:]]
        env = {**os.environ, "PYTHONPATH": src}
        if target is None:
            done = subprocess.run(command, env=env, preexec_fn=lambda: os.close(1),
                                  stderr=subprocess.PIPE, timeout=60)
            reason = errno.EBADF
        else:
            with open(target, "wb") as full:
                done = subprocess.run(command, env=env, stdout=full, stderr=subprocess.PIPE,
                                      timeout=60)
            reason = errno.ENOSPC
        assert done.returncode == 1
        assert done.stderr == f"error: cannot write output: {os.strerror(reason)}\n".encode()

    @_NEEDS_DEV_FULL
    def test_unwritable_stdout_leaks_no_descriptor(self, qc, capsys, monkeypatch):
        """In-process, with stdout a pipe whose reader is closed and then
        /dev/full: each call returns 1, and main keeps no descriptor open, so
        the lowest free one, which os.open returns, is the same after."""
        path = qc("H ** I oo CX")

        def broken_pipe():
            reader, writer = os.pipe()
            os.close(reader)
            return open(writer, "w", encoding="utf-8")

        def lowest_free():
            fd = os.open(os.devnull, os.O_RDONLY)
            os.close(fd)
            return fd

        targets = [broken_pipe() for _ in range(5)]
        targets += [open("/dev/full", "w", encoding="utf-8") for _ in range(5)]
        try:
            before = lowest_free()
            for out in targets:
                with monkeypatch.context() as patch:
                    patch.setattr(sys, "stdout", out)
                    assert main(["analyze", path]) == 1
            assert lowest_free() == before
        finally:
            for out in targets:
                out.close()
        assert capsys.readouterr().err == \
            f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n" * 5


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


def count_dumps(monkeypatch) -> list:
    """A list that grows by one on each cli.json.dumps call."""
    import qent.cli as cli

    dumps = []
    shim = types.SimpleNamespace(**vars(json))
    shim.dumps = lambda *args, **kwargs: dumps.append(1) or json.dumps(*args, **kwargs)
    monkeypatch.setattr(cli, "json", shim)
    return dumps


class TestOutputCost:
    """A JSON trace is encoded by hand: json.dumps encodes only the soundness
    report, whatever the trace length, and each distinct block is rendered
    once."""

    @pytest.mark.parametrize("trace", [[], ["--trace"]], ids=["final", "trace"])
    @pytest.mark.parametrize("check, calls", [([], 0), (["--check-oracle"], 1)],
                             ids=["plain", "oracle"])
    def test_json_dumps_only_the_report(self, qc, capsys, monkeypatch, trace, check, calls):
        dumps = count_dumps(monkeypatch)
        code, out, _ = run(capsys, ["analyze", qc("H ** I oo CX"), "--format", "json",
                                    *trace, *check])
        assert code == 0 and json.loads(out)["qubits"] == 2
        assert len(dumps) == calls

    def test_json_trace_renders_each_block_once(self, qc, capsys, monkeypatch):
        import qent.cli as cli

        dumps, renders = count_dumps(monkeypatch), []
        block_json = cli._block_json
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

    def test_walks_the_tree_once(self, qc, capsys, monkeypatch):
        """compare reads the gates once for both modes: one pass over the
        program's kinds, and no walk of a tree."""
        parse_program, iter_gates, walks = qent.cli.parse_program, qent.analyzer.iter_gates, []

        class Kinds(tuple):
            def __iter__(self):
                walks.append("program")
                return super().__iter__()

        def counted_program(text):
            # built unchecked, as the parser builds it: the constructor's
            # check would iterate the kinds once more
            n, kinds, wires = parse_program(text)
            return tuple.__new__(Program, (n, Kinds(kinds), wires))

        def counted_tree(circuit):
            walks.append("tree")
            return iter_gates(circuit)

        monkeypatch.setattr(qent.cli, "parse_program", counted_program)
        monkeypatch.setattr(qent.analyzer, "iter_gates", counted_tree)
        code, out, _ = run(capsys, ["compare", qc("H ** I oo CX oo CX")])
        assert code == 0 and out.endswith("more precise on: (0,1)\n")
        assert walks == ["program"]

    def test_propagates_parse_errors(self, qc, capsys):
        code, _, err = run(capsys, ["compare", qc("H ** ")])
        assert code == 1

    def test_propagates_validation_errors(self, qc, capsys):
        code, _, err = run(capsys, ["compare", qc("H oo CX")])
        assert code == 2


class TestComparePairs:
    """compare's pairs come from grouping each no-levels block by levels
    block; the pairs inside one group are never visited."""

    def test_equal_to_all_pairs_scan_on_every_small_partition_pair(self):
        for n, bell in enumerate([1, 1, 2, 5, 15, 52]):
            partitions = [Partition.from_blocks(blocks, n) for blocks in set_partitions(range(n))]
            assert len(partitions) == bell
            for coarse in partitions:
                for fine in partitions:
                    assert _split_pairs(coarse, fine) == [
                        (i, j) for i, j in combinations(range(n), 2)
                        if coarse.same_block(i, j) and not fine.same_block(i, j)]

    def test_one_wide_block_tests_no_pair(self, qc, capsys, monkeypatch):
        # H on every even wire, CX on (2k, 2k+1), then CX on (2k+1, 2k+2):
        # one block of all 2048 qubits in both modes, so no pair to print
        n = 2048
        text = (" ** ".join(["H ** I"] * (n // 2)) + "\noo " + " ** ".join(["CX"] * (n // 2))
                + "\noo I ** " + " ** ".join(["CX"] * (n // 2 - 1)) + " ** I\n")
        forbid(monkeypatch, Partition, "join", "split", "swapped", "same_block")
        code, out, _ = run(capsys, ["compare", qc(text)])
        assert code == 0
        tops = "labels: " + " ".join(["top"] * n)
        block = "separability: {" + ",".join(map(str, range(n))) + "}"
        singles = " ".join("{" + str(q) + "}" for q in range(2, n))
        assert out.splitlines() == [
            f"qubits: {n}",
            f"levels:    {tops} | {block} | levels: {{0,1}} {singles}",
            f"no-levels: {tops} | {block} | levels: {{0}} {{1}} {singles}",
            "more precise on: (none)",
        ]

    def test_equal_to_reference_without_partition_operations(self, qc, capsys, monkeypatch):
        rng = random.Random(101)
        circuits = [random_circuit(rng, rng.randint(1, 96), rng.randint(1, 8), SWAP_HEAVY)
                    for _ in range(20)]
        forbid(monkeypatch, Partition, "join", "split", "swapped", "same_block")

        def text(row):
            labels, sep, lvl = row
            return " | ".join([
                "labels: " + " ".join(labels),
                "separability: " + " ".join("{" + ",".join(map(str, b)) + "}" for b in sep),
                "levels: " + " ".join("{" + ",".join(map(str, b)) + "}" for b in lvl)])

        for circuit in circuits:
            fine = reference_rows(circuit, AnalysisMode.LEVELS)[-1]
            coarse = reference_rows(circuit, AnalysisMode.NO_LEVELS)[-1]
            block_of = {q: block for block in fine[1] for q in block}
            delta = sorted((i, j) for block in coarse[1] for i, j in combinations(block, 2)
                           if j not in block_of[i])
            code, out, _ = run(capsys, ["compare", qc(unparse(circuit))])
            assert code == 0
            assert out.splitlines() == [
                f"qubits: {circuit.height}",
                "levels:    " + text(fine),
                "no-levels: " + text(coarse),
                "more precise on: " + (" ".join(f"({i},{j})" for i, j in delta) or "(none)"),
            ]

    def test_no_cli_path_copies_a_partition_or_a_state(self, qc, capsys, monkeypatch):
        """The analysis and the oracle's seeding update member lists in place;
        no command builds a partition or a state by a copying operation."""
        rng = random.Random(103)
        paths = []
        for _ in range(12):
            n = rng.randint(1, 10)
            circuit = random_circuit(rng, n, rng.randint(1, 8))
            if n > 1:  # a Bell pair on wires 0 and 1 first
                circuit = Seq(Seq(pad_at(H, 0, n), pad_at(CX, 0, n)), circuit)
            paths.append(qc(unparse(circuit), f"c{len(paths)}.qc"))
        forbid(monkeypatch, Partition, "join", "split", "swapped")
        forbid(monkeypatch, AbstractState, "copy", "swap_adjacent", "_apply")
        for path in paths:
            assert run(capsys, ["compare", path])[0] == 0
            for mode in AnalysisMode:
                for extra in ([], ["--trace"], ["--format", "json"], ["--trace", "--format", "json"]):
                    for oracle in ([], ["--check-oracle"]):
                        code, _, err = run(capsys, ["analyze", path, "--mode", mode.value,
                                                    *extra, *oracle])
                        assert code == 0 or (code == 3 and mode is AnalysisMode.UNSAFE_LEVELING), err


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
                code, _, err = run(capsys, [argv[0], str(path), *argv[1:]])
                assert code in (0, 1, 2, 3)
                if code == 0:
                    assert err == ""
                else:
                    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1


class TestOutOfMemory:
    """Running out of memory outside the oracle is one line and exit 2, not
    a traceback; stdout keeps what was written before."""

    ARGVS = [["analyze"], ["analyze", "--format", "json"], ["analyze", "--trace"],
             ["analyze", "--trace", "--format", "json"], ["analyze", "--check-oracle"],
             ["compare"]]

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    @pytest.mark.parametrize("names", [["parse_circuit", "parse_program"],
                                       ["analyze", "analyze_traced", "_walk"]],
                             ids=["parse", "analysis"])
    def test_exits_2_with_one_line(self, qc, capsys, monkeypatch, argv, names):
        def out_of_memory(*args):
            raise MemoryError

        for name in names:
            monkeypatch.setattr(qent.cli, name, out_of_memory)
        path = qc("H ** I oo CX")
        assert run(capsys, [argv[0], path, *argv[1:]]) == (
            2, "", f"error: {path}: not enough memory\n")

    def test_output_written_before_is_kept(self, qc, capsys, monkeypatch):
        path = qc("H ** I oo CX")
        _, out, _ = run(capsys, ["compare", path])
        text = qent.cli._StateWriter.text
        calls = []

        def second_runs_out(writer, state, sep):
            calls.append(state)
            if len(calls) == 2:
                raise MemoryError
            return text(writer, state, sep)

        monkeypatch.setattr(qent.cli._StateWriter, "text", second_runs_out)
        assert run(capsys, ["compare", path]) == (
            2, "".join(out.splitlines(keepends=True)[:2]), f"error: {path}: not enough memory\n")


def cyclic_garbage(capsys, argv) -> int:
    """Objects in reference cycles that main(argv) leaves behind: it runs
    with the collector off, and gc.collect() counts what it frees after."""
    gc.collect()
    gc.disable()
    try:
        assert run(capsys, argv)[0] == 0
        return gc.collect()
    finally:
        gc.enable()


class TestCollectorPause:
    """main runs each command with the cyclic collector off, and leaves it as
    it was at entry on every way out."""

    @pytest.mark.parametrize("argv, entry", [
        (["analyze"], "analyze"), (["analyze", "--trace"], "analyze_traced"),
        (["analyze", "--check-oracle"], "analyze"), (["compare"], "_walk"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_off_while_a_command_runs(self, qc, capsys, monkeypatch, argv, entry):
        seen, analysis = [], getattr(qent.cli, entry)

        def recorded(*args):
            seen.append(gc.isenabled())
            return analysis(*args)

        monkeypatch.setattr(qent.cli, entry, recorded)
        assert gc.isenabled()
        assert run(capsys, [argv[0], qc("H ** I oo CX"), *argv[1:]])[0] == 0
        assert seen == [False]
        assert gc.isenabled()

    PITFALL = "H ** H ** I oo I ** CX oo CX ** I"

    @pytest.mark.parametrize("text, extra, code", [
        ("H ** I oo CX", [], 0),
        ("H ** Q", [], 1),
        (None, [], 1),
        ("H oo CX", [], 2),
        ("H ** I oo CX", ["--check-oracle", "--max-oracle-qubits", "1"], 2),
        ("memory", [], 2),
        (PITFALL, ["--mode", "unsafe-leveling", "--check-oracle"], 3),
        ("H ** I oo CX", ["--mode", "bogus"], "usage"),
        ("no stdout", [], 1),
    ], ids=["ok", "syntax", "unreadable", "height", "qubit-limit", "memory", "unsound", "usage",
            "no-stdout"])
    @pytest.mark.parametrize("on", [True, False], ids=["on", "off"])
    def test_restored_on_every_exit(self, qc, tmp_path, capsys, monkeypatch, text, extra, code,
                                    on):
        if text == "memory":
            def out_of_memory(*args):
                raise MemoryError

            monkeypatch.setattr(qent.cli, "parse_circuit", out_of_memory)
            monkeypatch.setattr(qent.cli, "parse_program", out_of_memory)
        if text == "no stdout":  # as when started with fd 1 closed
            monkeypatch.setattr(sys, "stdout", None)
        path = str(tmp_path / "missing.qc") if text is None else qc(text)
        (gc.enable if on else gc.disable)()
        try:
            if code == "usage":
                with pytest.raises(SystemExit):
                    main(["analyze", path, *extra])
            else:
                assert run(capsys, ["analyze", path, *extra])[0] == code
            assert gc.isenabled() is on
        finally:
            gc.enable()

    @pytest.mark.parametrize("argv", [["analyze"], ["compare"], ["analyze", "--trace"]],
                             ids=" ".join)
    def test_cyclic_garbage_does_not_grow_with_the_input(self, qc, capsys, argv):
        rng = random.Random(89)
        small, large = (qc(unparse(random_circuit(rng, 4, columns)), f"c{columns}.qc")
                        for columns in (1, 2000))
        cyclic_garbage(capsys, [argv[0], small, *argv[1:]])  # first-call caches
        assert (cyclic_garbage(capsys, [argv[0], small, *argv[1:]])
                == cyclic_garbage(capsys, [argv[0], large, *argv[1:]]))


# Runs `import qent, qent.cli`, then main() on each argv given as JSON, and
# prints which of numpy and qent.oracle were loaded after each step.
_IMPORT_PROBE = """
import contextlib, io, json, sys
import qent, qent.cli

def loaded():
    return sorted({"numpy", "qent.oracle"} & set(sys.modules))

seen = [["import", 0, loaded()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = qent.cli.main(argv)
    seen.append([" ".join(argv[:1] + argv[2:]), code, loaded()])
seen.append(["qent.simulate is qent.oracle.simulate",
             qent.simulate is sys.modules["qent.oracle"].simulate, loaded()])
print(json.dumps(seen))
"""

# As a process without numpy: the import of numpy fails, then main runs.
_NO_NUMPY = """
import sys
sys.modules["numpy"] = None
import qent.cli
sys.exit(qent.cli.main(sys.argv[1:]))
"""


class TestOracleImport:
    """Only --check-oracle imports the exact oracle, and numpy with it."""

    def python(self, code, *args):
        src = str(Path(qent.__file__).resolve().parent.parent)
        return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                              env={**os.environ, "PYTHONPATH": src}, text=True, timeout=60)

    def test_only_check_oracle_loads_numpy(self, qc):
        path = qc("H ** I oo CX")
        argvs = [["analyze", path], ["analyze", path, "--format", "json"],
                 ["analyze", path, "--trace"], ["analyze", path, "--trace", "--format", "json"],
                 ["compare", path], ["analyze", path, "--check-oracle"]]
        done = self.python(_IMPORT_PROBE, json.dumps(argvs))
        assert done.returncode == 0, done.stderr
        oracle = ["numpy", "qent.oracle"]
        assert json.loads(done.stdout) == [
            ["import", 0, []],
            ["analyze", 0, []],
            ["analyze --format json", 0, []],
            ["analyze --trace", 0, []],
            ["analyze --trace --format json", 0, []],
            ["compare", 0, []],
            ["analyze --check-oracle", 0, oracle],
            ["qent.simulate is qent.oracle.simulate", True, oracle],
        ]

    def test_oracle_names_resolve_on_access(self):
        import qent.oracle

        assert qent.cli.simulate is qent.oracle.simulate
        assert qent.cli.check_soundness is qent.oracle.check_soundness
        assert qent.cli.QubitLimitError is qent.oracle.QubitLimitError
        for module in (qent, qent.cli):
            with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
                module.not_a_name

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_check_oracle_without_numpy_exits_2(self, qc, fmt):
        path = qc("H ** I oo CX")
        done = self.python(_NO_NUMPY, "analyze", path, "--format", fmt)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout
        done = self.python(_NO_NUMPY, "analyze", path, "--format", fmt, "--check-oracle")
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: --check-oracle needs numpy: ")
        assert done.stderr.count("\n") == 1

    def test_qubit_limit_has_one_definition(self, qc, capsys):
        import qent.oracle

        src = Path(qent.__file__).resolve().parent
        assert [p.name for p in sorted(src.glob("*.py"))
                if "\nDEFAULT_QUBIT_LIMIT =" in p.read_text(encoding="utf-8")] == ["circuit.py"]
        assert qent.oracle.DEFAULT_QUBIT_LIMIT == DEFAULT_QUBIT_LIMIT
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--help"])
        assert exc.value.code == 0
        assert f"(default: {DEFAULT_QUBIT_LIMIT})" in " ".join(capsys.readouterr().out.split())
        wires = DEFAULT_QUBIT_LIMIT + 1
        assert run(capsys, ["analyze", qc(" ** ".join(["I"] * wires)), "--check-oracle"]) == (
            2, "", f"error: {wires} qubits exceeds the simulation limit of {DEFAULT_QUBIT_LIMIT}\n")


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
            assert json.loads(json.dumps(doc)) == doc
            assert (doc["qubits"], doc["mode"]) == (st.n, mode.value)
            assert (doc["labels"], doc["separability"], doc["levels"]) == state_row(st)
