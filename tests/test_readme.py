"""README's examples, run against the code they describe, and the public
API they use."""

from __future__ import annotations

import re
from pathlib import Path

import qent
from qent import BasisLabel
from qent.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    """The text of README's `## title` section, up to the next heading."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def fenced(text: str, lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", text, re.S)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_library_example():
    (code,) = fenced(section("Library"), "python")
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)  # ends in `assert report.ok`
    # lines `expression  # [value]  (note)` claim the expression's value
    claims = re.findall(r"^(\S+)\s+# (\[.*\])", code, re.M)
    assert len(claims) == 3
    for expression, value in claims:
        assert eval(expression, namespace) == eval(value, {"BasisLabel": BasisLabel}), expression


def test_program_example():
    text, program = re.search(r'`parse_program\("([^"]+)"\)` is\s+`(Program\([^`]+\))`',
                              section("Library")).groups()
    assert qent.parse_program(text) == eval(program, vars(qent))


def test_bell_analyze_output(tmp_path, capsys):
    bell = fenced(section("Circuit language"), "text")[0]
    expected = fenced(section("Command line"), "text")[0]
    assert "Bell pair" in bell
    path = tmp_path / "bell.qc"
    path.write_text(bell, encoding="utf-8")
    assert run(capsys, ["analyze", str(path)]) == (0, expected, "")


def test_compare_claim(tmp_path, capsys):
    claim = re.search(r"on\s+`([^`]+)` it reports qubits (\d+) and (\d+) separable", README)
    circuit, i, j = claim.groups()
    path = tmp_path / "claim.qc"
    path.write_text(circuit, encoding="utf-8")
    code, out, err = run(capsys, ["compare", str(path)])
    assert (code, err) == (0, "")
    # compare lists exactly the pairs that no-levels merges and levels separates
    assert f"more precise on: ({i},{j})" in out.splitlines()


def test_height_mismatch_diagnostic(tmp_path, capsys, monkeypatch):
    circuit, position = re.search(r"\(`([^`]+)` fails at (\d+:\d+)\)", README).groups()
    diagnostic = re.search(r"`(error: bell\.qc:[^`]+)`", README).group(1)
    assert diagnostic.startswith(f"error: bell.qc:{position}: ")
    monkeypatch.chdir(tmp_path)
    Path("bell.qc").write_text(circuit, encoding="utf-8")
    assert run(capsys, ["analyze", "bell.qc"]) == (2, "", diagnostic + "\n")


def test_public_api():
    """Any change to the exports is a deliberate edit of this list."""
    assert qent.__all__ == [
        "AbstractState", "AnalysisMode", "BasisLabel", "CircuitAst", "CircuitSyntaxError",
        "ConcreteBasis", "DenseState", "Gate", "GateKind", "Partition", "Program", "Seq",
        "SoundnessReport", "Tensor", "TraceStep", "ValidationError", "analyze",
        "analyze_traced", "apply_cx_at", "apply_gate", "basis_oracle", "check_soundness",
        "finest_separable_partition", "init_state", "iter_gates", "levels_oracle",
        "parse_circuit", "parse_program", "simulate", "unparse", "validate",
    ]
    assert qent.__all__ == sorted(qent.__all__)
    for name in qent.__all__:
        assert not name.startswith("_")
        assert getattr(qent, name) is not None
