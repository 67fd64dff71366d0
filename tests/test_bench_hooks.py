"""The benchmark's tracer still finds every name it wraps in qent.

bench/tracing.py replaces module attributes by name (for example
`oracle.validate`, `cli.simulate` and `cli.json`); a rename in qent would
make every traced benchmark run fail with an AttributeError while the other
tests pass.
"""

from __future__ import annotations

import json
from pathlib import Path

import qent.analyzer
import qent.cli
import qent.oracle
from qent.circuit import validate
from qent.cli import state_to_document
from qent.oracle import simulate

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_runs_and_uninstalls(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    path = tmp_path / "circuit.qc"
    path.write_text("H ** I ** I oo CX ** X", encoding="utf-8")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [qent.cli.main(argv) for argv in (
            ["analyze", str(path), "--check-oracle"],
            ["analyze", str(path), "--trace", "--format", "json"],
            ["compare", str(path)],
        )]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0, 0]
    for span in ("cli.analyze", "cli.compare", "circuit.parse", "circuit.validate",
                 "analyzer.analyze", "analyzer.traced", "oracle.simulate", "oracle.check",
                 "oracle.finest", "oracle.levels", "oracle.basis"):
        assert tracer.counts[span + ".calls"] >= 1, span
    assert tracer.counts["analyzer.trace_steps"] == 5
    for module in (qent.cli, qent.analyzer, qent.oracle):
        assert module.validate is validate
    assert qent.cli.simulate is simulate
    assert qent.cli.json is json
    assert qent.cli.state_to_document is state_to_document
