"""The benchmark's tracer still finds every name it wraps in qent.

bench/tracing.py replaces module attributes by name (for example
`oracle.validate` and `cli.simulate`); a rename in qent would make every
traced benchmark run fail with an AttributeError while the other tests
pass.
"""

from __future__ import annotations

from pathlib import Path

import qent.analyzer
import qent.cli
import qent.oracle
from qent.circuit import validate
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
        code = qent.cli.main(["analyze", str(path), "--check-oracle"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    for span in ("cli.analyze", "circuit.parse", "circuit.validate", "analyzer.analyze",
                 "oracle.simulate", "oracle.check", "oracle.finest", "oracle.levels",
                 "oracle.basis"):
        assert tracer.counts[span + ".calls"] >= 1, span
    for module in (qent.cli, qent.analyzer, qent.oracle):
        assert module.validate is validate
    assert qent.cli.simulate is simulate
