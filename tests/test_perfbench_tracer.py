"""The benchmark's tracer still finds every name it rebinds.

`perfbench/tracer.py` wraps layer functions by the names the consumer
modules imported, so renaming or dropping one of those bindings (the
`hr_approx` import in `hrx.cli`, say) breaks a traced benchmark run.
This test makes such a rename fail here too.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

import hrx

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_uninstall(tmp_path, capsys):
    tracer_module = load_tracer()
    bindings = {(module, attr): getattr(getattr(hrx, module), attr)
                for module, attr, _, _ in tracer_module._SPANS}
    tracer = tracer_module.Tracer()
    tracer.install(hrx)
    try:
        out = tmp_path / "study.csv"
        assert hrx.cli.main([
            "table", "--spec", "constant", "--rho", "0.5",
            "--n", "100", "--grid", "0,0;1,1", "--out", str(out),
        ]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    summary = tracer_module.SpanSummary(tracer)
    assert summary.calls_of("cli.run_study") == 1
    assert summary.amount_of("cli.write_records") == 2
    assert all(getattr(getattr(hrx, module), attr) is original
               for (module, attr), original in bindings.items())
