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


# Calls of one `hrx verify` by span name: 108 I_k pairs (3 lam x 3 x x
# 3 y x 4 k) and 27 tau3 points, each with its own quadrature, then one
# Monte Carlo run against one exact cdf.
VERIFY_CALLS = {
    "oracle.quad_semi_infinite": 135,
    "hr_core.I_closed": 108,
    "oracle.I_k_quadrature": 108,
    "hr_core.tau3": 27,
    "oracle.mc": 1,
    "triangular.exact_joint_max_cdf": 1,
}


def test_verify_calls_are_traced(capsys):
    # each call of the suite goes through a binding the tracer rebinds
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install(hrx)
    try:
        assert hrx.cli.main(["verify", "--seed", "5"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    summary = tracer_module.SpanSummary(tracer)
    assert {name: summary.calls_of(name) for name in VERIFY_CALLS} == VERIFY_CALLS
