"""The benchmark's own tests (not part of the program's test suite).

    python -m pytest perfbench/test_perfbench.py
"""

import ast
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness as H  # noqa: E402
import ref as R  # noqa: E402
import tracer as T  # noqa: E402
import wl_calculus  # noqa: E402
import wl_cli  # noqa: E402
import wl_series  # noqa: E402
from omegacalc.omega import OmegaNumber  # noqa: E402

WORKLOADS = (wl_series, wl_calculus, wl_cli)


def _invert_op():
    spec = ("invert", 8, ({0: 1, 1: 2, 2: Fraction(-1, 3), 5: 1}, 8), None)
    return wl_series.bind([spec], wl_series.Program())[0]


def _run_once(op, transform):
    """One closed-loop op whose program result passes through ``transform``."""
    real = op.run
    op.run = lambda: transform(real())
    return H.closed_loop([op], seconds=0)


def test_correct_result_is_not_an_error():
    loop = _run_once(_invert_op(), lambda x: x)
    assert (loop.attempted, loop.failed) == (1, 0)


def test_one_wrong_coefficient_counts_in_error_rate():
    def tamper(x):
        coeffs = list(x.coeffs)
        coeffs[2] += 1
        return OmegaNumber(x.valuation, tuple(coeffs), x.known_order)

    loop = _run_once(_invert_op(), tamper)
    assert (loop.attempted, loop.failed) == (1, 1)


def test_over_claimed_known_order_counts_in_error_rate():
    loop = _run_once(_invert_op(), lambda x: OmegaNumber(x.valuation, x.coeffs, x.known_order + 1))
    assert (loop.attempted, loop.failed) == (1, 1)


def test_under_claimed_known_order_counts_in_error_rate():
    def tamper(x):
        k = x.known_order - 1
        return OmegaNumber.from_terms(dict(x.terms()), k)

    loop = _run_once(_invert_op(), tamper)
    assert (loop.attempted, loop.failed) == (1, 1)


def test_unexpected_exception_counts_in_error_rate():
    def boom(_):
        raise ArithmeticError("injected")

    loop = _run_once(_invert_op(), boom)
    assert (loop.attempted, loop.failed) == (1, 1)


def test_inputs_are_a_pure_function_of_the_seed():
    for W in WORKLOADS:
        first = H.digest(repr(W.generate(7)))
        assert first == H.digest(repr(W.generate(7))), W.__name__
        assert first != H.digest(repr(W.generate(8))), W.__name__


def test_reference_never_imports_the_program():
    tree = ast.parse((HERE / "ref.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported <= {"__future__", "json", "math", "fractions"}


def test_reference_matches_known_transcripts():
    assert R.render(R.powq(R.L({0: 1, 1: 1}), Fraction(1, 2), 4)) == (
        "1 + 1/2*o - 1/8*o^2 + 1/16*o^3 - 5/128*o^4 + O(o^5)")
    assert R.table_text("a", 4).splitlines()[-1] == "  4  -1/30     0   1/3  -1/2  1/5"


def test_every_workload_op_matches_the_reference():
    for W in (wl_series, wl_calculus):
        ops = W.bind(W.generate(3), W.Program())
        for op in ops[:60]:
            try:
                value = op.run()
            except Exception as exc:  # an expected raise is an outcome
                value = exc
            assert op.ok(value), op.label


def test_tracer_self_times_add_up_and_restore():
    import omegacalc.omega as omega
    original = omega.OmegaNumber.__mul__
    ops = wl_series.bind(wl_series.generate(2), wl_series.Program())[:40]
    tr = T.Tracer()
    tr.install()
    try:
        loop = H.closed_loop(ops, seconds=0.5, root=tr.root)
    finally:
        tr.uninstall()
    assert loop.failed == 0
    assert tr.balanced()
    assert tr.calls["omega.from_terms"] > 0
    assert not tr.missing
    assert omega.OmegaNumber.__mul__ is original


def test_traced_run_is_correct_only_when_every_layer_is_found(monkeypatch):
    import run
    ops = wl_series.bind(wl_series.generate(2), wl_series.Program())[:20]
    _, correct, extra = run.span_metrics(wl_series.Program(), ops, seconds=0.2)
    assert correct and extra["missing_spans"] == []
    monkeypatch.setitem(T.LAYERS, "omega.gone", ["omega:OmegaNumber.no_such_method"])
    _, correct, extra = run.span_metrics(wl_series.Program(), ops, seconds=0.2)
    assert extra["missing_spans"] == ["omega:OmegaNumber.no_such_method"]
    assert not correct
