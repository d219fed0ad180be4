"""Value semantics of the library's immutable record classes.

One instance of each record class is checked for equality, hashing,
``repr`` text, immutability, pickling and copying; the classes that
validate their fields keep their exception types and messages.
"""

import argparse
import copy
import gc
import io
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from omegacalc import cli, expr
from omegacalc.aleph import AlephInt, GridPoint
from omegacalc.errors import DomainError, OutOfDomain
from omegacalc.functions import NsStarReport
from omegacalc.omega import ExtendedOmega, OmegaNumber
from omegacalc.parser import (
    Apply,
    BinOp,
    DiffForm,
    FuncRef,
    IntForm,
    Lit,
    Neg,
    PolyFunc,
    Pow,
    SolveForm,
    Sym,
    _Token,
)
from omegacalc.rational import RationalFunction

_O = Sym("o")

# (factory, field names in order, repr text).  The factory is called
# twice per test, so equality is checked between independent instances.
CASES = {
    "Lit": (lambda: Lit(Fraction(1, 2)), ("value",), "Lit(value=Fraction(1, 2))"),
    "Sym": (lambda: Sym("o"), ("name",), "Sym(name='o')"),
    "FuncRef": (lambda: FuncRef("exp"), ("name",), "FuncRef(name='exp')"),
    "PolyFunc": (
        lambda: PolyFunc((Lit(Fraction(1)), _O)),
        ("coeffs",),
        "PolyFunc(coeffs=(Lit(value=Fraction(1, 1)), Sym(name='o')))",
    ),
    "Neg": (lambda: Neg(_O), ("operand",), "Neg(operand=Sym(name='o'))"),
    "BinOp": (
        lambda: BinOp("+", Lit(Fraction(1, 2)), _O),
        ("op", "left", "right"),
        "BinOp(op='+', left=Lit(value=Fraction(1, 2)), right=Sym(name='o'))",
    ),
    "Pow": (
        lambda: Pow(_O, Fraction(1, 2)),
        ("base", "exponent"),
        "Pow(base=Sym(name='o'), exponent=Fraction(1, 2))",
    ),
    "Apply": (
        lambda: Apply(FuncRef("exp"), BinOp("+", Lit(Fraction(1)), _O)),
        ("func", "arg"),
        "Apply(func=FuncRef(name='exp'), arg=BinOp(op='+', "
        "left=Lit(value=Fraction(1, 1)), right=Sym(name='o')))",
    ),
    "DiffForm": (
        lambda: DiffForm("D", 2, FuncRef("sin")),
        ("kind", "order", "func"),
        "DiffForm(kind='D', order=2, func=FuncRef(name='sin'))",
    ),
    "IntForm": (
        lambda: IntForm(1, FuncRef("exp"), (Lit(Fraction(0)),)),
        ("order", "func", "inits"),
        "IntForm(order=1, func=FuncRef(name='exp'), inits=(Lit(value=Fraction(0, 1)),))",
    ),
    "SolveForm": (
        lambda: SolveForm(FuncRef("exp"), Lit(Fraction(2)), Fraction(1, 3)),
        ("func", "target", "seed"),
        "SolveForm(func=FuncRef(name='exp'), target=Lit(value=Fraction(2, 1)), "
        "seed=Fraction(1, 3))",
    ),
    "_Token": (
        lambda: _Token("int", "12", 3),
        ("kind", "text", "offset"),
        "_Token(kind='int', text='12', offset=3)",
    ),
    "OmegaNumber": (
        lambda: OmegaNumber.from_terms({-1: 2, 0: Fraction(1, 3)}, known_order=4),
        ("valuation", "coeffs", "known_order"),
        "OmegaNumber('2*S + 1/3 + O(o^5)')",
    ),
    "ExtendedOmega": (
        lambda: ExtendedOmega(OmegaNumber.one(), 2, -1),
        ("prefix", "position", "sign"),
        "ExtendedOmega(prefix=OmegaNumber('1'), position=2, sign=-1)",
    ),
    "AlephInt": (lambda: AlephInt.from_coeffs([3, 1]), ("value",), "AlephInt('S + 3')"),
    "GridPoint": (
        lambda: GridPoint(Fraction(1, 2), 3),
        ("t", "k"),
        "GridPoint(t=Fraction(1, 2), k=3)",
    ),
    "RationalFunction": (
        lambda: RationalFunction.from_polys([1, 1], [1, -1]),
        ("num", "den"),
        "RationalFunction(num=(Fraction(-1, 1), Fraction(-1, 1)), "
        "den=(Fraction(-1, 1), Fraction(1, 1)))",
    ),
    "NsStarReport": (
        lambda: NsStarReport(False, 2, (OmegaNumber.one(), OmegaNumber.o())),
        ("passed", "checked", "first_violation"),
        "NsStarReport(passed=False, checked=2, "
        "first_violation=(OmegaNumber('1'), OmegaNumber('o')))",
    ),
}

by_class = pytest.mark.parametrize("name", sorted(CASES))


def _fields(x, names):
    return tuple(getattr(x, n) for n in names)


@by_class
def test_equal_values_are_equal(name):
    make, _, _ = CASES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b


@by_class
def test_equal_values_hash_equal_and_key_dicts(name):
    make, _, _ = CASES[name]
    a, b = make(), make()
    assert hash(a) == hash(b)
    assert {a: name}[b] == name


@by_class
def test_repr_text(name):
    make, _, text = CASES[name]
    assert repr(make()) == text


@by_class
def test_differs_from_its_field_tuple(name):
    make, names, _ = CASES[name]
    x = make()
    assert x != _fields(x, names)
    assert x.__eq__(_fields(x, names)) is NotImplemented


@pytest.mark.parametrize(
    "a, b",
    [
        (FuncRef("o"), Sym("o")),
        (Lit(_O), Neg(_O)),
        (Pow(_O, Fraction(2)), Apply(_O, Fraction(2))),
        (_Token("D", 2, _O), DiffForm("D", 2, _O)),
        (GridPoint(Fraction(1), 2), Pow(Fraction(1), 2)),
    ],
    ids=lambda x: type(x).__name__,
)
def test_equal_fields_of_different_classes_differ(a, b):
    assert a != b and b != a
    assert not a == b


@by_class
def test_fields_cannot_be_assigned_or_deleted(name):
    make, names, _ = CASES[name]
    x = make()
    for field in names:
        before = getattr(x, field)
        with pytest.raises(AttributeError):
            setattr(x, field, None)
        with pytest.raises(AttributeError):
            delattr(x, field)
        assert getattr(x, field) is before


@by_class
def test_new_attributes_cannot_be_added(name):
    make, _, _ = CASES[name]
    with pytest.raises(AttributeError):
        make().extra = 1


@pytest.mark.parametrize("make", [lambda: Sym(), lambda: BinOp("+", _O), lambda: Lit(1, 2)])
def test_wrong_field_count_is_a_type_error(make):
    with pytest.raises(TypeError):
        make()


@by_class
def test_instances_have_no_dict(name):
    make, _, _ = CASES[name]
    assert not hasattr(make(), "__dict__")


@by_class
@pytest.mark.parametrize(
    "roundtrip",
    [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_pickle_and_copy_roundtrip(name, roundtrip):
    make, names, text = CASES[name]
    x = make()
    y = roundtrip(x)
    assert type(y) is type(x)
    assert y == x and hash(y) == hash(x)
    assert repr(y) == text
    assert _fields(y, names) == _fields(x, names)


def test_extended_omega_defaults():
    x = ExtendedOmega(OmegaNumber.one())
    assert x.position is None and x.sign == 0
    assert repr(x) == "ExtendedOmega(prefix=OmegaNumber('1'), position=None, sign=0)"


def test_keyword_construction_of_validated_classes():
    one = OmegaNumber.one()
    assert OmegaNumber(valuation=0, coeffs=(Fraction(1),), known_order=None) == one
    assert ExtendedOmega(prefix=one, position=2, sign=1) == ExtendedOmega(one, 2, 1)
    assert AlephInt(value=one) == AlephInt.from_int(1)


@pytest.mark.parametrize(
    "args, message",
    [
        ((None, (Fraction(1),), None), "nonzero value needs a valuation"),
        ((0, (Fraction(0), Fraction(1)), None), "stored window must start and end nonzero"),
        ((0, (Fraction(1), Fraction(0)), None), "stored window must start and end nonzero"),
        ((0, (Fraction(1), Fraction(1)), 0), "stored terms extend past the known order"),
        ((0, (), None), "zero carries no valuation"),
    ],
)
def test_omega_number_checks(args, message):
    with pytest.raises(ValueError) as info:
        OmegaNumber(*args)
    assert type(info.value) is ValueError
    assert str(info.value) == message


@pytest.mark.parametrize(
    "args, message",
    [
        ((OmegaNumber.zero(), 1, 2), "infinite moment sign must be +1 or -1"),
        ((OmegaNumber.zero(), 1, 0), "infinite moment sign must be +1 or -1"),
        (
            (OmegaNumber.from_terms({0: 1}, known_order=3), 4, 1),
            "prefix of an extended value must be exact",
        ),
        (
            (OmegaNumber.from_terms({0: 1, 2: 1}), 2, 1),
            "finite coefficients may not sit at or beyond the infinite moment",
        ),
    ],
)
def test_extended_omega_checks(args, message):
    with pytest.raises(DomainError) as info:
        ExtendedOmega(*args)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "value, message",
    [
        (OmegaNumber.from_terms({0: 1}, known_order=3), "nonstandard integers are exact values"),
        (OmegaNumber.from_terms({0: 1, 1: 1}), "value has a nonzero o-part"),
        (OmegaNumber.from_rational(Fraction(1, 2)), "constant term is not an integer"),
    ],
)
def test_aleph_int_checks(value, message):
    with pytest.raises(OutOfDomain) as info:
        AlephInt(value)
    assert str(info.value) == message


def _loaded_by(module: str, names) -> list[str]:
    """Those of ``names`` that ``import module`` loads in a fresh interpreter.

    ``-S`` keeps the machine's ``site`` hooks, which may import ``typing``
    themselves, out of the check.
    """
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = f"import sys, {module}\nprint(' '.join(m for m in {tuple(names)!r} if m in sys.modules))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.split()


def test_cli_import_loads_no_dataclasses_or_typing():
    assert _loaded_by("omegacalc.cli", ("dataclasses", "inspect", "typing")) == []


def test_expr_import_loads_no_cli_modules():
    """The evaluators load without the command line's modules."""
    assert _loaded_by("omegacalc.expr", ("argparse", "json", "dataclasses", "typing")) == []


def test_cli_holds_the_evaluators_themselves():
    # perfbench's LAYERS["cli.evaluate"] names cli:evaluate and
    # cli:evaluate_rational; its tracer wraps a function in every module
    # that holds the same object, so the recursion inside expr is timed.
    assert cli.evaluate is expr.evaluate
    assert cli.evaluate_rational is expr.evaluate_rational


def _fresh_cli(code: str) -> str:
    """The stdout of ``code`` run after ``import omegacalc.cli`` in a fresh
    ``-S`` interpreter."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("OMEGA_MAX_ORDER", None)
    out = subprocess.run(
        [sys.executable, "-S", "-c", "import io, sys, omegacalc.cli as cli\n" + code],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout


def test_cli_loads_json_for_json_output_only():
    code = (
        "cli.main(['eval', '1+o'], out=io.StringIO())\n"
        "print('json' in sys.modules)\n"
        "cli.main(['--format', 'json', 'eval', '1+o'], out=io.StringIO())\n"
        "print('json' in sys.modules)"
    )
    assert _fresh_cli(code).split() == ["False", "True"]


def test_one_shot_request_builds_its_own_command_parser_only(monkeypatch):
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert cli.main(["eval", "1+o"], out=io.StringIO()) == 0
    assert progs == ["omega-calc", "omega-calc eval"]


def test_main_leaves_the_collector_alone():
    """Only the console-script entry point freezes the start-up objects."""
    before = gc.get_freeze_count()
    assert cli.main(["eval", "1+o"], out=io.StringIO()) == 0
    assert gc.get_freeze_count() == before
    code = (
        "import gc\n"
        "sys.argv = ['omega-calc', 'eval', '1+o']\n"
        "try:\n"
        "    cli.entrypoint()\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, gc.get_freeze_count() > 0)"
    )
    assert _fresh_cli(code).split() == ["1", "+", "o", "0", "True"]
