"""The two pipelines are lists of public stages.

``frobenius_verdict`` and ``initial_condition_extend`` call the public
checks that users and the benchmark tracer see, an ``extend-metric``
document validates its initial data once, and no public function of a
layer module is a bare wrapper of a private one.
"""

import argparse
import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

import regfman
from regfman.cli import run_document
from regfman.fman import standard_model
from regfman.frob import InvariantMetric, frobenius_verdict
from regfman.malgrange import initial_condition_extend
from test_malgrange import nilpotent_initial_data

DOCS = Path(__file__).resolve().parent.parent / "docs" / "tasks"
LAYERS = ("jets", "regend", "fman", "frob", "saito", "malgrange", "cli")


def _count_calls(monkeypatch, qualnames):
    """Count the calls of the named functions (``"layer.name"``), rebinding
    each one in every regfman namespace that holds it, so that calls
    through a name imported into another module are counted too."""
    modules = [importlib.import_module(f"regfman.{layer}") for layer in LAYERS]
    namespaces = [regfman, *modules]
    calls = dict.fromkeys(qualnames, 0)
    for qualname in qualnames:
        layer, name = qualname.split(".")
        fn = getattr(importlib.import_module(f"regfman.{layer}"), name)

        def counted(*args, _key=qualname, _fn=fn, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is fn:
                    monkeypatch.setattr(ns, attr, counted)
    return calls


def test_verdict_runs_the_public_checks(monkeypatch):
    model = standard_model([(0.0, 2), (1.5, 1)], 4)
    sp = model.space
    metric = InvariantMetric([2, 1], [[sp.constant(0.3), sp.constant(1.0) + sp.variable(1)], [sp.constant(2.0)]])
    calls = _count_calls(
        monkeypatch,
        ["frob.check_gamma", "frob.darboux_egoroff_residual", "frob.check_unit_flat", "frob.check_euler_rescaling"],
    )
    frobenius_verdict(metric, model, weight=2.0, run_oracle=False)
    assert calls == dict.fromkeys(calls, 1)


def test_extension_runs_the_public_stages(monkeypatch):
    calls = _count_calls(
        monkeypatch, ["fman.germ_isomorphism", "malgrange.fmanifold_on_chart", "regend.jordan_spectrum"]
    )
    assert initial_condition_extend(nilpotent_initial_data(a=0.0, h1=1.0, weight=3.0, order=3)).verdict.passed
    # one spectrum for each of the isomorphism's two models
    assert calls == {"fman.germ_isomorphism": 1, "malgrange.fmanifold_on_chart": 1, "regend.jordan_spectrum": 2}


def test_extend_metric_document_validates_its_data_once(monkeypatch):
    calls = _count_calls(monkeypatch, ["malgrange.validate_initial_data"])
    with open(DOCS / "extend-metric.json", encoding="utf-8") as handle:
        doc = json.load(handle)
    report, passed = run_document(doc, argparse.Namespace(order=None, tol=None))
    assert passed and report["verdicts"]["initial_data_valid"]["pass"]
    assert calls == {"malgrange.validate_initial_data": 1}


def test_malgrange_chart_document_computes_each_spectrum_once(monkeypatch):
    calls = _count_calls(monkeypatch, ["regend.jordan_spectrum"])
    with open(DOCS / "malgrange-chart.json", encoding="utf-8") as handle:
        doc = json.load(handle)
    report, passed = run_document(doc, argparse.Namespace(order=None, tol=None))
    assert passed and report["verdicts"]["spectrum_match"]["pass"]
    # the seed residue's, the chart model's and its standard model's; the
    # report reads the first two from the isomorphism
    assert calls == {"regend.jordan_spectrum": 3}


def _private_functions(trees) -> set[str]:
    return {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
    }


def _calls_private(node, private: set[str]) -> bool:
    """Whether an expression is a call of a private function, up to
    subscripts and method calls on its result."""
    while isinstance(node, (ast.Call, ast.Subscript, ast.Attribute)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in private:
                return True
            node = func.value if isinstance(func, ast.Attribute) else func
        else:
            node = node.value
    return False


def _bare_wrappers(trees) -> list[str]:
    """The public module-level functions whose body, past the docstring,
    is one return (or expression) of a call of a private function."""
    private = _private_functions(trees)
    found = []
    for layer, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
            if len(body) == 1 and isinstance(body[0], (ast.Return, ast.Expr)):
                if body[0].value is not None and _calls_private(body[0].value, private):
                    found.append(f"{layer}.{fn.name}")
    return found


def _layer_trees():
    return {
        layer: ast.parse(inspect.getsource(importlib.import_module(f"regfman.{layer}"))) for layer in LAYERS
    }


def test_no_public_function_is_a_bare_wrapper_of_a_private_one():
    assert _bare_wrappers(_layer_trees()) == []


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("def f(x):\n    '''doc'''\n    return _g(x)[0]\n\ndef _g(x):\n    return x", True),
        ("def f(x):\n    return m._g(x).h()\n\ndef _g(x):\n    return x", True),
        ("def f(x):\n    _g(x)\n\ndef _g(x):\n    return x", True),
        ("def f(x):\n    y = _g(x)\n    return y + 1\n\ndef _g(x):\n    return x", False),
        ("def f(x):\n    return _Helper(x).row(0)\n\nclass _Helper:\n    pass", False),
        ("def _f(x):\n    return _g(x)\n\ndef _g(x):\n    return x", False),
    ],
)
def test_the_wrapper_rule(source, flagged):
    assert bool(_bare_wrappers({"m": ast.parse(source)})) == flagged
