"""Ledger of the public surface, and of the one door from nested jets into
arrays.

The package exports the names below and nothing else, so adding or removing
an export is a deliberate edit here.  Every stage of the pipeline takes
``JetArray`` inputs; ``JetArray.from_jets`` stacks nested jets, and ``src/``
calls it only where jets are built: in ``Jet.compose`` and in the metric and
one-form families (which accept one family of jets per block).  ``Jet``, a
single jet, is a ``JetArray`` subclass with one member of its own.  Outside
``jets.py`` no module names ``Jet`` or ``JetMatrix`` but the package's
export of ``Jet``; the CLI decodes and encodes arrays.  ``JetMatrix`` keeps
only the members the benchmark's kernel grid uses.  README's quick start
runs as written.
"""

import ast
import contextlib
import io
import re
from pathlib import Path

import regfman
from regfman.jets import Jet, JetArray, JetMatrix

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "regfman"

EXPORTS = (
    "BirkhoffConnection",
    "BracketConstants",
    "DEFAULT_ORDER",
    "DeformationSpec",
    "FManifoldModel",
    "GermIsomorphism",
    "InitialData",
    "InvariantMetric",
    "Jet",
    "JetArray",
    "JetSpace",
    "JordanSpectrum",
    "MalgrangeChart",
    "OneForm",
    "RegfmanError",
    "Residual",
    "ResidualReport",
    "RotationOperator",
    "SaitoBundle",
    "b0_at",
    "birkhoff_flatness",
    "birkhoff_to_saito",
    "canonical_connection",
    "canonical_frame",
    "characteristic_polynomial",
    "check_euler_rescaling",
    "check_fmanifold",
    "check_frame_brackets",
    "check_gamma",
    "check_integrality",
    "check_saito_axioms",
    "check_saito_metric_axioms",
    "check_symmetry",
    "check_symmetry_brackets",
    "check_unit_flat",
    "check_universality_isomorphism",
    "contract",
    "cyclic_basis_representation",
    "darboux_egoroff_residual",
    "epsilon_metric",
    "errors",
    "fman",
    "fmanifold_from_saito",
    "fmanifold_on_chart",
    "frob",
    "frobenius_from_saito",
    "frobenius_verdict",
    "gamma_operator",
    "germ_isomorphism",
    "initial_condition_extend",
    "integrate_chart",
    "invert_oneform",
    "is_regular",
    "jet_space",
    "jets",
    "jordan_spectrum",
    "levi_civita_curvature",
    "malgrange",
    "metric_from_potential",
    "metric_from_psi",
    "minimal_polynomial",
    "mult_by_euler",
    "product_model",
    "psi_from_metric",
    "regend",
    "reports",
    "saito",
    "same_conjugacy_class",
    "standard_block",
    "standard_model",
    "structure_brackets",
    "symmetry_basis",
    "validate_initial_data",
)

# (module, enclosing class) of every call of ``from_jets``; None: outside
# any class
FROM_JETS_SCOPES = {("jets", "Jet"), ("frob", "_BlockJets")}

OBJECT_KERNEL = {"Jet", "JetMatrix"}

# the members of the JetMatrix stub: perfbench/kernels.py builds 3x3 jet
# matrices and multiplies them, and perfbench/tracing.py patches __matmul__
JET_MATRIX_MEMBERS = {"__init__", "__matmul__", "entries", "rows", "cols"}


def test_exports_match_the_ledger():
    assert sorted(regfman.__all__) == sorted(EXPORTS)


def _from_jets_scopes(module: str, tree: ast.AST):
    """(module, enclosing class) of every call of an attribute named
    ``from_jets``; the class is None outside any class."""

    def visit(node, klass):
        if isinstance(node, ast.ClassDef):
            klass = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "from_jets":
            yield module, klass
        for child in ast.iter_child_nodes(node):
            yield from visit(child, klass)

    yield from visit(tree, None)


def test_from_jets_is_called_only_where_jets_are_built():
    scopes = set()
    for path in sorted(SRC.glob("*.py")):
        scopes |= set(_from_jets_scopes(path.stem, ast.parse(path.read_text(encoding="utf-8"))))
    assert scopes == FROM_JETS_SCOPES


def _object_kernel_names(tree: ast.AST):
    """Every mention of ``Jet`` or ``JetMatrix`` as a name, an attribute or
    an imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in OBJECT_KERNEL:
            yield node.id
        elif isinstance(node, ast.Attribute) and node.attr in OBJECT_KERNEL:
            yield node.attr
        elif isinstance(node, ast.alias) and node.name in OBJECT_KERNEL:
            yield node.name


def test_the_object_kernel_is_named_only_in_jets_and_the_export():
    named = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "jets":
            names = sorted(_object_kernel_names(ast.parse(path.read_text(encoding="utf-8"))))
            if names:
                named[path.stem] = names
    assert named == {"__init__": ["Jet"]}


def test_a_single_jet_is_an_array_with_compose_its_only_member():
    assert Jet.__mro__[1] is JetArray
    assert set(vars(Jet)) - {"__module__", "__doc__", "__slots__", "__annotations__"} == {"compose"}
    assert Jet.__slots__ == ()


def test_the_jet_matrix_stub_keeps_only_the_members_perfbench_uses():
    members = {name for name, value in vars(JetMatrix).items() if not name.startswith("__") or callable(value)}
    assert members == JET_MATRIX_MEMBERS


def test_readme_quick_start_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), namespace)
    assert len(out.getvalue().splitlines()) == 3
    assert namespace["check_fmanifold"](namespace["model"]).passes(1e-12)
    assert namespace["verdict"].passed
    # the extended metric component is 1 + t1
    sp = namespace["result"].metric.space
    assert (namespace["result"].metric.eta[0][1] - (sp.constant(1.0) + sp.variable(1))).residual_norm() < 1e-12
