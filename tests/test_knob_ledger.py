"""Ledger of the defaulted parameters of the public API.

Every parameter with a default is a setting that callers may leave out,
and each one multiplies the configurations that tests must cover.  The
ledger below lists every such parameter of the public functions, methods
and constructors of the library modules, so adding or removing one is a
deliberate edit here.  A value that every caller leaves at its default
belongs in a named module constant next to the code that applies it.
"""

import importlib
import inspect

MODULES = ("jets", "regend", "fman", "frob", "saito", "malgrange", "reports", "cli")

LEDGER = (
    "cli.main(argv)",
    "fman.FManifoldModel.__init__(blocks)",
    "fman.check_symmetry_brackets(order)",
    "fman.standard_block(order)",
    "fman.standard_model(order)",
    "fman.symmetry_basis(order)",
    "frob.check_euler_rescaling(weight)",
    "frob.epsilon_metric(order)",
    "frob.frobenius_verdict(run_oracle)",
    "frob.frobenius_verdict(tolerance)",
    "frob.frobenius_verdict(weight)",
    "jets.Jet.from_coeffs(eff)",
    "jets.JetArray.from_coeffs(eff)",
    "malgrange.initial_condition_extend(tolerance)",
    "malgrange.initial_condition_extend(validation_tolerance)",
    "malgrange.integrate_chart(order)",
    "regend.jordan_spectrum(regularity)",
    "regend.jordan_spectrum(return_details)",
    "reports.ResidualReport.__init__(entries)",
    "reports.ResidualReport.merged(prefix)",
    "reports.ResidualReport.passes(tolerance)",
    "saito.SaitoBundle.__init__(frame_connection)",
    "saito.SaitoBundle.__init__(metric)",
)


def _public_callables(module):
    """(qualified name, function) of the module's public functions and of
    the public methods and constructors of its public classes, inherited
    ones included."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            seen = set()
            for klass in obj.__mro__:
                if not klass.__module__.startswith("regfman."):
                    continue
                for attr, value in vars(klass).items():
                    if attr in seen or (attr.startswith("_") and attr != "__init__"):
                        continue
                    seen.add(attr)
                    if isinstance(value, (classmethod, staticmethod)):
                        value = value.__func__
                    if inspect.isfunction(value):
                        yield f"{name}.{attr}", value


def _defaulted_parameters():
    out = []
    for layer in MODULES:
        module = importlib.import_module(f"regfman.{layer}")
        for qual, fn in _public_callables(module):
            out += [
                f"{layer}.{qual}({p.name})"
                for p in inspect.signature(fn).parameters.values()
                if p.default is not inspect.Parameter.empty
            ]
    return sorted(out)


def test_defaulted_parameters_match_the_ledger():
    assert _defaulted_parameters() == sorted(LEDGER)
