"""The CLI reports of the `docs/tasks` documents, at their own order and at
`--order 6`, against the reports committed under `tests/golden/`.

Keys, verdicts, residual names, orders and every other string, boolean or
integer must match exactly.  Floating-point numbers may differ by round-off,
|got - want| <= 1e-12 + 1e-9 |want|, and jets are compared as coefficient
maps in which a missing term reads as zero.  To refresh a golden report
after a deliberate change, run the document with `regfman run DOC --out
tests/golden/NAME.json` (or `NAME.order6.json` with `--order 6`) and say
why in the change log.
"""

import json
from pathlib import Path

import pytest

from regfman.cli import main

HERE = Path(__file__).resolve().parent
DOCS = HERE.parent / "docs" / "tasks"
GOLDEN = HERE / "golden"
ABS_TOL, REL_TOL = 1e-12, 1e-9

CASES = [
    (doc.stem, extra)
    for doc in sorted(DOCS.glob("*.json"))
    for extra in ((), ("--order", "6"))
]


def _close(got: complex, want: complex) -> bool:
    return abs(got - want) <= ABS_TOL + REL_TOL * abs(want)


def _is_term(item) -> bool:
    return (
        isinstance(item, list)
        and len(item) == 2
        and isinstance(item[0], list)
        and all(isinstance(i, int) and not isinstance(i, bool) for i in item[0])
        and isinstance(item[1], list)
        and len(item[1]) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in item[1])
    )


def _is_jet(value) -> bool:
    """A non-empty list of [multi-index, [re, im]] terms."""
    return isinstance(value, list) and bool(value) and all(_is_term(t) for t in value)


def _coefficients(jet) -> dict:
    return {tuple(idx): complex(re, im) for idx, (re, im) in jet}


def _compare(got, want, path: str):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            _compare(got[key], want[key], f"{path}/{key}")
    elif isinstance(want, list) and isinstance(got, list) and (_is_jet(got) or _is_jet(want)):
        # an empty list on one side is the zero jet
        assert all(_is_jet(x) or x == [] for x in (got, want)), path
        g, w = _coefficients(got), _coefficients(want)
        for idx in sorted(g.keys() | w.keys()):
            assert _close(g.get(idx, 0), w.get(idx, 0)), f"{path}{list(idx)}: {g.get(idx, 0)} vs {w.get(idx, 0)}"
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (x, y) in enumerate(zip(got, want)):
            _compare(x, y, f"{path}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), path
        assert _close(got, want), f"{path}: {got!r} vs {want!r}"
    else:
        # strings, booleans, integers (orders, sizes) and null
        assert type(got) is type(want) and got == want, f"{path}: {got!r} vs {want!r}"


@pytest.mark.parametrize("stem, extra", CASES, ids=[f"{s}{''.join(e)}" for s, e in CASES])
def test_report_matches_golden(tmp_path, stem, extra):
    out = tmp_path / "report.json"
    code = main(["run", str(DOCS / f"{stem}.json"), "--out", str(out), *extra])
    got = json.loads(out.read_text(encoding="utf-8"))
    name = f"{stem}.order6.json" if extra else f"{stem}.json"
    want = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    assert code == (0 if want["pass"] else 1)
    _compare(got, want, name)


def test_every_document_has_its_golden_reports():
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(
        f"{stem}.order6.json" if extra else f"{stem}.json" for stem, extra in CASES
    )


def test_comparison_reads_missing_jet_terms_as_zero_and_keeps_integers_exact():
    jet = [[[0, 0], [1.0, 0.0]], [[0, 1], [1e-17, 0.0]]]
    _compare({"j": jet[:1], "order": 3}, {"j": jet, "order": 3}, "doc")
    with pytest.raises(AssertionError):
        _compare({"order": 4}, {"order": 3}, "doc")
    with pytest.raises(AssertionError):
        _compare({"j": [[[0, 0], [1.0 + 1e-6, 0.0]]]}, {"j": jet[:1]}, "doc")
    with pytest.raises(AssertionError):
        _compare({"pass": False}, {"pass": True}, "doc")
