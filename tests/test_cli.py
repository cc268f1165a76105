"""CLI tests: document parsing, exit codes, determinism, explain."""

import argparse
import json
import re
from pathlib import Path

import pytest

from regfman.cli import _settings_in, explain, main
from regfman.jets import Jet, JetArray, JetMatrix
from saito_cases import metric_gauged_bundle

DOCS = Path(__file__).resolve().parent.parent / "docs" / "tasks"


def run_doc(tmp_path, doc, argv_extra=(), name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "report.json"
    code = main(["run", str(path), "--out", str(out), *argv_extra])
    report = json.loads(out.read_text(encoding="utf-8")) if out.exists() else None
    return code, report


def set_payload(doc, path, value):
    """``doc`` with the payload field at ``path`` ("a/b") set to ``value``."""
    *parents, key = path.split("/")
    target = doc["payload"]
    for name in parents:
        target = target[name]
    target[key] = value
    return doc


def spectrum_doc(task="verify-fmanifold", **kwargs):
    doc = {
        "schema": "regfman-doc/1",
        "task": task,
        "settings": {"order": 3, "tolerance": 1e-9},
        "payload": {"spectrum": [{"re": 0.0, "im": 0.0, "size": 2}]},
    }
    doc.update(kwargs)
    return doc


class TestRun:
    def test_verify_fmanifold_passes(self, tmp_path):
        code, report = run_doc(tmp_path, spectrum_doc())
        assert code == 0
        assert report["pass"] is True
        assert report["task"] == "verify-fmanifold"
        assert all(v["pass"] for v in report["verdicts"].values())

    def test_every_example_document(self, tmp_path):
        for doc_path in sorted(DOCS.glob("*.json")):
            out = tmp_path / (doc_path.stem + ".report.json")
            code = main(["run", str(doc_path), "--out", str(out)])
            assert code == 0, doc_path
            report = json.loads(out.read_text(encoding="utf-8"))
            assert report["pass"] is True

    def test_failing_metric_exits_1(self, tmp_path):
        doc = spectrum_doc(task="verify-frobenius")
        # eta0 = t1 is not a Frobenius metric
        doc["payload"]["eta"] = [
            [
                [[[0, 1], [1.0, 0.0]]],
                [[[0, 0], [1.0, 0.0]]],
            ]
        ]
        code, report = run_doc(tmp_path, doc)
        assert code == 1
        assert report["pass"] is False
        assert report["verdicts"]["frobenius"]["pass"] is False
        # the oracle must agree with the chain verdict
        assert report["verdicts"]["oracle_agrees"]["pass"] is True

    def test_malformed_multi_index_exits_2(self, tmp_path, capsys):
        doc = spectrum_doc(task="verify-frobenius")
        doc["payload"]["eta"] = [[[[[0], [1.0, 0.0]]], []]]  # wrong index length
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["run", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "payload/eta" in err

    def test_unknown_task_exits_2(self, tmp_path, capsys):
        code, _ = run_doc(tmp_path, spectrum_doc(task="bogus"))
        assert code == 2
        assert "unknown task" in capsys.readouterr().err

    def test_repeated_eigenvalue_exits_2(self, tmp_path, capsys):
        doc = spectrum_doc()
        doc["payload"]["spectrum"] = [
            {"re": 1.0, "im": 0.0, "size": 1},
            {"re": 1.0, "im": 0.0, "size": 1},
        ]
        code, _ = run_doc(tmp_path, doc)
        assert code == 2

    def test_determinism(self, tmp_path):
        doc = spectrum_doc(task="extend-metric")
        doc["payload"] = {
            "spectrum": [{"re": 0.0, "im": 0.0, "size": 2}],
            "gram": [[0.0, 1.0], [1.0, 0.0]],
            "skew": [[-0.5, 0.0], [0.0, 0.5]],
            "weight": [3.0, 0.0],
        }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["run", str(path), "--out", str(out_a)]) == 0
        assert main(["run", str(path), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_settings_echo_round_trip(self, tmp_path):
        code, report = run_doc(tmp_path, spectrum_doc(), argv_extra=["--order", "4"])
        assert code == 0
        assert report["settings"]["order"] == 4
        # re-run with the echoed settings: same verdicts
        doc = spectrum_doc()
        doc["settings"] = report["settings"]
        code2, report2 = run_doc(tmp_path, doc, name="again.json")
        assert code2 == 0
        assert report2["verdicts"] == report["verdicts"]

    def test_env_tolerance_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REGFMAN_TOL", "1e-3")
        doc = spectrum_doc()
        del doc["settings"]["tolerance"]
        code, report = run_doc(tmp_path, doc)
        assert code == 0
        assert report["settings"]["tolerance"] == pytest.approx(1e-3)

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        import io

        doc = spectrum_doc()
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code = main(["run", "-"])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["pass"] is True

    def test_provenance_surfaces_clustering(self, tmp_path):
        _, report = run_doc(tmp_path, spectrum_doc())
        assert "eigenvalue_clustering" in report["provenance"]

    def test_explicit_model_round_trip(self, tmp_path):
        # serialize a canonical model through standard-model, feed it back
        # as an explicit model payload
        doc = spectrum_doc(task="standard-model")
        code, report = run_doc(tmp_path, doc)
        assert code == 0
        explicit = {
            "schema": "regfman-doc/1",
            "task": "verify-fmanifold",
            "settings": {"order": 3, "tolerance": 1e-9},
            "payload": {"model": report["model"]},
        }
        code2, report2 = run_doc(tmp_path, explicit, name="explicit.json")
        assert code2 == 0
        assert report2["pass"] is True

    def test_potential_payload(self, tmp_path):
        doc = spectrum_doc(task="verify-frobenius")
        # H = t0 t1 + t1 + t1^2/2: eta = (t1 + 1 + ..., t0 + 1 + t1)?
        # use H = t1 + t1^2/2 -> eta = (0, 1 + t1): the flat family
        doc["payload"]["potential"] = [
            [[0, 1], [1.0, 0.0]],
            [[0, 2], [0.5, 0.0]],
        ]
        code, report = run_doc(tmp_path, doc)
        assert code == 0
        assert report["verdicts"]["frobenius"]["pass"] is True

    def test_saito_check_with_frame_connection(self, tmp_path):
        # built one order higher, so the Higgs field and the connection
        # (derivatives of chart data) are exact at the document's order
        bundle = metric_gauged_bundle(order=4)
        order = 3

        def jets(arr):
            if isinstance(arr, Jet):
                terms = sorted(arr.terms().items())
                return [[list(e), [c.real, c.imag]] for e, c in terms if sum(e) <= order]
            return [jets(arr[i]) for i in range(len(arr))]

        def doc(frame):
            return {
                "schema": "regfman-doc/1",
                "task": "saito-check",
                "settings": {"order": order, "tolerance": 1e-9},
                "payload": {
                    "bundle": {
                        "base_dim": bundle.base_dim,
                        "phi": jets(bundle.phi),
                        "r0": jets(bundle.r0),
                        "rinf": [[[z.real, z.imag] for z in row] for row in bundle.rinf],
                        "metric": [[[z.real, z.imag] for z in row] for row in bundle.metric],
                        "frame_connection": jets(frame),
                    }
                },
            }

        code, report = run_doc(tmp_path, doc(bundle.frame_connection))
        assert code == 0
        assert report["pass"] is True
        assert report["residuals"]["curvature"]["order"] == order - 1
        assert "metric_nabla_metric" in report["residuals"]
        # a non-closed scalar shift of Omega_0 breaks flatness and nothing else
        sp = bundle.space
        shift = JetArray.from_jets(JetMatrix.identity(sp, 2).scale(sp.variable(1)))
        frame = JetArray.stack([bundle.frame_connection[0] + shift, bundle.frame_connection[1]])
        code, report = run_doc(tmp_path, doc(frame), name="broken.json")
        assert code == 1
        broken = {name for name, v in report["verdicts"].items() if not v["pass"]}
        assert broken == {"curvature", "metric_nabla_metric"}

    def test_saito_check_at_its_own_order_with_declared_effective_order(self, tmp_path):
        # the Higgs field holds derivatives of chart data, trusted to K - 1:
        # read back as exact to K, its top degree breaks d_nabla(Phi) = 0
        bundle = metric_gauged_bundle(order=4)
        order = bundle.space.order

        def jets(arr, declare):
            if isinstance(arr, Jet):
                terms = [[list(e), [c.real, c.imag]] for e, c in sorted(arr.terms().items())]
                return {"terms": terms, "eff_order": order - 1} if declare else terms
            return [jets(arr[i], declare) for i in range(len(arr))]

        def doc(declare):
            return {
                "schema": "regfman-doc/1",
                "task": "saito-check",
                "settings": {"order": order, "tolerance": 1e-9},
                "payload": {
                    "bundle": {
                        "base_dim": bundle.base_dim,
                        "phi": jets(bundle.phi, declare),
                        "r0": jets(bundle.r0, False),
                        "rinf": [[[z.real, z.imag] for z in row] for row in bundle.rinf],
                        "metric": [[[z.real, z.imag] for z in row] for row in bundle.metric],
                        "frame_connection": jets(bundle.frame_connection, False),
                    }
                },
            }

        code, report = run_doc(tmp_path, doc(True))
        assert code == 0 and report["pass"] is True
        assert report["residuals"]["d_nabla_phi"]["order"] == order - 1
        code, report = run_doc(tmp_path, doc(False), name="undeclared.json")
        assert code == 1
        assert report["residuals"]["d_nabla_phi"]["value"] > 0.1

    @pytest.mark.parametrize("jet", [{"terms": []}, {"terms": [], "eff_order": -1}, {"terms": [], "eff_order": 1.5}])
    def test_malformed_effective_order_exits_2(self, tmp_path, jet):
        doc = json.loads((DOCS / "verify-frobenius.json").read_text(encoding="utf-8"))
        doc["payload"]["eta"][0][0] = jet
        code, report = run_doc(tmp_path, doc)
        assert code == 2 and report is None

    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("order", True, "settings/order"),
            ("order", 3.0, "settings/order"),
            ("tolerance", True, "settings/tolerance"),
            ("tolerance", "1e-9", "settings/tolerance"),
            ("tolerance", 10**400, "settings/tolerance"),
        ],
    )
    def test_settings_take_no_booleans_strings_or_fractions(self, tmp_path, capsys, key, value, field):
        doc = spectrum_doc()
        doc["settings"][key] = value
        code, report = run_doc(tmp_path, doc)
        assert code == 2 and report is None
        assert f"{field}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("size", 2.7), ("size", "2"), ("size", True), ("re", "1.5"), ("im", False), ("re", 10**400), ("im", -(10**400))],
    )
    def test_spectrum_takes_numeric_eigenvalues_and_integer_sizes(self, tmp_path, capsys, key, value):
        doc = spectrum_doc()
        doc["payload"]["spectrum"][0][key] = value
        code, report = run_doc(tmp_path, doc)
        assert code == 2 and report is None
        assert "payload/spectrum[0]:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "term, field",
        [
            ([[True, 0], [1.0, 0.0]], "payload/eta[0][0][0]"),
            ([[0.0, 0], [1.0, 0.0]], "payload/eta[0][0][0]"),
            ([[0, 0], [True, 0.0]], "payload/eta[0][0][0]"),
            ([[0, 0], "1.0"], "payload/eta[0][0][0]"),
            ([[0, 0], 10**400], "payload/eta[0][0][0]"),
            ([[0, 0], [0.0, 10**400]], "payload/eta[0][0][0]"),
        ],
    )
    def test_jet_terms_take_only_integer_indices_and_numeric_values(self, tmp_path, capsys, term, field):
        doc = json.loads((DOCS / "verify-frobenius.json").read_text(encoding="utf-8"))
        doc["payload"]["eta"][0][0] = [term]
        code, report = run_doc(tmp_path, doc)
        assert code == 2 and report is None
        assert f"{field}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "task, path, value",
        [("symmetries", "m", 3.0), ("symmetries", "m", True), ("saito-check", "bundle/base_dim", "2")],
    )
    def test_integer_payload_fields_reject_other_types(self, tmp_path, capsys, task, path, value):
        doc = json.loads((DOCS / f"{task}.json").read_text(encoding="utf-8"))
        code, report = run_doc(tmp_path, set_payload(doc, path, value))
        assert code == 2 and report is None
        assert f"payload/{path}:" in capsys.readouterr().err

    def test_a_non_regular_seed_residue_exits_2(self, tmp_path, capsys):
        # the identity has no cyclic vector: a regularity refusal, reported
        # at the field with the best Krylov condition the probes found
        doc = json.loads((DOCS / "malgrange-chart.json").read_text(encoding="utf-8"))
        code, report = run_doc(tmp_path, set_payload(doc, "b0o", [[1.0, 0.0], [0.0, 1.0]]))
        assert code == 2 and report is None
        err = capsys.readouterr().err
        assert re.search(r"payload/b0o: b0o must be regular: best Krylov condition \S+ on probe \w+", err), err

    @pytest.mark.parametrize(
        "task, path, value",
        [
            ("germ-iso", "model_a", 5),
            ("verify-fmanifold", "model/unit", 5),
            ("verify-fmanifold", "model/euler", 5),
            ("verify-fmanifold", "model/mult", 7),
            ("saito-check", "bundle/frame_connection", 3),
            ("saito-check", "bundle/frame_connection", []),
            ("saito-check", "bundle/base_dim", 0),
            ("saito-check", "bundle/base_dim", -1),
            ("extend-metric", "gram", [[1.0]]),
            ("extend-metric", "skew", [[0.0, 0.0, 0.0]] * 3),
            ("malgrange-chart", "binf", [[0.0]]),
        ],
    )
    def test_payload_fields_of_the_wrong_kind_exit_2(self, tmp_path, capsys, task, path, value):
        if task == "verify-fmanifold":
            # the one-dimensional model e = d_0, E = t0 d_0
            one, t0 = [[[0], [1.0, 0.0]]], [[[1], [1.0, 0.0]]]
            model = {"dim": 1, "mult": [{"i": 0, "j": 0, "k": 0, "jet": one}], "unit": [one], "euler": [t0]}
            doc = spectrum_doc(payload={"model": model})
            (tmp_path / "valid").mkdir()
            assert run_doc(tmp_path / "valid", doc)[0] == 0
        else:
            doc = json.loads((DOCS / f"{task}.json").read_text(encoding="utf-8"))
        code, report = run_doc(tmp_path, set_payload(doc, path, value))
        assert code == 2 and report is None
        assert f"payload/{path}:" in capsys.readouterr().err

    def test_phi_is_counted_before_the_space_is_built(self, tmp_path, capsys):
        # a space of 10**9 variables is never built: phi lists one matrix
        doc = json.loads((DOCS / "saito-check.json").read_text(encoding="utf-8"))
        code, report = run_doc(tmp_path, set_payload(doc, "bundle/base_dim", 10**9))
        assert code == 2 and report is None
        assert "payload/bundle/phi: bundle.phi must list one jet matrix per base variable" in capsys.readouterr().err

    def test_ragged_connection_matrices_exit_2(self, tmp_path, capsys):
        # C_0 is 1 x 1 and C_1 is 2 x 2 over a two-dimensional base
        doc = json.loads((DOCS / "birkhoff-flatness.json").read_text(encoding="utf-8"))
        zero = [[[], []], [[], []]]
        doc["payload"]["connection"].update(c=[[[[]]], zero], b0=zero)
        code, report = run_doc(tmp_path, doc)
        assert code == 2 and report is None
        assert "payload/connection: jet array entries must form a rectangular array" in capsys.readouterr().err

    def test_extend_metric_extends_at_the_validation_threshold_it_reports(self, tmp_path):
        # data valid at max(tolerance, 1e-8) are extended, not refused by a
        # second validation at a fixed 1e-8
        doc = json.loads((DOCS / "extend-metric.json").read_text(encoding="utf-8"))
        doc["payload"]["gram"][1][1] = 1e-7
        doc["settings"]["tolerance"] = 1e-6
        code, report = run_doc(tmp_path, doc)
        assert code == 0 and report["pass"] is True
        assert report["verdicts"]["initial_data_valid"]["residual"] == pytest.approx(1e-7)
        assert report["verdicts"]["frobenius"]["pass"] is True

    def test_inadmissible_extend_metric_reports_only_its_validation(self, tmp_path):
        doc = json.loads((DOCS / "extend-metric.json").read_text(encoding="utf-8"))
        doc["payload"]["gram"][1][1] += 1e-3
        code, report = run_doc(tmp_path, doc)
        assert code == 1 and report["pass"] is False
        envelope = {"schema", "task", "settings", "pass", "provenance"}
        assert set(report) - envelope == {"validation", "gram_condition", "verdicts"}
        assert list(report["verdicts"]) == ["initial_data_valid"]
        verdict = report["verdicts"]["initial_data_valid"]
        assert verdict["pass"] is False
        assert verdict["residual"] == pytest.approx(1e-3)
        assert report["validation"]["gram_invariance"]["value"] == pytest.approx(1e-3)

    def test_germ_iso_mismatch_exits_2(self, tmp_path, capsys):
        doc = {
            "schema": "regfman-doc/1",
            "task": "germ-iso",
            "settings": {"order": 3},
            "payload": {
                "model_a": {"spectrum": [{"re": 0.0, "im": 0.0, "size": 2}]},
                "model_b": {"spectrum": [{"re": 1.0, "im": 0.0, "size": 2}]},
            },
        }
        code, _ = run_doc(tmp_path, doc)
        assert code == 2
        assert "conjugate" in capsys.readouterr().err


# A non-default value for every document setting and every flag of
# `regfman run`.  Each must change what a run writes (the report outside
# its settings echo, the output file or a stream), so a setting or flag
# without an effect, or a new one without a probe here, fails.
SETTING_PROBES = {"order": 5, "tolerance": 1e-3}
FLAG_PROBES = {"--order": ["5"], "--tol": ["1e-3"], "--out": ["report.json"], "--summary": []}


def _run_flags(capsys) -> list[str]:
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    return sorted(set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"})


def _written(tmp_path, capsys, doc, argv=()):
    """Exit code, stdout and stderr (a JSON report without its settings
    echo) and the report file of one run in ``tmp_path``."""
    (tmp_path / "doc.json").write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "report.json"
    out.unlink(missing_ok=True)
    code = main(["run", "doc.json", *argv])
    streams = capsys.readouterr()
    try:
        stdout = json.loads(streams.out)
        stdout.pop("settings")
    except ValueError:
        stdout = streams.out
    return code, stdout, streams.err, out.read_text(encoding="utf-8") if out.exists() else None


class TestEverySettingHasAnEffect:
    @pytest.fixture
    def base(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REGFMAN_TOL", raising=False)
        doc = json.loads((DOCS / "verify-frobenius.json").read_text(encoding="utf-8"))
        doc["settings"] = {}
        return doc

    def test_every_document_setting(self, tmp_path, capsys, base):
        args = argparse.Namespace(**{flag[2:]: None for flag in _run_flags(capsys)})
        assert sorted(_settings_in(base, args)) == sorted(SETTING_PROBES)
        want = _written(tmp_path, capsys, base)
        for key, value in SETTING_PROBES.items():
            doc = dict(base, settings={key: value})
            assert _written(tmp_path, capsys, doc) != want, key

    def test_every_run_flag(self, tmp_path, capsys, base):
        assert _run_flags(capsys) == sorted(FLAG_PROBES)
        want = _written(tmp_path, capsys, base)
        for flag, values in FLAG_PROBES.items():
            assert _written(tmp_path, capsys, base, [flag, *values]) != want, flag

    def test_a_dropped_flag_exits_2(self, tmp_path, capsys, base):
        with pytest.raises(SystemExit) as exc:
            _written(tmp_path, capsys, base, ["--seed", "1"])
        assert exc.value.code == 2


class TestExplain:
    def test_known_tasks(self):
        text = explain("verify-frobenius")
        assert "darboux_egoroff" in text
        text = explain("extend-metric")
        assert "origin_match" in text

    def test_unknown_task(self):
        from regfman.errors import DocumentError

        with pytest.raises(DocumentError):
            explain("bogus")

    def test_cli_explain_exit_codes(self, capsys):
        assert main(["explain", "symmetries"]) == 0
        assert main(["explain", "bogus"]) == 2
