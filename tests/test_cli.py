import json

import pytest

from slantkit.cli import main
from slantkit.gallery import build_fixture, fixture_to_spec_dict


@pytest.fixture()
def ex1_spec(tmp_path, ex1):
    doc = fixture_to_spec_dict(ex1, points=ex1.default_points()[:6])
    path = tmp_path / "ex1.json"
    path.write_text(json.dumps(doc))
    return path, doc


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGalleryCommand:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "gallery", "list")
        assert code == 0
        assert out.split() == ["ex1", "ex3", "ex4", "ex5", "ex8", "ex9"]

    def test_emit_and_validate(self, capsys, tmp_path):
        spec_path = tmp_path / "ex3.json"
        code, _, _ = run(capsys, "gallery", "emit", "ex3", "--k", "2",
                         "--epsilon", "1", "--out", str(spec_path))
        assert code == 0
        code, out, _ = run(capsys, "validate", str(spec_path))
        assert code == 0
        assert "passed: **yes**" in out

    def test_emit_rejects_bad_params(self, capsys):
        code, _, err = run(capsys, "gallery", "emit", "ex4", "--gamma", "-1")
        assert code == 2
        assert "gamma" in err


class TestValidate:
    def test_gallery_spec_passes(self, capsys, ex1_spec):
        path, _ = ex1_spec
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0

    def test_schema_error_exit_2(self, capsys, tmp_path, ex1_spec):
        _, doc = ex1_spec
        bad = dict(doc, epsilon=0)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "epsilon" in err

    def test_perturbed_phi_exit_1(self, capsys, tmp_path, ex1_spec):
        _, doc = ex1_spec
        bad = json.loads(json.dumps(doc))
        bad["phi_columns"][1][0] = "-1 + 1/1000"
        path = tmp_path / "perturbed.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert "passed: **no**" in out
        assert "compatibility" in out

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/spec.json")
        assert code == 2

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2


class TestClassify:
    def test_ex1_verdicts(self, capsys, ex1_spec):
        path, _ = ex1_spec
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0
        assert "k-slant" in out
        assert "almost-bi-slant" in out

    def test_ex4_gamma_zero_report(self, capsys, tmp_path):
        fx = build_fixture("ex4", k=2, epsilon=-1, gamma=0.0, delta=1.0)
        doc = fixture_to_spec_dict(fx, points=fx.default_points()[:8])
        path = tmp_path / "ex4.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0
        assert "k-pointwise-slant" in out
        # the unsatisfied labels carry witnesses
        assert "pointwise-k-slant" in out.split("not satisfied:")[1]

    def test_empty_decomposition_exit_2(self, capsys, tmp_path, ex1_spec):
        _, doc = ex1_spec
        bad = dict(doc, decomposition={"invariant": None, "proper": []})
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(bad))
        code, _, err = run(capsys, "classify", str(path))
        assert code == 2

    def test_discovery_mode(self, capsys, tmp_path, ex1_spec):
        _, doc = ex1_spec
        disc = dict(doc)
        disc.pop("decomposition")
        path = tmp_path / "disc.json"
        path.write_text(json.dumps(disc))
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0
        assert "C1" in out  # discovered cluster components

    def test_json_report_written(self, capsys, tmp_path, ex1_spec):
        path, _ = ex1_spec
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "classify", str(path), "--json", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["classification"]["labels"]["k-slant"] is True
        assert doc["identities"] == "skipped"
        assert doc["tool_version"]


class TestDualAndIdentities:
    def test_dual_command(self, capsys, tmp_path):
        fx = build_fixture("ex3", k=2, epsilon=-1)
        doc = fixture_to_spec_dict(fx, points=fx.default_points()[:5])
        path = tmp_path / "ex3.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "dual", str(path))
        assert code == 0
        assert "round-trips passed: **yes**" in out

    def test_identities_with_connection(self, capsys, tmp_path, ex1_spec):
        path, _ = ex1_spec
        code, out, _ = run(capsys, "identities", str(path), "--trials", "20",
                           "--connection")
        assert code == 0
        assert "Identity suite" in out
        assert "Connection criteria" in out

    def test_identities_fail_exit_1(self, capsys, tmp_path, ex1_spec):
        _, doc = ex1_spec
        bad = json.loads(json.dumps(doc))
        bad["phi_columns"][1][0] = "-1 + 1/1000"
        path = tmp_path / "perturbed.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run(capsys, "identities", str(path), "--trials", "10")
        assert code == 1
        assert "struct.compat" in out


class TestDeterminism:
    def test_byte_identical_reports(self, capsys, tmp_path, ex1_spec):
        path, _ = ex1_spec
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run(capsys, "classify", str(path), "--seed", "7", "--json", str(a))[0] == 0
        assert run(capsys, "classify", str(path), "--seed", "7", "--json", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_recorded(self, capsys, tmp_path, ex1_spec):
        path, _ = ex1_spec
        out_path = tmp_path / "r.json"
        run(capsys, "classify", str(path), "--seed", "99", "--json", str(out_path))
        doc = json.loads(out_path.read_text())
        assert doc["seed"] == 99
        assert doc["classification"]["seed"] == 99


def test_tolerance_flags(capsys, tmp_path, ex1_spec):
    path, _ = ex1_spec
    # an absurdly loose distinctness tolerance collapses the k-slant verdict
    code, out, _ = run(capsys, "classify", str(path), "--distinct-tol", "3.0")
    assert code == 0
    assert "k-slant" in out.split("not satisfied:")[1]


_BAD_TOLERANCES = {
    "string": ({"cluster": "abc"}, ()),
    "numeric-string": ({"cluster": "1e-8"}, ()),
    "list": ({"cluster": [1]}, ()),
    "null": ({"cluster": None}, ()),
    "boolean": ({"cluster": True}, ()),
    "infinite": ({"cluster": float("inf")}, ()),
    "nan": ({"cluster": float("nan")}, ()),
    "negative": ({"cluster": -1e-8}, ()),
    "not-an-object": (5, ()),
    "false-object": (False, ()),
    "flag-infinite": (None, ("--cluster-tol", "inf")),
    "flag-nan": (None, ("--angle-tol", "nan")),
}


@pytest.mark.parametrize("tolerances, flags", list(_BAD_TOLERANCES.values()),
                         ids=list(_BAD_TOLERANCES))
def test_bad_tolerance_exit_2(capsys, tmp_path, ex1_spec, tolerances, flags):
    _, doc = ex1_spec
    path = tmp_path / "tol.json"
    path.write_text(json.dumps(dict(doc, tolerances=tolerances)))
    code, _, err = run(capsys, "validate", str(path), *flags)
    assert code == 2
    assert "tolerance" in err
