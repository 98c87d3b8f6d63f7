import json

import pytest

from slantkit.cli import build_parser, main
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
        assert err.startswith("error:")
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


class TestInputOutputFaults:
    """A spec that cannot be read or decoded, and a report or spec that
    cannot be written, are input errors: exit 2 with `error:`, no traceback."""

    def _usage_error(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error: ") and "Traceback" not in err
        return out, err

    def test_spec_path_is_a_directory(self, capsys, tmp_path):
        _, err = self._usage_error(capsys, "validate", str(tmp_path))
        assert err == f"error: spec file cannot be read: {tmp_path} (Is a directory)\n"

    def test_spec_name_too_long(self, capsys, tmp_path):
        path = str(tmp_path / ("s" * 300))
        _, err = self._usage_error(capsys, "validate", path)
        assert err == f"error: spec file cannot be read: {path} (File name too long)\n"

    def test_spec_not_decodable(self, capsys, tmp_path):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xff\xfe")
        _, err = self._usage_error(capsys, "validate", str(path))
        assert err.startswith(f"error: spec file cannot be read: {path} (not text: ")

    def test_json_report_path_is_a_directory(self, capsys, tmp_path, ex1_spec):
        path, _ = ex1_spec
        out, err = self._usage_error(capsys, "validate", str(path), "--json", str(tmp_path))
        assert "passed: **yes**" in out
        assert "Is a directory" in err

    def test_gallery_out_in_a_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        _, err = self._usage_error(capsys, "gallery", "emit", "ex3", "--out", str(target))
        assert "No such file or directory" in err and str(target) in err


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


class TestFailurePaths:
    """Failures that only a spec made for them reaches."""

    @staticmethod
    def _run(capsys, tmp_path, doc, *argv):
        """(exit code, stdout, stderr, the JSON report or None) of one command."""
        spec, report = tmp_path / "spec.json", tmp_path / "report.json"
        spec.write_text(json.dumps(doc))
        code, out, err = run(capsys, argv[0], str(spec), *argv[1:], "--json", str(report))
        return code, out, err, json.loads(report.read_text()) if report.exists() else None

    @staticmethod
    def _ex3():
        fx = build_fixture("ex3", k=2, epsilon=-1)
        return fixture_to_spec_dict(fx, points=fx.default_points()[:5])

    def test_declared_invariant_component_with_a_slant_value(self, capsys, tmp_path, ex1_spec):
        doc = dict(ex1_spec[1], decomposition={"invariant": "D1", "proper": ["D0", "D2"]})
        code, _, _, report = self._run(capsys, tmp_path, doc, "classify")
        assert code == 0
        evidence = report["classification"]["evidence"]
        assert evidence["invariant-component"] == {
            "max_theta": pytest.approx(1.5707963267948966),
            "reason": "declared invariant component 'D1' measures a nonzero slant value"}
        assert evidence["k-slant"] == evidence["invariant-component"]

    def test_f_on_h_fails_the_dual(self, capsys, tmp_path):
        """D2 left out of the decomposition, so it lies in H, and phi(e7) gets
        a part along e1 in D0: f does not vanish on H."""
        doc = dict(self._ex3(), decomposition={"invariant": "D0", "proper": ["D1"]})
        doc["phi_columns"][6][0] = "0.5"
        code, _, err, report = self._run(capsys, tmp_path, doc, "dual")
        assert code == 1 and report is None
        assert err.startswith("failure: f does not vanish on the computed H (residual 5.000e-01)"
                              " at [0.0, 0.0, ")

    def test_xi_vanishing_to_first_order_fails_the_probe(self, capsys, tmp_path, ex1_spec):
        """xi = x1 e11 is not 0 at the sample points, but its first-order
        model at x - h e1 is at x1 = h = fd_step."""
        doc = json.loads(json.dumps(ex1_spec[1]))
        doc["xi"] = ["0"] * 10 + ["x1"]
        for i, point in enumerate(doc["sample_points"]):
            point[0] = 1e-5 if i == 0 else point[0] or 1.0
        code, _, err, report = self._run(capsys, tmp_path, doc, "identities", "--connection")
        assert code == 1 and report is None
        assert err == (f"failure: xi vanishes to first order near "
                       f"{doc['sample_points'][0]}\n")

    def test_classify_stops_at_a_failed_structure_without_force(self, capsys, tmp_path):
        doc = self._ex3()
        doc["phi_columns"] = [[f"2*({e})" for e in col] for col in doc["phi_columns"]]
        code, out, err, report = self._run(capsys, tmp_path, doc, "classify")
        assert code == 1
        assert out.startswith("# Classification report (structure failed)")
        assert err == "structure validation failed; use --force to classify anyway\n"
        assert report["structure"]["passed"] is False
        assert report["structure"]["residuals"]["metric-law"] == pytest.approx(3.0)
        assert report["classification"] == report["dual"] == "skipped"

    @pytest.mark.parametrize("command", ["dual", "identities"])
    def test_discovery_spec_needs_a_declared_decomposition(self, capsys, tmp_path, command):
        doc = dict(self._ex3(), decomposition=None)
        code, out, err, report = self._run(capsys, tmp_path, doc, command)
        assert (code, out, report) == (2, "", None)
        assert err == f"error: the {command} command needs a declared decomposition\n"


def test_structure_report_does_not_depend_on_trials(capsys, tmp_path, ex1_spec):
    """The structure axioms are checked exactly: --trials and --seed change
    nothing in the structure section but the seed it reports."""
    path, _ = ex1_spec
    sections = []
    for trials, seed in (("2", "1"), ("90", "2")):
        out_path = tmp_path / f"v{trials}.json"
        assert run(capsys, "validate", str(path), "--trials", trials, "--seed", seed,
                   "--json", str(out_path))[0] == 0
        sections.append(json.loads(out_path.read_text())["structure"])
    assert [s.pop("seed") for s in sections] == [1, 2]
    assert sections[0] == sections[1]


def test_identities_report_does_not_depend_on_trials(capsys, tmp_path, ex1_spec):
    """The identity suite is exact: --trials and --seed change nothing in
    the identities report but the trials and seeds it echoes."""
    path, _ = ex1_spec
    reports = []
    for trials, seed in (("2", "1"), ("90", "2")):
        out_path = tmp_path / f"i{trials}.json"
        assert run(capsys, "identities", str(path), "--trials", trials, "--seed", seed,
                   "--json", str(out_path))[0] == 0
        reports.append(json.loads(out_path.read_text()))
    echoed = [(r.pop("seed"), r["structure"].pop("seed"), r["identities"].pop("trials"),
               r["identities"].pop("seed")) for r in reports]
    assert echoed == [(1, 1, 2, 1), (2, 2, 90, 2)]
    assert reports[0] == reports[1]


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

    def test_one_parser_serves_every_command_of_a_process(self, capsys, tmp_path, ex1_spec):
        """The parser is built on first use and kept; a usage error leaves it
        as it was, so the next command reports as the process's first did."""
        path, _ = ex1_spec
        argv = ("dual", str(path), "--seed", "3", "--identity-tol", "1e-8", "--json")
        build_parser.cache_clear()
        first = run(capsys, *argv, str(tmp_path / "first.json"))
        assert first[0] == 0 and build_parser() is build_parser()
        for bad in (("dual", str(path), "--seed", "x"), ("no-such-command",), ("dual",),
                    ("gallery", "emit", "ex0")):
            code, out, err = run(capsys, *bad)
            assert code == 2 and out == "" and err.startswith("usage: slantkit")
        again = run(capsys, *argv, str(tmp_path / "again.json"))
        assert again == first
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "first.json").read_bytes()


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


def _set_phi(entry):
    def mutate(doc):
        doc["phi_columns"][0][0] = entry
    return mutate


def _drop_mask(doc):
    doc.pop("submanifold_mask")


def _merge_proper(doc):
    dists = doc["distributions"]
    dists["D12"] = dists["D1"] + dists["D2"]
    doc["decomposition"] = {"invariant": "D0", "proper": ["D12"]}


def _repeat_field(doc):
    doc["distributions"]["D1"] = [doc["distributions"]["D1"][0]] * 2


def _asymmetric_phi_discovery(doc):
    doc["phi_columns"][2][0] = "0.001"
    doc["decomposition"] = None


def _double_phi(doc):
    doc["phi_columns"] = [[f"2*({e})" for e in col] for col in doc["phi_columns"]]


def _huge_phi_discovery(doc):
    # finite phi entries whose f^2 Gram overflows
    doc["phi_columns"] = [[f"({e})*10^200" for e in col] for col in doc["phi_columns"]]
    doc["decomposition"] = None


def _put(value, *path):
    """Set the entry at `path` (keys and indices) to `value`."""
    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return mutate


# error family -> (spec mutation, command argv after the spec path, exit code,
# stderr prefix, a word of the message)
_ERROR_FAMILIES = {
    "SpecError": (lambda doc: doc.update(epsilon=0), ("validate",), 2, "error:", "epsilon"),
    "ParseError": (_set_phi("1 +"), ("validate",), 2, "error:",
                   "phi_columns[0][0]: unexpected end of input (offset 3)"),
    "ParseError-deep-sum": (_set_phi("+".join(["x1"] * 1200)), ("validate",), 2, "error:",
                            "phi_columns[0][0]: expression nested too deeply"),
    "ParseError-deep-parens": (_set_phi("(" * 250 + "x1" + ")" * 250), ("validate",), 2,
                               "error:", "phi_columns[0][0]: expression nested too deeply"),
    "EvalError": (_set_phi("1/(x1-x1)"), ("identities",), 2, "error:", "division by zero"),
    "UnsupportedError": (_drop_mask, ("identities", "--connection"), 2, "error:", "mask"),
    "ComponentError": (_merge_proper, ("classify",), 1, "failure:", "eigenvalue clusters"),
    "ComponentError-identities": (_merge_proper, ("identities",), 1, "failure:",
                                  "eigenvalue clusters"),
    "RankError": (_repeat_field, ("classify",), 1, "failure:", "dependent"),
    "ModelError": (_double_phi, ("classify", "--force"), 1, "failure:", "outside [0, 1]"),
    "ModelError-discover": (_asymmetric_phi_discovery, ("classify", "--force"), 1, "failure:",
                            "asymmetric"),
    "ModelError-not-finite": (_huge_phi_discovery, ("classify", "--force"), 1, "failure:",
                              "restricted endomorphism square is not finite at"),
    "SpecError-seed-string": (_put({"seed": "one", "count": 3}, "sample_points"), ("validate",),
                              2, "error:", "sample_points.seed"),
    "SpecError-count-string": (_put({"seed": 1, "count": "3"}, "sample_points"), ("validate",),
                               2, "error:", "sample_points.count"),
    "SpecError-count-float": (_put({"seed": 1, "count": 2.7}, "sample_points"), ("validate",),
                              2, "error:", "sample_points.count"),
    "SpecError-count-true": (_put({"seed": 1, "count": True}, "sample_points"), ("validate",),
                             2, "error:", "sample_points.count"),
    "SpecError-box-string": (_put({"seed": 1, "count": 3, "box": ["a", "b"]}, "sample_points"),
                             ("validate",), 2, "error:", "sample_points.box"),
    "SpecError-box-infinite": (_put({"seed": 1, "count": 3, "box": [-1, float("inf")]},
                                    "sample_points"), ("validate",), 2, "error:",
                               "sample_points.box"),
    "SpecError-box-overflowing": (_put({"seed": 1, "count": 3, "box": [-1e308, 1e308]},
                                       "sample_points"), ("validate",), 2, "error:",
                                  "sample_points.box"),
    "SpecError-point-string": (_put("a", "sample_points", 0, 0), ("validate",), 2, "error:",
                               "sample point"),
    "SpecError-invariant-list": (_put(["D0"], "decomposition", "invariant"), ("classify",), 2,
                                 "error:", "decomposition.invariant"),
    "SpecError-epsilon-true": (_put(True, "epsilon"), ("validate",), 2, "error:", "epsilon"),
    "SpecError-mask-true": (_put(True, "submanifold_mask", 0), ("validate",), 2, "error:",
                            "submanifold_mask"),
    "SpecError-field-string": (_put("1", "distributions", "D1", 0), ("classify",), 2, "error:",
                               "distributions.D1[0]"),
    "SpecError-phi-number": (_put(0, "phi_columns", 0, 1), ("validate",), 2, "error:",
                             "phi_columns[0][1]"),
}


@pytest.mark.parametrize("mutate, argv, exit_code, prefix, word",
                         list(_ERROR_FAMILIES.values()), ids=list(_ERROR_FAMILIES))
def test_error_family_exit_code_and_prefix(capsys, tmp_path, ex1_spec, mutate, argv,
                                           exit_code, prefix, word):
    doc = json.loads(json.dumps(ex1_spec[1]))
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == exit_code
    assert err.startswith(prefix)
    assert word in err


def test_coordinate_beyond_int_digit_limit_exit_2(capsys, tmp_path, ex1_spec):
    """A coordinate of 5000 digits is a parse error naming the entry and
    offset 0, not a traceback from int()."""
    doc = json.loads(json.dumps(ex1_spec[1]))
    _set_phi("x" + "1" * 5000)(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert err.startswith("error: phi_columns[0][0]: coordinate x1")
    assert err.rstrip().endswith(f"out of range 1..{len(doc['phi_columns'])} (offset 0)")


class TestNonFiniteField:
    """The product of two 201-digit literals overflows to inf, so 0*inf is
    nan: evaluation errors with the entry's source and the point, not nan
    residuals."""

    HUGE = "1" + "0" * 200
    ENTRY = f"0*({HUGE}*{HUGE})"

    def _spec(self, tmp_path, ex1_spec):
        doc = json.loads(json.dumps(ex1_spec[1]))
        _set_phi(self.ENTRY)(doc)
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(doc))
        return path, doc

    def test_validate_witnesses_evaluation(self, capsys, tmp_path, ex1_spec):
        path, doc = self._spec(tmp_path, ex1_spec)
        out_path = tmp_path / "r.json"
        code, _, _ = run(capsys, "validate", str(path), "--json", str(out_path))
        assert code == 1
        witness = json.loads(out_path.read_text())["structure"]["witness"]
        assert witness["axiom"] == "evaluation"
        assert witness["point"] == doc["sample_points"][0]
        assert "phi_columns[0][0]" in witness["error"]
        assert f"'{self.ENTRY}'" in witness["error"]

    def test_classify_force_exit_2(self, capsys, tmp_path, ex1_spec):
        path, _ = self._spec(tmp_path, ex1_spec)
        code, _, err = run(capsys, "classify", str(path), "--force")
        assert code == 2
        assert err.startswith("error: non-finite value nan of phi_columns[0][0]")


def _ex3_with_metric(tmp_path, entries):
    """ex3 k=2 on four points with an explicit metric: the identity matrix
    with `entries` ((row, column) -> source) in place of some entries."""
    fx = build_fixture("ex3", k=2, epsilon=1)
    doc = fixture_to_spec_dict(fx, points=fx.default_points()[:4])
    n = doc["ambient_dim"]
    doc["metric"] = [[entries.get((i, j), "1" if i == j else "0") for j in range(n)]
                     for i in range(n)]
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(doc))
    return path, doc


class TestIndefiniteMetric:
    """ex3 k=2 with metric[0][0] = "-1": validate names axiom
    metric-positive and the point; the other commands exit 2 naming it."""

    @pytest.fixture()
    def spec(self, tmp_path):
        return _ex3_with_metric(tmp_path, {(0, 0): "-1"})

    def test_validate_witnesses_metric_positive(self, capsys, tmp_path, spec):
        path, doc = spec
        out_path = tmp_path / "r.json"
        code, _, _ = run(capsys, "validate", str(path), "--json", str(out_path))
        assert code == 1
        witness = json.loads(out_path.read_text())["structure"]["witness"]
        assert witness["axiom"] == "metric-positive"
        assert witness["point"] == doc["sample_points"][0]

    @pytest.mark.parametrize("argv", [("classify", "--force"), ("dual",), ("identities",)],
                             ids=["classify-force", "dual", "identities"])
    def test_commands_exit_2_naming_the_point(self, capsys, spec, argv):
        path, doc = spec
        code, _, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 2
        assert err.startswith("error: metric is not positive definite at "
                              f"{doc['sample_points'][0]}")


class TestAsymmetricMetric:
    """ex3 k=2 with metric[0][1] = "0.9" and metric[1][0] = "0": validate
    names axiom metric-symmetric and the point; the other commands exit 2
    naming it."""

    @pytest.fixture()
    def spec(self, tmp_path):
        return _ex3_with_metric(tmp_path, {(0, 1): "0.9"})

    def test_validate_witnesses_metric_symmetric(self, capsys, tmp_path, spec):
        path, doc = spec
        out_path = tmp_path / "r.json"
        code, _, _ = run(capsys, "validate", str(path), "--json", str(out_path))
        assert code == 1
        witness = json.loads(out_path.read_text())["structure"]["witness"]
        assert witness["axiom"] == "metric-symmetric"
        assert witness["point"] == doc["sample_points"][0]

    @pytest.mark.parametrize("argv", [("classify", "--force"), ("dual",), ("identities",)],
                             ids=["classify-force", "dual", "identities"])
    def test_commands_exit_2_naming_the_point(self, capsys, spec, argv):
        path, doc = spec
        code, _, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 2
        assert err.startswith(f"error: metric is not symmetric at {doc['sample_points'][0]}")


def _ex3_faulty_at_point_2(fault):
    """ex3 (k = 2, eps = -1) at four sample points, with one fault that shows
    at point 2 only, and that point's coordinates."""
    from slantkit.gallery import _hermitian_block
    doc = fixture_to_spec_dict(build_fixture("ex3", k=2, epsilon=-1))
    points = []
    for p in range(4):
        x = [0.0] * doc["ambient_dim"]
        for i, c in zip((1, 2, 3, 4, 7, 8), (0.3, -0.2, 0.5, 0.1, -0.4, 0.2)):
            x[i - 1] = c * (p + 1)
        points.append(x)
    if fault == "rank":          # D1's second field is x1 e4: gone where x1 = 0
        doc["distributions"]["D1"][1] = ["0", "0", "0", "x1"] + ["0"] * 6
        points[2][0] = 0.0
    elif fault == "w-collapse":  # block 1 at angle x1: slant value 0 where x1 = 0
        _hermitian_block(doc["phi_columns"], 1, -1, "cos(x1)", "sin(x1)")
        points[2][0] = 0.0
    else:                        # x2 = 0.7 at point 2, 0 elsewhere
        if fault == "asymmetric":    # phi e1 gains x2 e1: f^2 on D0 asymmetric where x2 != 0
            doc["phi_columns"][0][0] = "x2"
        else:                        # D2's first field gains x2 e3: not orthogonal to D1 there
            doc["distributions"]["D2"][0][2] = "x2"
        for p, x in enumerate(points):
            x[1] = 0.7 if p == 2 else 0.0
    doc["sample_points"] = points
    return doc, points[2]


_STACK_FAULTS = {
    "rank": "component 'D1' at {x}: column 1 is dependent on the previous ones",
    "w-collapse": "w collapses on component 'D1' at {x} (slant value 0 there); "
                  "the dual is undefined",
    "asymmetric": "restricted endomorphism square is asymmetric (residual 1.980e+00) at {x}; "
                  "the decomposition or structure is invalid",
    "orthogonality": "components 'D1' and 'D2' are not orthogonal at {x}",
}


@pytest.mark.parametrize("argv", [("classify", "--force"), ("dual",), ("identities",),
                                  ("identities", "--connection")], ids=" ".join)
@pytest.mark.parametrize("fault", list(_STACK_FAULTS))
def test_fault_at_a_later_point_is_named(capsys, tmp_path, fault, argv):
    """A fault at the third of four sample points only: every command that
    meets it exits 1 naming that point, whether the frames are built one
    point at a time or all at once."""
    doc, x = _ex3_faulty_at_point_2(fault)
    path = tmp_path / f"{fault}.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, argv[0], str(path), *argv[1:])
    if fault == "w-collapse" and argv[0] == "classify":   # classify needs no dual
        assert code == 0
        return
    assert code == 1
    assert err == f"failure: {_STACK_FAULTS[fault].format(x=x)}\n"


def test_first_failing_check_names_its_own_first_point(capsys, tmp_path):
    """Two faults in one frame build: D1 loses rank at the third point and
    D2 leaves D1's orthogonal complement at the first (x2 = 0.7 there, 0
    elsewhere). The rank check runs first, so its first failing point is
    named, not the first point at which some check fails."""
    doc, x = _ex3_faulty_at_point_2("rank")
    doc["distributions"]["D2"][0][2] = "x2"
    for p, point in enumerate(doc["sample_points"]):
        point[1] = 0.7 if p == 0 else 0.0
    path = tmp_path / "two-faults.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "classify", str(path), "--force")
    assert code == 1
    assert err == f"failure: {_STACK_FAULTS['rank'].format(x=x)}\n"


def test_asymmetric_fault_at_a_later_point_in_discovery(capsys, tmp_path):
    doc, x = _ex3_faulty_at_point_2("asymmetric")
    path = tmp_path / "discover.json"
    path.write_text(json.dumps(dict(doc, decomposition=None)))
    code, _, err = run(capsys, "classify", str(path), "--force")
    assert code == 1
    assert err.startswith("failure: restricted endomorphism square is asymmetric (residual ")
    assert err.endswith(f") at {x}; the decomposition or structure is invalid\n")


_RELABEL_CASES = [(fid, gamma, eps) for fid, gamma in (
    ("ex1", None), ("ex3", None), ("ex4", 0.5), ("ex5", 1.0), ("ex5", 2.0), ("ex8", 1.0),
    ("ex9", 1.0), ("ex9", 1.5)) for eps in (-1, 1)]


def _by_name(rows, key):
    return {row[key]: row for row in rows}


@pytest.mark.parametrize("fid, gamma, eps", _RELABEL_CASES)
def test_component_order_is_a_relabelling(capsys, tmp_path, fid, gamma, eps):
    """The proper components in the order D3, D1, D2 give, component by
    component, the reports of D1, D2, D3: exit codes, labels, named cases,
    verdicts and theta lists bit for bit, the dual section, the identity
    verdicts and the connection probe's verdicts."""
    doc = fixture_to_spec_dict(build_fixture(fid, k=3, epsilon=eps, gamma=gamma))
    assert doc["decomposition"]["proper"] == ["D1", "D2", "D3"]
    reports = []
    for proper in (["D1", "D2", "D3"], ["D3", "D1", "D2"]):
        path, report = tmp_path / "spec.json", tmp_path / "report.json"
        path.write_text(json.dumps(dict(doc, decomposition=dict(doc["decomposition"],
                                                                proper=proper))))
        runs = {}
        for argv in (["classify"], ["dual"], ["identities", "--connection"]):
            code = run(capsys, *argv, str(path), "--json", str(report))[0]
            runs[argv[0]] = code, json.loads(report.read_text())
        reports.append(runs)
    (a, b) = reports
    assert ({cmd: code for cmd, (code, _) in a.items()}
            == {cmd: code for cmd, (code, _) in b.items()})
    cls_a, cls_b = a["classify"][1]["classification"], b["classify"][1]["classification"]
    assert cls_a["labels"] == cls_b["labels"]
    assert cls_a["named_cases"] == cls_b["named_cases"]
    assert _by_name(cls_a["components"], "name") == _by_name(cls_b["components"], "name")
    assert a["dual"][1]["dual"] == b["dual"][1]["dual"]
    ids_a, ids_b = a["identities"][1]["identities"], b["identities"][1]["identities"]
    assert ({e["key"]: e["verdict"] for e in ids_a["cases"]}
            == {e["key"]: e["verdict"] for e in ids_b["cases"]})
    con_a, con_b = a["identities"][1]["connection"], b["identities"][1]["connection"]
    assert con_a["consistent"] == con_b["consistent"]
    assert ({r["component"]: r["derivative_constant"] for r in con_a["components"]}
            == {r["component"]: r["derivative_constant"] for r in con_b["components"]})
