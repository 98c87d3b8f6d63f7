"""Fields over a point stack: `expr.LiteralFill.at` and everything built on
it (`phi_at`, `metric_at`, `xi_at`, `VectorFieldExpr.at`, the decomposition's
`raw_at`) take a point (n,) or a stack (P, n), and each point's slice of a
stack is its own evaluation bit for bit. Where a stack faults, `FrameStack`
and `validate_structure` evaluate the points again in order, each as a stack
of one, so the error, the failures and the witness are those of the first
point to fault, whichever field faults first over the whole stack."""

import copy
import json
import re

import numpy as np
import pytest

import structure_oracle
from slantkit import cli, tangents, verifier
from slantkit import expr as fe
from slantkit.classifier import _TangentSpace
from slantkit.distribution import FrameStack
from slantkit.errors import EvalError, RankError
from slantkit.gallery import FIXTURE_IDS, build_fixture, fixture_to_spec_dict
from slantkit.sampling import box_points, rng_for
from slantkit.specfile import load_manifold_spec
from slantkit.structure import validate_structure

from test_verifier import _rolling_spec


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.shape, a.tobytes()


def _conformal(fx):
    """The fixture's spec under the metric (1 + x3^2/4) I, whose entries are live."""
    doc = fixture_to_spec_dict(fx, points=fx.default_points()[:2])
    n = doc["ambient_dim"]
    doc["metric"] = [["1 + x3^2/4" if i == j else "0" for j in range(n)] for i in range(n)]
    return load_manifold_spec(doc)


@pytest.mark.parametrize("metric", ["own", "conformal"])
@pytest.mark.parametrize("epsilon", [-1, 1])
@pytest.mark.parametrize("fid", FIXTURE_IDS)
def test_stacked_fields_equal_their_points_bit_for_bit(fid, epsilon, metric):
    fx = build_fixture(fid, k=2, epsilon=epsilon)
    dec = fx.decomposition if metric == "own" else _conformal(fx).decomposition
    s = dec.structure
    xs = np.array(box_points(s.n, fx.mask, 16, seed=5))
    fields = [s.metric_at, s.phi_at] + ([s.xi_at] if s.is_contact else [])
    fields += [dec.raw_at, _TangentSpace(s, fx.mask).raw_at]
    for field in fields:
        stacked = field(xs)
        for p, x in enumerate(xs):
            assert _bits(stacked[p]) == _bits(field(x)) == _bits(field(x[None])[0])
    phi = s.phi_at(xs)
    for p, x in enumerate(xs):
        assert _bits(phi[p].T) == _bits([[fe.evaluate(e, x) for e in col]
                                         for col in s.phi_columns])
    stack = FrameStack(dec, xs)
    for p, x in enumerate(xs):
        one = FrameStack(dec, [x])
        for name in ("g", "phi", "xi", "xi_unit", "basis_d"):
            a, b = getattr(stack, name), getattr(one, name)
            assert (a is None and b is None) or _bits(a[p]) == _bits(b[0])
        for a, b in zip(stack.raws + stack.bases, one.raws + one.bases):
            assert _bits(a[p]) == _bits(b[0])


def test_fill_shapes():
    fill = fe.LiteralFill((2, 3), [((0, 1), (1, 0), fe.parse("x1 + x2", 2)),
                                   ((1, 2), (2, 1), fe.Num(4.0))], "phi_columns")
    xs = np.array([[1.0, 2.0], [0.5, -0.5], [3.0, 0.0]])
    assert fill.at(xs).shape == (3, 2, 3)
    assert fill.at(xs[0]).shape == (2, 3)
    assert fill.at(xs.reshape(3, 1, 2)).shape == (3, 1, 2, 3)
    assert fill.at(np.zeros((0, 2))).shape == (0, 2, 3)
    assert fill.at(xs)[:, 0, 1].tolist() == [3.0, 0.0, 3.0]
    assert fill.at(xs)[:, 1, 2].tolist() == [4.0] * 3


def test_bare_literals_keep_their_bits():
    """Bare literals keep their bits in the fill and its values: -0.0,
    subnormals and +-1e308 included."""
    values = [-0.0, 5e-324, 1e308, 0.0, -2.5e-310, -1e308]
    items = [((i // 3, i % 3), (i // 3, i % 3), fe.Num(v)) for i, v in enumerate(values[:5])]
    fill = fe.LiteralFill((2, 3), items + [((1, 2), (1, 2), fe.parse("x1", 1))], "metric")
    want = np.zeros((2, 3))
    for idx, _, entry in items:
        want[idx] = entry.value
    assert _bits(fill.literals) == _bits(want)
    assert _bits(fill.at(np.array([[-1e308]]))[0]) == _bits(
        np.array([[-0.0, 5e-324, 1e308], [0.0, -2.5e-310, -1e308]]))
    vector = fe.VectorFieldExpr([fe.Num(v) for v in values])
    assert _bits(vector.fill.literals) == _bits(np.array(values))


@pytest.mark.parametrize("command", [["classify"], ["dual"], ["identities", "--connection"],
                                     ["discover"]])
@pytest.mark.parametrize("fid", ["ex3", "ex8"])
def test_a_command_evaluates_each_fill_once(fid, command, tmp_path, monkeypatch):
    """validate_structure and the frame stack share one evaluation of the
    metric, phi and xi on the sample points, handed out read-only; the
    components' fields are evaluated once, as the decomposition's one fill,
    and no fill is built for a component field. Discovery (classify without
    a decomposition) evaluates the metric, phi and xi alone."""
    calls, specs = [], []
    values = fe.LiteralFill.values
    monkeypatch.setattr(fe.LiteralFill, "values",
                        lambda fill, x: calls.append(id(fill)) or values(fill, x))
    monkeypatch.setattr(cli, "load_manifold_spec",
                        lambda source: specs.append(load_manifold_spec(source)) or specs[-1])
    doc = fixture_to_spec_dict(build_fixture(fid, k=2))
    if command == ["discover"]:
        command, doc["decomposition"] = ["classify"], None
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert cli.main(command + [str(path)]) == 0
    (spec,) = specs
    s, dec = spec.structure, spec.decomposition
    want = [s.metric_fill, s.phi_fill] + ([s.xi.fill] if s.is_contact else [])
    if dec is not None:
        want.append(dec.fill)
        assert not any("fill" in vars(f) for comp in dec.components for f in comp.fields)
    assert sorted(calls) == sorted(map(id, want))
    fields = s.fields_at(np.zeros((2, s.n)))
    assert s.fields_at(np.zeros((2, s.n))) is fields
    assert not any(a.flags.writeable for a in fields if a is not None)


# -- faults inside a stack ------------------------------------------------------

def _faulty(fid, zero, phi=None, metric=None, xi=None, field=None):
    """The k = 2 spec of `fid` at five box points, coordinate i set to 0 at
    point p for each (i, p) of `zero`, with `phi` {(column, row): extra}
    entries added, `metric` {(i, j): entry} over the identity, the entries of
    `xi` {i: entry} and the first 1 of D1's first field replaced by `field`."""
    fx = build_fixture(fid, k=2)
    doc = fixture_to_spec_dict(fx)
    n = doc["ambient_dim"]
    points = [p.tolist() for p in box_points(n, fx.mask, 5, seed=3)]
    for i, p in zero:
        points[p][i] = 0.0
    doc["sample_points"] = points
    for (c, r), extra in (phi or {}).items():
        doc["phi_columns"][c][r] = f"({doc['phi_columns'][c][r]}) + {extra}"
    if metric:
        doc["metric"] = [[metric.get((i, j), "1" if i == j else "0") for j in range(n)]
                         for i in range(n)]
    for i, entry in (xi or {}).items():
        doc["xi"][i] = entry
    if field:
        row = doc["distributions"]["D1"][0]
        row[row.index("1")] = field
    return doc


def _cli(tmp_path, command, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return cli.main([command, str(path), "--json", str(tmp_path / "out.json")])


def test_a_middle_fault_keeps_the_witness_failures_and_error(tmp_path, capsys):
    doc = _faulty("ex3", [(0, 2)], phi={(0, 0): "1/x1"})
    spec = load_manifold_spec(doc)
    s, xs = spec.structure, np.array(spec.points)
    verdict = validate_structure(s, xs, trials=6, seed=4)
    assert verdict.witness == {"axiom": "evaluation", "point": xs[2].tolist(),
                               "error": "division by zero in '1/x1'", "residual": float("inf")}
    good = [0, 1, 3, 4]
    want = [structure_oracle._axiom_residuals(
        s, xs[p], rng_for(4, 101, p).standard_normal((s.n, 6, 2))) for p in good]
    assert verdict.residuals == dict({a: max(w[a] for w in want) for a in want[0]},
                                     evaluation=float("inf"))
    assert not verdict.passed
    with pytest.raises(EvalError, match=r"^division by zero in '1/x1'$"):
        FrameStack(spec.decomposition, xs)
    assert _cli(tmp_path, "dual", doc) == 2
    assert capsys.readouterr().err == "error: division by zero in '1/x1'\n"


def test_the_first_point_to_fault_raises_whichever_field_faults_first_over_the_stack():
    # metric faults at point 4, phi at point 2: point 2's phi error, as point by point
    spec = load_manifold_spec(_faulty("ex3", [(0, 1), (1, 3)], phi={(0, 0): "1/x1"},
                                      metric={(0, 0): "x2/x2"}))
    with pytest.raises(EvalError, match=r"^division by zero in '1/x1'$"):
        FrameStack(spec.decomposition, spec.points)
    with pytest.raises(EvalError, match=r"^division by zero in 'x2/x2'$"):
        spec.structure.metric_at(np.array(spec.points))
    verdict = validate_structure(spec.structure, spec.points, trials=4)
    assert verdict.witness["point"] == spec.points[1].tolist()
    assert verdict.witness["error"] == "division by zero in '1/x1'"
    assert verdict.residuals["evaluation"] == float("inf")


def test_a_non_finite_value_names_the_first_point_to_fault():
    spec = load_manifold_spec(_faulty("ex8", [(2, 1), (1, 3)],
                                      phi={(1, 0): "0^abs(x3)*10^300*10^300"},
                                      metric={(0, 0): "x2/x2"}))
    point = spec.points[1].tolist()
    with pytest.raises(EvalError) as exc:
        FrameStack(spec.decomposition, spec.points)
    assert str(exc.value) == (f"non-finite value inf of phi_columns[1][0] at {point} in "
                              f"'{fe.to_source(spec.structure.phi_columns[1][0])}'")


def test_a_component_field_fault_before_a_later_phi_fault():
    spec = load_manifold_spec(_faulty("ex8", [(0, 2), (1, 3)], phi={(0, 0): "0/x2"},
                                      field="x1/x1"))
    with pytest.raises(EvalError, match=r"^division by zero in 'x1/x1'$"):
        FrameStack(spec.decomposition, spec.points)


def test_xi_vanishing_before_a_later_phi_fault():
    spec = load_manifold_spec(_faulty("ex8", [(0, 1), (1, 3)], phi={(0, 0): "0/x2"},
                                      xi={10: "1 - 0^abs(x1)"}))
    point = re.escape(str(spec.points[1].tolist()))
    with pytest.raises(RankError, match=f"^xi vanishes at {point}$"):
        FrameStack(spec.decomposition, spec.points)


def test_metric_checks_name_the_first_failing_point():
    # not positive definite at point 2, asymmetric at point 4
    doc = _faulty("ex1", [(3, 1), (2, 3)], metric={(0, 0): "1 - 2*0^abs(x4)",
                                                   (0, 1): "0^abs(x3)*0.5"})
    spec = load_manifold_spec(doc)
    xs = np.array(spec.points)
    with pytest.raises(EvalError, match=f"^metric is not positive definite at "
                                        f"{re.escape(str(xs[1].tolist()))}$"):
        FrameStack(spec.decomposition, xs)
    verdict = validate_structure(spec.structure, xs, trials=4)
    assert (verdict.witness["axiom"], verdict.witness["point"]) == ("metric-positive",
                                                                    xs[1].tolist())
    assert verdict.residuals["metric-symmetric"] == float("inf")
    sym = copy.deepcopy(doc)
    sym["metric"][0][0] = "1"
    with pytest.raises(EvalError, match=r"^metric is not symmetric at "):
        FrameStack(load_manifold_spec(sym).decomposition, xs)


# -- the names each fill gives its faults -----------------------------------------

H = 1e-5

_INF = "0^abs(x1)*10^300*10^300"     # inf where x1 = 0
_AT_ORIGIN = f"at {[0.0] * 11}"
_AT_TINY = f"at {[1e-200, 1e-200] + [0.0] * 9}"


def _ex8_fault(derivative, phi=(), metric=(), xi=(), fields=()):
    """ex8 at k = 2 at the points (1, 1, 0, ...) and (t, t, 0, ...), t = 1e-200
    for a `derivative` fault and 0 otherwise, with a literal 0 of `phi`
    ((column, row), entry), a diagonal of the identity `metric` ((i, j),
    entry), a 0 of `xi` (i, entry) or the first 1 of a component's first
    field (name, entry) replaced."""
    doc = fixture_to_spec_dict(build_fixture("ex8", k=2))
    n, t = doc["ambient_dim"], 1e-200 if derivative else 0.0
    doc["sample_points"] = [[1.0, 1.0] + [0.0] * (n - 2), [t, t] + [0.0] * (n - 2)]
    for (c, r), entry in phi:
        assert doc["phi_columns"][c][r] == "0"
        doc["phi_columns"][c][r] = entry
    if metric:
        doc["metric"] = [[dict(metric).get((i, j), str(int(i == j))) for j in range(n)]
                         for i in range(n)]
    for i, entry in xi:
        assert doc["xi"][i] == "0"
        doc["xi"][i] = entry
    for name, entry in fields:
        row = doc["distributions"][name][0]
        row[row.index("1")] = entry
    return load_manifold_spec(doc)


@pytest.mark.parametrize("fill, faults, want", [
    ("phi", dict(phi=[((0, 2), _INF)]),
     f"non-finite value inf of phi_columns[0][2] {_AT_ORIGIN} in '{_INF}'"),
    ("phi", dict(phi=[((1, 2), "0*(1/x1)")]),
     f"non-finite value nan of derivative of phi_columns[1][2][0] {_AT_TINY} in '0*(1/x1)'"),
    ("metric", dict(metric=[((1, 1), "1 + " + _INF)]),
     f"non-finite value inf of metric[1][1] {_AT_ORIGIN} in '1+{_INF}'"),
    ("metric", dict(metric=[((0, 0), "1 + 0*(1/x1)")]),
     f"non-finite value nan of derivative of metric[0][0][0] {_AT_TINY} in '1+0*(1/x1)'"),
    ("xi", dict(xi=[(0, _INF)]),
     f"non-finite value inf of vector field[0] {_AT_ORIGIN} in '{_INF}'"),
    ("xi", dict(xi=[(0, "0*(1/x2)")]),
     f"non-finite value nan of derivative of vector field[0][1] {_AT_TINY} in '0*(1/x2)'"),
    ("fields", dict(fields=[("D1", "1 + " + _INF)]),
     f"non-finite value inf of vector field[2][2] {_AT_ORIGIN} in '1+{_INF}'"),
    ("fields", dict(fields=[("D1", "1 + 0*(1/x2)")]),
     f"non-finite value nan of derivative of vector field[2][2][1] {_AT_TINY} in '1+0*(1/x2)'"),
    # the walker's error at a point wins over an earlier field's non-finite value there
    ("fields", dict(fields=[("D1", "1 + " + _INF), ("D2", "1 + 0/x1")]),
     "division by zero in '0/x1'"),
    ("cli", None, "non-finite value nan of derivative of vector field[2][2][0] at "
                  f"{[1e-200] + [0.0] * 9} in '1+0*(1/x1)'"),
], ids=["phi", "phi-derivative", "metric", "metric-derivative", "xi", "xi-derivative",
        "fields", "fields-derivative", "walker-first", "connection-probe"])
def test_each_fill_names_its_faults(fill, faults, want, tmp_path, capsys):
    """The messages of a non-finite value or derivative of phi, the metric,
    xi and the components' fields, as their fills give them: the entry's
    spec name ([j][i] for component i of field j), then the direction [m]
    of a derivative, and the first point. Values come from `phi_at`,
    `metric_at`, `xi_at` and `raw_at`, derivatives from the fill's checked
    Jacobian; the last case is the connection probe's exit on ex3, where
    D1's first field has a derivative along x1 but no finite one at 1e-200."""
    if fill == "cli":
        doc = fixture_to_spec_dict(build_fixture("ex3", k=2))
        row = doc["distributions"]["D1"][0]
        row[row.index("1")] = "1 + 0*(1/x1)"
        doc["sample_points"] = [[1e-200 if i == 0 and v == 0.0 else v for i, v in enumerate(p)]
                                for p in doc["sample_points"]]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["identities", str(path), "--connection"]) == 2
        assert capsys.readouterr().err == f"error: {want}\n"
        return
    derivative = "derivative" in want
    spec = _ex8_fault(derivative, **faults)
    s, dec, xs = spec.structure, spec.decomposition, np.array(spec.points)
    with pytest.raises(EvalError) as exc:
        if derivative:
            target = {"phi": s.phi_fill, "metric": s.metric_fill, "xi": s.xi.fill,
                      "fields": dec.fill}[fill]
            jac = tangents.fill_jacobian(target, xs, [j - 1 for j in dec.mask], H)
            target.require_finite(jac, xs, derivative=True)
        else:
            {"phi": s.phi_at, "metric": s.metric_at, "xi": s.xi_at, "fields": dec.raw_at}[fill](xs)
    assert str(exc.value) == want


# -- one fill for the decomposition's fields ------------------------------------


def _field_by_field(dec, xs, coords):
    """The components' fields evaluated one `VectorFieldExpr` at a time, as
    the columns of the values (P, n, R) and of the Jacobians (P, m, n, R),
    zeros for a constant field (None when every field is constant)."""
    fields = [f for comp in dec.components for f in comp.fields]
    values = np.stack([f.at(xs) for f in fields], axis=-1)
    jacs = [tangents.fill_jacobian(f.fill, xs, coords, H) for f in fields]
    if all(jac is None for jac in jacs):
        return values, None
    zero = np.zeros(xs.shape[:-1] + (len(coords), xs.shape[-1]))
    return values, np.stack([zero if jac is None else jac for jac in jacs], axis=-1)


def _fill_cases():
    for fid in FIXTURE_IDS:
        for metric in ("own", "conformal"):
            yield pytest.param(fid, metric, id=f"{fid}-{metric}")
    for case in ("rolling", "rolling-at-rest"):
        yield pytest.param(case, "own", id=case)


@pytest.mark.parametrize("case,metric", _fill_cases())
def test_the_decomposition_fill_equals_its_fields_bit_for_bit(case, metric):
    """`Decomposition.raw_at` and the Jacobian of `Decomposition.fill`, one
    fill over every component's fields, against each field's own fill,
    column by column."""
    if case.startswith("rolling"):
        spec = load_manifold_spec(_rolling_spec(at_rest=case.endswith("at-rest")))
        dec, mask = spec.decomposition, spec.decomposition.mask
        xs = np.concatenate([spec.points, box_points(6, mask, 8, seed=2)])
    else:
        fx = build_fixture(case, k=2)
        dec = fx.decomposition if metric == "own" else _conformal(fx).decomposition
        mask, xs = fx.mask, np.array(fx.default_points()[:16])
    coords = [j - 1 for j in mask]
    values, jac = _field_by_field(dec, xs, coords)
    assert _bits(dec.raw_at(xs)) == _bits(values)
    got = tangents.fill_jacobian(dec.fill, xs, coords, H)
    assert (got is None) == (jac is None) == (not case.startswith("rolling"))
    if jac is not None:
        assert _bits(got) == _bits(jac)


def test_a_walkers_error_wins_over_a_non_finite_value_in_an_earlier_field(tmp_path, capsys):
    """At a point where the fill's program faults, every field is walked in
    order and the walker's error is raised, although an earlier field is not
    finite there: D1 overflows to inf and D2 divides by zero at x1 = 0."""
    doc = _faulty("ex3", [(0, 2)])
    for name, entry in (("D1", "1 + 0^abs(x1)*10^300*10^300"), ("D2", "1 + 0/x1")):
        row = doc["distributions"][name][0]
        row[row.index("1")] = entry
    spec = load_manifold_spec(doc)
    with pytest.raises(EvalError, match=r"^non-finite value inf of vector field\["):
        spec.decomposition.proper[0].fields[0].at(spec.points[2])   # D1's field alone
    with pytest.raises(EvalError, match=r"^division by zero in '0/x1'$"):
        FrameStack(spec.decomposition, spec.points)
    assert _cli(tmp_path, "dual", doc) == 2
    assert capsys.readouterr().err == "error: division by zero in '0/x1'\n"


def test_a_faulting_tangent_sends_the_whole_fill_to_the_central_difference(tmp_path, capsys):
    """abs(x1) has no tangent along x1 at x1 = 0, a sample point of ex3: at
    that (point, direction) every field takes the central difference, the
    live field of D2 beside it too, within 1e-8 of its exact tangent; every
    other derivative is the field's own, bit for bit. Verdicts and exit
    codes are those of the literal 1 the abs entry stands for."""
    doc = fixture_to_spec_dict(build_fixture("ex3", k=2))
    live = copy.deepcopy(doc)
    for name, entry in (("D1", "1 + 0*abs(x1)"), ("D2", "1 + 0.001*sin(x1)*x2")):
        row = live["distributions"][name][0]
        row[row.index("1")] = entry
    dec = load_manifold_spec(live).decomposition
    xs, coords = np.array(live["sample_points"]), [j - 1 for j in dec.mask]
    faults = (xs[:, :1] == 0.0) & (np.array(coords) == 0)   # (P, m): along x1 at x1 = 0
    assert faults.sum() >= 1
    _, want = _field_by_field(dec, xs, coords)
    got = tangents.fill_jacobian(dec.fill, xs, coords, H)
    assert _bits(got[~faults]) == _bits(want[~faults])
    assert not np.array_equal(got[faults], want[faults])
    np.testing.assert_allclose(got[faults], want[faults], rtol=0, atol=1e-8)
    plain = copy.deepcopy(live)
    plain["distributions"]["D1"] = doc["distributions"]["D1"]
    reports = []
    for spec in (plain, live):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        codes = [cli.main([*command, str(path), "--json", str(tmp_path / "out.json")])
                 for command in (["classify"], ["identities", "--connection"])]
        report = json.loads((tmp_path / "out.json").read_text())
        reports.append((codes, report["connection"]["consistent"],
                        [c["derivative_constant"] for c in report["connection"]["components"]]))
    capsys.readouterr()
    assert reports[0] == reports[1]
    assert reports[0][0] == [0, 0]


def test_the_probe_evaluates_two_fills_per_point_chunk(tmp_path, monkeypatch):
    """`identities --connection` evaluates the metric, phi and the
    decomposition's fill once each, and takes two Jacobians per point chunk,
    phi's and the decomposition's; with one point per chunk, as the default
    ex9 spec at k = 32 has, that is two per point."""
    counts = {"values": 0, "fill_jacobian": 0}

    def counted(owner, name):
        method = getattr(owner, name)

        def call(fill, *args):
            counts[name] += 1
            return method(fill, *args)
        return call

    for owner, name in ((fe.LiteralFill, "values"), (tangents, "fill_jacobian")):
        monkeypatch.setattr(owner, name, counted(owner, name))
    monkeypatch.setattr(verifier, "PROBE_ELEMENTS", 1)
    path = tmp_path / "spec.json"
    assert cli.main(["gallery", "emit", "ex9", "--k", "4", "--out", str(path)]) == 0
    points = len(json.loads(path.read_text())["sample_points"])
    assert cli.main(["identities", str(path), "--connection",
                     "--json", str(tmp_path / "out.json")]) == 0
    assert counts == {"values": 3, "fill_jacobian": 2 * points}
