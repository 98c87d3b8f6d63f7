"""Fields over a point stack: `expr.LiteralFill.at` and everything built on
it (`phi_at`, `metric_at`, `xi_at`, `VectorFieldExpr.at`, the components'
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
from slantkit import cli
from slantkit import expr as fe
from slantkit.classifier import _TangentComponent
from slantkit.distribution import FrameStack
from slantkit.errors import EvalError, RankError
from slantkit.gallery import FIXTURE_IDS, build_fixture, fixture_to_spec_dict
from slantkit.sampling import box_points, rng_for
from slantkit.specfile import load_manifold_spec
from slantkit.structure import validate_structure


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
    fields += [c.raw_at for c in dec.components] + [_TangentComponent(s, fx.mask).raw_at]
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
    fill = fe.LiteralFill((2, 3), [((0, 1), fe.parse("x1 + x2", 2)), ((1, 2), fe.Num(4.0))])
    xs = np.array([[1.0, 2.0], [0.5, -0.5], [3.0, 0.0]])
    assert fill.at(xs).shape == (3, 2, 3)
    assert fill.at(xs[0]).shape == (2, 3)
    assert fill.at(xs.reshape(3, 1, 2)).shape == (3, 1, 2, 3)
    assert fill.at(np.zeros((0, 2))).shape == (0, 2, 3)
    assert fill.at(xs)[:, 0, 1].tolist() == [3.0, 0.0, 3.0]
    assert fill.at(xs)[:, 1, 2].tolist() == [4.0] * 3


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
    with pytest.raises(RankError, match=r"^xi vanishes at the sample point$"):
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
