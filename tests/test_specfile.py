"""Spec loading: the per-load parse of each distinct entry text, the
canonical digest, the canonical writer shared with the run reports, and the
seeded box points of a spec's sample-point generator."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slantkit import expr as fe
from slantkit.errors import ParseError, SpecError
from slantkit.gallery import build_fixture, fixture_to_spec_dict
from slantkit.report import make_run_report, report_json
from slantkit.sampling import BOX_STREAM, box_points, rng_for
from slantkit.specfile import (_is_finite_number, _load_points, _sanitize, canonical_dumps,
                               load_manifold_spec, spec_digest)


def _entry_texts(doc) -> list[str]:
    texts = [src for col in doc["phi_columns"] for src in col]
    if isinstance(doc.get("metric"), list):
        texts += [src for row in doc["metric"] for src in row]
    texts += doc.get("xi") or []
    return texts + [src for fields in doc["distributions"].values()
                    for field in fields for src in field]


def test_each_load_parses_each_distinct_text_once(monkeypatch):
    """Within a load, a text is parsed once and its entries share the tree;
    the next load of the same spec parses again, keeping nothing."""
    doc = fixture_to_spec_dict(build_fixture("ex8", k=2, gamma=0.5, delta=1.0))
    texts = _entry_texts(doc)
    assert len(set(texts)) < len(texts)
    calls = []
    parse = fe.parse
    monkeypatch.setattr(fe, "parse", lambda src, *rest: calls.append(src) or parse(src, *rest))
    spec = load_manifold_spec(doc)
    assert sorted(calls) == sorted(set(texts))
    load_manifold_spec(doc)
    assert len(calls) == 2 * len(set(texts))
    phi = spec.structure.phi_columns
    zeros = [e for col, col_src in zip(phi, doc["phi_columns"])
             for e, src in zip(col, col_src) if src == "0"]
    assert len(zeros) > 1 and all(e is zeros[0] for e in zeros)


def test_identities_k8_parses_each_distinct_text_once_and_shares_subtrees(monkeypatch):
    """The ex9 k = 8 spec (n = 34): 65 live entries of 1156 in phi, 35
    distinct texts, each parsed once; a text that negates another holds that
    text's tree, so the phi program walks it once."""
    doc = fixture_to_spec_dict(build_fixture("ex9", k=8, epsilon=-1, gamma=1.5))
    texts = _entry_texts(doc)
    calls = []
    parse = fe.parse
    monkeypatch.setattr(fe, "parse", lambda src, *rest: calls.append(src) or parse(src, *rest))
    fill = load_manifold_spec(doc).structure.phi_fill
    assert len(calls) == len(set(calls)) == len(set(texts)) == 35
    assert (len(fill.picks), fill.literals.size) == (65, 34 * 34)
    by_text = dict(zip(texts, [e for col in fill_columns(doc, fill) for e in col]))
    negated = [src for src in by_text if src.startswith("-((") and src[2:-1] in by_text]
    assert negated and all(by_text[src].operand is by_text[src[2:-1]] for src in negated)


def fill_columns(doc, fill):
    """The trees of phi column by column, read off the fill (literals as Num)."""
    n = doc["ambient_dim"]
    trees = {tuple(idx): fill.live[c] for idx, c in zip(zip(*(a.tolist() for a in fill.where)),
                                                          fill.picks.tolist())}
    return [[trees.get((r, c), fe.Num(fill.literals[r, c])) for r in range(n)] for c in range(n)]


def _old_points(points_raw, n, mask):
    """The explicit-point checks as a per-row loop: length, then finite,
    then mask; the first failing row raises."""
    points = []
    for row in points_raw:
        if not isinstance(row, (list, tuple)) or len(row) != n:
            raise SpecError(f"sample point {row!r} does not have {n} coordinates")
        if not all(_is_finite_number(v) for v in row):
            raise SpecError(f"sample point {row!r} must hold finite numbers")
        arr = np.asarray(row, dtype=float)
        outside = [i for i in range(n) if mask is not None and i + 1 not in mask]
        if outside and float(np.max(np.abs(arr[outside]), initial=0.0)) > 0:
            raise SpecError("sample point leaves the submanifold mask")
        points.append(arr)
    return points


def _points_outcome(load, rows, n, mask):
    try:
        return [p.tolist() for p in load(rows, n, mask)], None
    except SpecError as exc:
        return None, str(exc)


_ROW_VALUES = (0.0, -0.0, 1.5, 2, 0, True, False, "1.5", None, 1e400, -1e400, float("nan"),
               10 ** 400, np.float64(0.5), [1.0])


@settings(max_examples=300, deadline=None)
@example([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1e400, 0.0]], (3,))   # mask before finite
@example([[0.0, 0.0, 1e400], [1.0, 0.0]], (3,))                        # finite before length
@example([[0.0, 0.0, 1.0], "abc", [True, 0.0, 0.0]], None)             # length before finite
@example([[0.0, 0.0, 10 ** 400]], None)                                # an int beyond the doubles
@given(st.lists(st.one_of(st.lists(st.sampled_from(_ROW_VALUES), min_size=2, max_size=4),
                          st.sampled_from(["abc", None, 3.0, (0.0, 1.0, 2.0)])),
                min_size=1, max_size=5),
       st.sampled_from([None, (1,), (3,), (1, 2, 3)]))
def test_explicit_points_raise_for_the_first_failing_row(rows, mask):
    """One array check of the explicit points gives the per-row loop's points
    and messages: the first failing row raises, for its first failing check."""
    want = _points_outcome(_old_points, rows, 3, mask)
    assert _points_outcome(_load_points, rows, 3, mask) == want


@pytest.mark.parametrize("case", ["length", "bool", "string", "overflow", "mask"])
def test_explicit_point_messages(case):
    """A spec's explicit points, the second row failing one check and the
    third failing an earlier one: the second row's message."""
    doc = fixture_to_spec_dict(build_fixture("ex3", k=2))
    n, mask = doc["ambient_dim"], doc["submanifold_mask"]
    bad = {"length": [0.0] * (n + 1), "bool": [True] + [0.0] * (n - 1),
           "string": ["1"] + [0.0] * (n - 1), "overflow": [1e400] + [0.0] * (n - 1),
           "mask": [1.0 if i + 1 not in mask else 0.0 for i in range(n)]}[case]
    doc["sample_points"] = [[0.0] * n, bad, [0.0] * (n - 1)]
    with pytest.raises(SpecError) as err:
        load_manifold_spec(doc)
    assert str(err.value) == {"length": f"sample point {bad!r} does not have {n} coordinates",
                              "mask": "sample point leaves the submanifold mask"}.get(
        case, f"sample point {bad!r} must hold finite numbers")


def test_a_repeated_bad_text_names_its_first_entry():
    doc = fixture_to_spec_dict(build_fixture("ex3", k=2))
    doc["phi_columns"][0][0] = doc["phi_columns"][2][1] = "1 +"
    doc["distributions"]["D1"][0][0] = "1 +"
    with pytest.raises(ParseError) as err:
        load_manifold_spec(doc)
    assert str(err.value) == "phi_columns[0][0]: unexpected end of input (offset 3)"
    doc["phi_columns"][0][0] = "0"
    with pytest.raises(ParseError, match=r"^phi_columns\[2\]\[1\]: unexpected end of input"):
        load_manifold_spec(doc)


# sha256 of gallery specs. The ex3 and ex8 digests were captured while
# canonical_dumps still rewrote every input through _sanitize, the others
# while build_fixture still assembled the model objects by hand and the
# document was written back from them. Reports carry this digest, and neither
# the golden nor the benchmark report comparisons look at it.
_DIGEST_PARAMS = {"ex4": {"gamma": 0.5, "delta": 2.0}, "ex5": {"gamma": 2.0},
                  "ex9": {"gamma": 1.5}}


@pytest.mark.parametrize("fid, k, epsilon, digest", [
    ("ex3", 2, -1, "7d0f4ef8aca8fc21f3fa5565103bd4b872eba6118e81778f01d6135cc1a307bb"),
    ("ex8", 2, 1, "1b9499f2f71ec81a87e333120c114a79cbba42a895b2d67a431352ef2c7b63ce"),
    ("ex1", 2, -1, "fb324aca2d002f1e87875e8487929651f2c341c56b71966c403ac7715b9401e9"),
    ("ex1", 2, 1, "cfae920e3cbd7d18aa87b686b06a9a0e87ab139eae496db6f1b369fcef256ace"),
    ("ex1", 3, -1, "58f508edda25cef432ee109c82fb9c5b1a3eddc6c07af5cb801a30960315e55d"),
    ("ex1", 3, 1, "20bc3b9c99ed2c1b0d56cfa993fded71bf4a1b01fdf8f6890e24e107cc8122a4"),
    ("ex4", 2, -1, "54ce9534e57666723b80bd8e2824cb6b03b86daf817245a743c9fd5488301284"),
    ("ex4", 2, 1, "18e4a740c51a2d7d94537012140dea82db8fe2bad7209019dbad2e1d179196c6"),
    ("ex4", 3, -1, "75e45f18a0bca8e545451e0444b049eb3369ad4e952c6b05902badb287ca2736"),
    ("ex4", 3, 1, "3803f8dc3c4c8930f60805bb63286a1c23c2e36c66075237526aaa0cab11e48f"),
    ("ex5", 2, -1, "58a389b0e347ed334289d89a7c0d49c1b9d4e0a9fd0750ee4e586736b7d82540"),
    ("ex5", 2, 1, "2d9bc745140b3bae47744ccbed88aa213c4d400a2aac626b70374a4b5a8b52f5"),
    ("ex5", 3, -1, "01fbc41ad11aff0c0d5a364e45fd0b49b0ce501c87ba88f2140cb3a0c1a88c3d"),
    ("ex5", 3, 1, "9976babf138d978a321074c677786534958a50e8ed4fe834c931f8a4c45efa99"),
    ("ex9", 2, -1, "6d4329c142a29cb3acf192134e8a3af3e587c6235d6a2ef5fd8725d7e84b570b"),
    ("ex9", 2, 1, "e90afb4ce327bc9d98f867f53ed3d0a7298ef4a339ca13662356a4b95e0325ae"),
    ("ex9", 3, -1, "4465e81148c18048ae2b594bd66104c5b74600a87618a149e7b2c00b65bbca3e"),
    ("ex9", 3, 1, "2f1b71a704b8ec64868726e4f20005b98d1f2eeff9e89d93b19645d364099f38"),
])
def test_spec_digest_is_pinned(fid, k, epsilon, digest):
    fx = build_fixture(fid, k=k, epsilon=epsilon, **_DIGEST_PARAMS.get(fid, {}))
    doc = fixture_to_spec_dict(fx)
    assert spec_digest(doc) == digest
    assert spec_digest(json.loads(json.dumps(doc))) == digest
    assert load_manifold_spec(doc).digest() == digest


def _sanitized(obj) -> str:
    """canonical_dumps as first defined: every input rewritten by _sanitize."""
    return json.dumps(_sanitize(obj), sort_keys=True, separators=(",", ":"), allow_nan=False)


@pytest.mark.parametrize("obj", [
    {"f": np.float64(0.1), "g": np.float32(0.5), "i": np.int64(3), "b": np.bool_(True)},
    {"v": np.arange(3.0), "m": np.eye(2, dtype=int), "s": np.float64(-0.0)},
    [float("nan"), float("inf"), -float("inf"), np.float64("nan"), np.float32("inf")],
    {"t": (1, 2.5, "x"), "nested": [(), ({"k": (None,)},)]},
    {1: "a", 2: "b", 10: "c"},
    {True: 1, "x": 2},
    {None: 0, False: [1]},
    {2.5: "f", "a": {3: 4}},
    {"a": {"b": [1, 2, {"c": -0.0, "d": 1e300}]}, "\u00e9": "\u00fc", "n": None},
])
def test_canonical_dumps_matches_the_sanitizing_path(obj):
    assert canonical_dumps(obj) == _sanitized(obj)


def test_canonical_dumps_keys_are_str_of_the_key():
    # the C encoder alone would write "true" and sort 10 before 2 as numbers
    assert canonical_dumps({True: 1}) == '{"True":1}'
    assert canonical_dumps({2: 0, 10: 1}) == '{"10":1,"2":0}'


def test_json_specs_are_digested_without_the_rewrite(monkeypatch):
    doc = json.loads(json.dumps(fixture_to_spec_dict(build_fixture("ex9", k=3))))
    want = _sanitized(doc)
    monkeypatch.setattr("slantkit.specfile._sanitize", None)
    assert canonical_dumps(doc) == want


@pytest.mark.parametrize("structure", [
    {"passed": False, "residuals": {"compatibility": float("nan"), "xi-unit": float("inf")},
     "witness": {"axiom": "evaluation", "point": (0.0, -0.0), "residual": float("inf")}},
    {"passed": np.bool_(True), "residuals": {"metric-law": np.float64(1.5e-17)},
     "seed": np.int64(7), "tolerance": -float("inf"), "points": [(1, 2.5), np.arange(2.0)]},
    {"passed": True, "residuals": {"compatibility": 0.1}, "witness": {"point": [0.5]}},
])
def test_report_json_matches_the_sanitizing_path(structure):
    report = make_run_report("0" * 64, 3, structure=structure, dual={"h_dim": np.int64(2)})
    assert report_json(report) == json.dumps(_sanitize(report), sort_keys=True, indent=2) + "\n"


def _indented(obj) -> str:
    """report_json's layout as first defined: every input rewritten by _sanitize."""
    return json.dumps(_sanitize(obj), sort_keys=True, indent=2, allow_nan=False)


_GOLDEN = sorted((Path(__file__).resolve().parent / "golden").glob("*.json"))


@pytest.mark.parametrize("path", _GOLDEN, ids=[p.stem for p in _GOLDEN])
def test_indented_writer_matches_json_on_golden_reports(path):
    doc = json.loads(path.read_text())
    for obj in [doc, *doc["commands"].values()]:
        assert canonical_dumps(obj, indent=2) == json.dumps(obj, sort_keys=True, indent=2)


_LEAVES = (st.floats() | st.floats().map(np.float64) | st.integers() | st.text()
           | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64) | st.booleans().map(np.bool_)
           | st.sampled_from([None, True, False, {}, [], ()]))
_TREES = st.recursive(_LEAVES, lambda kids: (
    st.lists(kids, min_size=1, max_size=4) | st.lists(kids, min_size=1, max_size=4).map(tuple)
    | st.dictionaries(st.text() | st.integers() | st.booleans(), kids, min_size=1, max_size=4)),
    max_leaves=24)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(), lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(), kids,
                                                                         max_size=4),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_TREES | _JSON)
@example(float("nan"))
@example({"a": [1.5, float("inf")], "b": -float("inf")})
def test_indented_writer_matches_the_sanitizing_path(obj):
    assert canonical_dumps(obj, indent=2) == _indented(obj)


@pytest.mark.parametrize("obj", [
    {}, [], "", {"a": {}, "b": [], "c": [[]]}, {"\u00e9\u2603": ["\U0001f600", "\x00\n\""]},
    {"z": 1, "a": -0.0, "m": [True, False, None, 1e-310, 5e300]},
])
def test_indented_writer_matches_json(obj):
    assert canonical_dumps(obj, indent=2) == json.dumps(obj, sort_keys=True, indent=2)


@pytest.mark.parametrize("n, mask, count, box, seed", [
    (5, None, 7, (-2.0, 2.0), 0), (11, (1, 2, 3, 4, 7, 8, 11), 9, (-1.5, 0.5), 53081),
    (3, (2,), 4, (0.0, 1e-3), 2 ** 40), (4, None, 1, (-2.0, 2.0), 7),
])
def test_box_points_equal_row_by_row_draws(n, mask, count, box, seed):
    rng = rng_for(seed, BOX_STREAM)
    free = [i - 1 for i in mask] if mask else list(range(n))
    want = []
    for _ in range(count):
        p = np.zeros(n)
        p[free] = rng.uniform(*box, size=len(free))
        want.append(p)
    got = box_points(n, mask, count, box=box, seed=seed)
    assert [p.tobytes() for p in got] == [p.tobytes() for p in want]
