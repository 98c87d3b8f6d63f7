"""Spec loading: the per-load parse of each distinct entry text, and the
canonical digest."""

import json

import numpy as np
import pytest

from slantkit import expr as fe
from slantkit.errors import ParseError
from slantkit.gallery import build_fixture, fixture_to_spec_dict
from slantkit.specfile import _sanitize, canonical_dumps, load_manifold_spec, spec_digest


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
    monkeypatch.setattr(fe, "parse", lambda src, n: calls.append(src) or parse(src, n))
    spec = load_manifold_spec(doc)
    assert sorted(calls) == sorted(set(texts))
    load_manifold_spec(doc)
    assert len(calls) == 2 * len(set(texts))
    phi = spec.structure.phi_columns
    zeros = [e for col, col_src in zip(phi, doc["phi_columns"])
             for e, src in zip(col, col_src) if src == "0"]
    assert len(zeros) > 1 and all(e is zeros[0] for e in zeros)


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


# sha256 of two gallery specs, captured while canonical_dumps still rewrote
# every input through _sanitize. Reports carry this digest, and neither the
# golden nor the benchmark report comparisons look at it.
@pytest.mark.parametrize("fid, k, epsilon, digest", [
    ("ex3", 2, -1, "7d0f4ef8aca8fc21f3fa5565103bd4b872eba6118e81778f01d6135cc1a307bb"),
    ("ex8", 2, 1, "1b9499f2f71ec81a87e333120c114a79cbba42a895b2d67a431352ef2c7b63ce"),
])
def test_spec_digest_is_pinned(fid, k, epsilon, digest):
    doc = fixture_to_spec_dict(build_fixture(fid, k=k, epsilon=epsilon))
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
