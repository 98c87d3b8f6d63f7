"""Manifold spec files: the JSON document format the CLI consumes.

Top-level keys:

    ambient_dim       int
    epsilon           -1 or 1
    kind              "hermitian-like" | "contact-like"
    metric            "euclidean" (default) or an n x n matrix of expressions
    phi_columns       n arrays of n expression strings; column i is the image
                      of the i-th coordinate frame field
    xi                n expression strings (required for contact-like)
    submanifold_mask  optional array of 1-based coordinate indices in TM
    distributions     { name: [ [n expression strings], ... ] }
    decomposition     { "invariant": name|null, "proper": [names] } or null
                      (null switches classification to discovery mode)
    sample_points     array of coordinate arrays, or
                      { "seed": int, "count": int, "box": [lo, hi] }
    tolerances        optional overrides, keys as in config.Tolerances

This module owns schema and reference checking; the semantic checks (axioms,
orthogonality, ranks) live with the structure and distribution modules.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path

import numpy as np

from . import expr as fe
from .config import DEFAULT_TOLERANCES, Tolerances
from .distribution import Decomposition, DistributionFrame
from .errors import ParseError, SpecError
from .sampling import DEFAULT_BOX, box_points
from .structure import KINDS, StructureField


class ManifoldSpec:
    def __init__(self, raw: dict, structure: StructureField,
                 decomposition: Decomposition | None,
                 mask: tuple[int, ...] | None,
                 points: list[np.ndarray], tolerances: Tolerances):
        self.raw = raw
        self.structure = structure
        self.decomposition = decomposition
        self.mask = mask
        self.points = points
        self.tolerances = tolerances

    @property
    def discovery(self) -> bool:
        return self.decomposition is None

    def digest(self) -> str:
        return spec_digest(self.raw)


def canonical_dumps(obj, indent: int | None = None) -> str:
    """Canonical JSON: sorted keys, LF, shortest round-trip floats, and
    compact separators, or `indent` spaces per level (reports). The C encoder
    writes it compact where `obj` reads back from its output unchanged, and
    `_indented` indented where `obj` holds JSON types alone. Else `_sanitize`
    rewrites `obj` first: the encoder refuses numpy values, nan and inf, and
    it would write other bytes for non-str keys (it sorts them unconverted,
    and writes True as "true"); a tuple, which reads back as a list, takes
    that path as well."""
    layout = {"sort_keys": True, "allow_nan": False, "indent": indent,
              "separators": (",", ":") if indent is None else (",", ": ")}
    try:
        if indent is not None:
            return _indented(obj, "\n", " " * indent)
        text = json.dumps(obj, **layout)
        if json.loads(text) == obj:
            return text
    except (TypeError, ValueError):
        pass
    return json.dumps(_sanitize(obj), **layout)


def _indented(obj, newline: str, step: str) -> str:
    """json.dumps(obj, sort_keys=True, indent=len(step)) of a tree of exact
    dicts with str keys, lists, str, int, finite float, bool and None, the
    lines of obj's level starting at `newline`; it raises on anything else."""
    kind = type(obj)
    if kind is float and obj - obj == 0.0 or kind is int:   # finite: nan, inf - inf are nan
        return repr(obj)
    if kind is str:
        return _encode_str(obj)
    if obj is None or kind is bool:
        return "null" if obj is None else "true" if obj else "false"
    inner = newline + step
    if kind is list and obj and set(map(type, obj)) == {float} and math.isfinite(sum(obj)):
        body = list(map(float.__repr__, obj))   # finite floats (a sum of them is finite) at once
    elif kind is list:
        body = [_indented(v, inner, step) for v in obj]
    elif kind is dict:      # _encode_str refuses a key that is not a str
        body = [f"{_encode_str(k)}: {_indented(obj[k], inner, step)}" for k in sorted(obj)]
    else:
        raise TypeError(kind)
    ends = "[]" if kind is list else "{}"
    return f"{ends[0]}{inner}{(',' + inner).join(body)}{newline}{ends[1]}" if body else ends


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if v != v:
            return "nan"
        if v == float("inf"):
            return "inf"
        if v == float("-inf"):
            return "-inf"
        return v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def spec_digest(raw: dict) -> str:
    return hashlib.sha256(canonical_dumps(raw).encode("utf-8")).hexdigest()


def _need(raw: dict, key: str):
    if key not in raw:
        raise SpecError(f"spec is missing the required key {key!r}")
    return raw[key]


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    """A real number that is not a bool and fits a finite double."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _parse_all(sources, n: int, key: str, parsed: dict, nodes: dict) -> list:
    """The trees of a row of expression strings, read once: each of its
    distinct entries is checked to be a string, then each text new to this
    spec is parsed, in the order of its first entry; `key` names the row in
    errors. `parsed` maps each text already parsed to its tree, so a text is
    parsed once and the entries that repeat it share its frozen tree; the
    parses share `nodes`, so equal subtrees of two texts are one object."""
    try:
        texts = dict.fromkeys(sources)
    except TypeError:   # an unhashable entry, which is no string
        texts = {None: None}
    if not texts.keys() <= parsed.keys():       # a text new to this spec, or no text
        if not set(map(type, texts)) <= {str}:  # or a subclass of str
            for j, src in enumerate(sources):
                if not isinstance(src, str):
                    raise SpecError(f"{key}[{j}] must be an expression string, not {src!r}")
        for src in texts:
            if src not in parsed:
                try:
                    parsed[src] = fe.parse(src, n, nodes)
                except ParseError as exc:
                    raise ParseError(f"{key}[{sources.index(src)}]: {exc.reason}",
                                     exc.offset) from None
    return list(map(parsed.__getitem__, sources))


def _vector_field(sources, n: int, key: str, parsed: dict, nodes: dict) -> fe.VectorFieldExpr:
    if not isinstance(sources, list) or len(sources) != n:
        raise SpecError(f"{key} must be an array of {n} expression strings")
    return fe.VectorFieldExpr(_parse_all(sources, n, key, parsed, nodes))


def load_manifold_spec(source) -> ManifoldSpec:
    """Load and schema-check a spec from a path or a dict."""
    if isinstance(source, (str, Path)):
        try:
            raw = json.loads(Path(source).read_text())
        except FileNotFoundError:
            raise SpecError(f"spec file not found: {source}") from None
        except (OSError, UnicodeDecodeError) as exc:
            why = exc.strerror if isinstance(exc, OSError) else f"not text: {exc.reason}"
            raise SpecError(f"spec file cannot be read: {source} ({why})") from None
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec file is not valid JSON: {exc}") from None
    elif isinstance(source, dict):
        raw = source
    else:
        raise SpecError(f"cannot load a spec from {type(source).__name__}")
    if not isinstance(raw, dict):
        raise SpecError("spec document must be a JSON object")

    n = _need(raw, "ambient_dim")
    if not _is_int(n) or n < 1:
        raise SpecError("ambient_dim must be a positive integer")
    epsilon = _need(raw, "epsilon")
    if isinstance(epsilon, bool) or epsilon not in (-1, 1):
        raise SpecError("epsilon must be -1 or 1")
    kind = _need(raw, "kind")
    if kind not in KINDS:
        raise SpecError(f"kind must be one of {KINDS}")

    parsed, nodes = {}, {}  # this load's parses, by text (n is fixed), and their nodes
    metric_raw = raw.get("metric", "euclidean")
    metric = None
    if metric_raw != "euclidean":
        if (not isinstance(metric_raw, list) or len(metric_raw) != n
                or any(not isinstance(row, list) or len(row) != n for row in metric_raw)):
            raise SpecError('metric must be "euclidean" or an n x n matrix of expressions')
        metric = [_parse_all(row, n, f"metric[{i}]", parsed, nodes)
                  for i, row in enumerate(metric_raw)]

    phi_raw = _need(raw, "phi_columns")
    if (not isinstance(phi_raw, list) or len(phi_raw) != n
            or any(not isinstance(col, list) or len(col) != n for col in phi_raw)):
        raise SpecError("phi_columns must be n arrays of n expression strings")
    phi = [_parse_all(col, n, f"phi_columns[{i}]", parsed, nodes) for i, col in enumerate(phi_raw)]

    xi = None
    if kind == "contact-like":
        xi_raw = raw.get("xi")
        if xi_raw is None:
            raise SpecError("contact-like specs need xi")
        xi = _vector_field(xi_raw, n, "xi", parsed, nodes)
    elif raw.get("xi") is not None:
        raise SpecError("hermitian-like specs carry no xi")

    structure = StructureField(n, epsilon, kind, phi, metric=metric, xi=xi)

    mask = None
    if raw.get("submanifold_mask") is not None:
        mask_raw = raw["submanifold_mask"]
        if (not isinstance(mask_raw, list) or not mask_raw
                or any(not _is_int(i) for i in mask_raw)):
            raise SpecError("submanifold_mask must be a nonempty array of integers")
        if any(i < 1 or i > n for i in mask_raw):
            raise SpecError(f"submanifold_mask indices must lie in 1..{n}")
        mask = tuple(sorted(set(mask_raw)))

    dists_raw = raw.get("distributions", {})
    if not isinstance(dists_raw, dict):
        raise SpecError("distributions must be an object of name -> field arrays")
    frames: dict[str, DistributionFrame] = {}
    for name, fields_raw in dists_raw.items():
        if not isinstance(fields_raw, list) or not fields_raw:
            raise SpecError(f"distribution {name!r} must list at least one vector field")
        fields = [_vector_field(src, n, f"distributions.{name}[{j}]", parsed, nodes)
                  for j, src in enumerate(fields_raw)]
        frames[name] = DistributionFrame(name, fields, mask=mask)

    decomposition = None
    dec_raw = raw.get("decomposition")
    if dec_raw is not None:
        if not isinstance(dec_raw, dict):
            raise SpecError("decomposition must be an object or null")
        inv_name = dec_raw.get("invariant")
        proper_names = dec_raw.get("proper", [])
        if inv_name is not None and not isinstance(inv_name, str):
            raise SpecError("decomposition.invariant must be a distribution name or null")
        if not isinstance(proper_names, list) or not all(isinstance(nm, str)
                                                         for nm in proper_names):
            raise SpecError("decomposition.proper must be an array of names")
        if inv_name is None and not proper_names:
            raise SpecError("decomposition names no components")
        for nm in ([inv_name] if inv_name else []) + list(proper_names):
            if nm not in frames:
                raise SpecError(f"decomposition references unknown distribution {nm!r}")
        decomposition = Decomposition(
            structure, [frames[nm] for nm in proper_names],
            invariant=frames[inv_name] if inv_name else None, mask=mask)

    points = _load_points(_need(raw, "sample_points"), n, mask)
    tolerances = DEFAULT_TOLERANCES.override(raw.get("tolerances"))
    return ManifoldSpec(raw, structure, decomposition, mask, points, tolerances)


def _load_points(points_raw, n, mask) -> list[np.ndarray]:
    if isinstance(points_raw, dict):
        for key in ("seed", "count"):
            if key not in points_raw:
                raise SpecError(f"sample_points generator needs {key!r}")
            if not _is_int(points_raw[key]):
                raise SpecError(f"sample_points.{key} must be an integer, "
                                f"not {points_raw[key]!r}")
        box = points_raw.get("box", list(DEFAULT_BOX))
        if (not isinstance(box, list) or len(box) != 2
                or not all(_is_finite_number(b) for b in box) or not box[0] < box[1]
                or not np.isfinite(float(box[1]) - float(box[0]))):
            raise SpecError("sample_points.box must be [lo, hi] with finite numbers lo < hi "
                            "and a finite width hi - lo")
        count = points_raw["count"]
        if count < 1:
            raise SpecError("sample_points.count must be >= 1")
        return box_points(n, mask, count, box=(float(box[0]), float(box[1])),
                          seed=points_raw["seed"])
    if not isinstance(points_raw, list) or not points_raw:
        raise SpecError("sample_points must be a nonempty array or a generator object")
    fits = [isinstance(row, (list, tuple)) and len(row) == n for row in points_raw]
    rows = points_raw[:fits.index(False)] if False in fits else points_raw
    try:    # JSON's floats and ints as one array; an int beyond the doubles overflows
        if not set(map(type, chain(*rows))) <= {float, int}:
            raise TypeError("a bool, a string or another type: each value is checked")
        xs = np.array(rows, dtype=float).reshape(len(rows), n)
        finite = np.isfinite(xs).all(axis=1)
    except (TypeError, OverflowError):
        finite = np.array([all(map(_is_finite_number, row)) for row in rows], bool)
        xs = np.array([row if ok else [0] * n for row, ok in zip(rows, finite)],
                      dtype=float).reshape(len(rows), n)
    stop = len(rows) if finite.all() else int(np.argmin(finite))
    outside = np.ones(n, bool)
    outside[[i - 1 for i in mask or range(1, n + 1)]] = False
    # the first row to fail a check raises, for its first: length, finite, mask
    if (xs[:stop, outside] != 0.0).any():
        raise SpecError("sample point leaves the submanifold mask")
    if stop < len(rows):
        raise SpecError(f"sample point {rows[stop]!r} must hold finite numbers")
    if len(rows) < len(points_raw):
        raise SpecError(f"sample point {points_raw[len(rows)]!r} does not have {n} coordinates")
    return list(xs)
