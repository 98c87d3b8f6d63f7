"""Slant spectra and the taxonomy verdicts.

The slant value theta of a component D_i at a point is read off the
restricted square f^2|D_i = eps * cos(theta)^2 * I: a valid component carries
exactly one eigenvalue cluster, whose value lambda is the trace mean of the
component's block of the frame's f^2 Gram, and eps * lambda = cos(theta)^2.
`single_cluster_lambda` reads the blocks of all components at once, over a
component axis. The full spectrum of f^2|D clustered per point drives the
generic / skew-CR / CR style verdicts.

Every statistic is an array pass over the point stack: one `eigvalsh` and one
gap mask cluster all spectra (`_spectrum_table`); slant values, cluster tracks
and pair gaps are (points x components) tables. theta is `math.acos` per
value: numpy's float64 arccos may run SIMD code whose last bit depends on the
CPU, and report bytes must not.

Constancy and distinctness are decided over the finite sample set only and
every report says so; the underlying definitions quantify over the whole
manifold, which a numerical tool cannot certify.

Verdict vocabulary (the implication lattice is in taxonomy.VERDICT_LATTICE):

* ``k-slant``: every proper component has a constant slant value and the
  values are pairwise distinct at every sampled point.
* ``k-pointwise-slant``: the slant functions are pairwise distinct as
  functions (some sampled point separates each pair).
* ``pointwise-k-slant``: the slant values are pairwise distinct at every
  sampled point.
* ``generic``: the clustered spectrum has point-independent cluster count and
  multiplicities, clusters at 0 or eps stay there at every point, at least
  one interior cluster is strictly pointwise (non-constant), matched clusters
  stay separated at every point, and the pointwise-k-slant verdict holds, so
  the lattice cannot break.
* ``skew-CR``: constant eigenvalue functions with constant multiplicities and
  at least one interior cluster (not reducible to CR or anti-invariant).

Declared and discovery mode reach these labels through one function,
`_verdicts`; discovery's components are the eigenvalue clusters of f^2 on
the one component "D" (`_TangentSpace`).
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .distribution import Decomposition, FrameStack, check_f_invariance
from .errors import ComponentError, InvariantError, ModelError, SpecError
from .linalg import column_norms, complement_columns, each_by_shape
from .sampling import DEFAULT_SEED
from .structure import StructureField
from .taxonomy import VERDICT_LATTICE

HALF_PI = math.pi / 2.0


class SlantCluster(NamedTuple):
    lam: float
    alpha: float
    theta: float
    multiplicity: int

    def to_json_dict(self) -> dict:
        return dict(zip(("lambda", "alpha", "theta", "multiplicity"), self))


class SlantSpectrum(NamedTuple):
    """Clustered eigen-data of f^2|D at one point, lambda ascending."""
    point: np.ndarray
    clusters: list[SlantCluster]

    def to_json_dict(self) -> dict:
        return {"point": self.point.tolist(), "clusters": [c.to_json_dict() for c in self.clusters]}


def alpha_theta(lam, epsilon: int, band: float) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, theta) of each lambda of an array, eps * lambda = alpha^2 =
    cos(theta)^2, theta by `math.acos` per value. ModelError for the first
    lambda (C order) with eps * lambda outside [0, 1] beyond the band."""
    s = epsilon * np.asarray(lam, dtype=float)
    outside = ~((s >= -band) & (s <= 1.0 + band))      # a NaN is outside too
    if outside.any():
        raise ModelError(f"eps*lambda = {float(s[outside][0])} outside [0, 1] beyond the "
                         "tolerance band; structure or decomposition is invalid")
    clipped = np.where(0.0 > s, 0.0, s)                 # max(s, 0.0) keeps -0.0, as in Python
    alpha = np.sqrt(np.where(1.0 < clipped, 1.0, clipped))
    return alpha, np.array([math.acos(a) for a in alpha.ravel().tolist()]).reshape(alpha.shape)


def _spectrum_table(f2: np.ndarray, epsilon: int, tolerances: Tolerances) -> tuple:
    """The clustered spectra of the f^2 Grams f2 (P, r, r): (P, c) tables of
    lambda, alpha, theta and multiplicity, 0 past a point's last cluster.
    Each point's eigenvalues, ascending (NaN last), are cut at every gap
    above `tolerances.cluster`; the points cut alike take each cluster's
    mean at once. ModelError for the first (point, cluster) off the band."""
    evals = np.sort(np.linalg.eigvalsh(f2), axis=1)
    starts = np.concatenate([np.ones((len(evals), 1), bool),
                             ~(np.diff(evals, axis=1) <= tolerances.cluster)], axis=1)
    lam, mult, todo = np.zeros(evals.shape), np.zeros(evals.shape, int), np.ones(len(evals), bool)
    while todo.any():       # once per distinct cut, most often once
        cut = starts[np.argmax(todo)]
        rows = todo & (starts == cut).all(axis=1)
        edges = [*np.flatnonzero(cut), evals.shape[1]]
        for c, (a, b) in enumerate(zip(edges, edges[1:])):
            lam[rows, c], mult[rows, c] = evals[rows, a:b].mean(axis=1), b - a
        todo &= ~rows
    lam, mult = lam[:, mult.any(axis=0)], mult[:, mult.any(axis=0)]
    return lam, *alpha_theta(lam, epsilon, tolerances.lambda_band), mult


def _spectra(x: np.ndarray, table) -> list[SlantSpectrum]:
    """The `SlantSpectrum` of each point of x (P, n) from `_spectrum_table`'s tables."""
    return [SlantSpectrum(p, [SlantCluster(*c) for c in zip(*row) if c[3]])
            for p, *row in zip(x, *(a.tolist() for a in table))]


def slant_spectra(stack: FrameStack, tolerances: Tolerances = DEFAULT_TOLERANCES
                  ) -> list[SlantSpectrum]:
    """The clustered spectrum of f^2|D at each point of the stack."""
    return _spectra(stack.x, _spectrum_table(stack.f2, stack.epsilon, tolerances))


def component_slant(dec: Decomposition, point, index: int,
                    tolerances: Tolerances = DEFAULT_TOLERANCES) -> SlantCluster:
    """Slant cluster of component `index` at one point, read from its frame
    (`Decomposition.frame_at`) by `single_cluster_lambda`."""
    if not 0 <= index < len(dec.components):
        raise SpecError(f"component index {index} outside 0..{len(dec.components) - 1}")
    frame = dec.frame_at(point)
    lam = single_cluster_lambda([dec.components[index].name], [frame.f2_component(index)], "at",
                                frame.x, frame.epsilon, tolerances)
    (alpha,), (theta,) = alpha_theta(lam, frame.epsilon, tolerances.lambda_band)
    return SlantCluster(float(lam[0]), float(alpha), float(theta), frame.bases[index].shape[-1])


def slant_lambdas(stack: FrameStack, indices, tolerances: Tolerances = DEFAULT_TOLERANCES
                  ) -> np.ndarray:
    """lambda (P, len(indices)) of the components of `indices` over the
    stack, read by `single_cluster_lambda` from their blocks of the f^2 Gram."""
    off = stack.offsets
    blocks = [stack.f2[:, off[i]:off[i + 1], off[i]:off[i + 1]] for i in indices]
    return single_cluster_lambda([stack.dec.components[i].name for i in indices], blocks, "at",
                                 stack.x, stack.epsilon, tolerances)


def _trace_certificate(mats: np.ndarray) -> np.ndarray:
    """[tr(mat) / r, sqrt(2) * ||mat - lambda I||_F] (..., 2) of matrices (..., r, r)."""
    lam = np.trace(mats, axis1=-2, axis2=-1) / mats.shape[-1]
    dev = mats - lam[..., None, None] * np.eye(mats.shape[-1])
    return np.stack([lam, math.sqrt(2.0) * np.sqrt(np.sum(dev * dev, axis=(-2, -1)))], axis=-1)


def single_cluster_lambda(names: list[str], blocks: list[np.ndarray], place: str, x: np.ndarray,
                          epsilon: int, tolerances: Tolerances = DEFAULT_TOLERANCES,
                          checked=True) -> np.ndarray:
    """lambda (..., K) of the K components `names` from their f^2 blocks
    (..., r_i, r_i), one leading shape for all: the trace mean tr(block) / r_i.
    This is the one reader of slant values; blocks of one rank form one stack.

    The members where `checked` (broadcast to (..., K)) holds are checked one
    component at a time, in order. A block's eigenvalue spread is at most
    sqrt(2) * ||block - lambda I||_F, so a certificate at or below cluster/2
    proves one cluster; `_count_clusters` decides each member it does not
    clear (C order), placed `place` ("at", or "to first order near" for the
    probe's models) at its point of `x`, (n,) or (..., n). Then ModelError
    for the component's first lambda outside the band."""
    table = (np.stack(each_by_shape(_trace_certificate, blocks), axis=-2) if blocks
             else np.zeros(x.shape[:-1] + (0, 2)))
    lam, cert = table[..., 0], table[..., 1]
    band, todo = tolerances.lambda_band, np.broadcast_to(checked, lam.shape)
    split, s = todo & (cert > 0.5 * tolerances.cluster), epsilon * lam
    outside = todo & ~((s >= -band) & (s <= 1.0 + band))     # a NaN is outside too
    points = np.broadcast_to(x, lam.shape[:-1] + x.shape[-1:])
    for i in np.flatnonzero((split | outside).any(axis=tuple(range(lam.ndim - 1)))):
        for member in map(tuple, np.argwhere(split[..., i])):
            _count_clusters(epsilon, names[i], blocks[i][member], tolerances,
                            f"{place} {points[member].tolist()}")
        if outside[..., i].any():
            alpha_theta(lam[..., i][outside[..., i]], epsilon, band)     # raises ModelError
    return lam


def _count_clusters(epsilon: int, name: str, mat: np.ndarray, tolerances: Tolerances,
                    where: str):
    """The clusters of a matrix the certificate did not clear
    (`_spectrum_table`): ModelError for a cluster outside the lambda band,
    ComponentError for more than one cluster (placed `where`)."""
    lams = _spectrum_table(mat[None], epsilon, tolerances)[0][0].tolist()
    if len(lams) != 1:
        raise ComponentError(
            f"component {name!r} carries {len(lams)} eigenvalue clusters "
            f"{lams} {where}; the declared decomposition is coarser "
            "than the eigenstructure")


# ---------------------------------------------------------------------------
# Slant-table statistics. A slant table holds one row per sample point and
# one column per component (classify) or cluster track (discover,
# _analyze_tracks); every constancy and distinctness decision reads it here.
# ---------------------------------------------------------------------------

def _witness_point(point) -> list:
    """Coordinates of a sample point (an (n,) array) as a list for a report."""
    return np.asarray(point).tolist()


def _constancy_span(table: np.ndarray) -> np.ndarray:
    """Max minus min of each column's slant values over the points."""
    return table.max(axis=0) - table.min(axis=0)


def _first_coincidence(table: np.ndarray, tol: float) -> int | None:
    """First row at which two slant values lie within `tol`, or None."""
    a, b = np.triu_indices(table.shape[1], 1)
    hit = (np.abs(table[:, a] - table[:, b]) <= tol).any(axis=1)
    return int(np.argmax(hit)) if hit.any() else None


def _first_agreeing_pair(table: np.ndarray, tol: float) -> tuple[int, int] | None:
    """First column pair (a, b), a < b (`np.triu_indices` order), whose slant
    values lie within `tol` at every row, or None; a NaN agrees nowhere."""
    a, b = np.triu_indices(table.shape[1], 1)
    agree = np.flatnonzero(np.abs(table[:, a] - table[:, b]).max(axis=0) <= tol)
    return (int(a[agree[0]]), int(b[agree[0]])) if agree.size else None


def _component_entry(name: str, rank: int, declared_invariant: bool, theta: np.ndarray,
                     lam, tolerances: Tolerances) -> dict:
    """Report entry of one component from its slant values over the points:
    `invariant` when they all vanish, `slant` when they are constant,
    `pointwise-slant` otherwise."""
    if float(theta.max()) <= tolerances.angle_const:
        verdict = "invariant"
    elif float(_constancy_span(theta)) <= tolerances.angle_const:
        verdict = "slant"
    else:
        verdict = "pointwise-slant"
    return {"name": name, "rank": rank, "declared_invariant": declared_invariant,
            "verdict": verdict, "theta": [float(t) for t in theta],
            "lambda": [float(v) for v in lam]}


# ---------------------------------------------------------------------------
# Cluster tracks across points (for generic / skew-CR / CR verdicts)
# ---------------------------------------------------------------------------

def _analyze_tracks(table, x, epsilon, tolerances, points):
    """Generic / skew-CR / CR / anti-invariant ingredients from the clustered
    full spectra (`_spectrum_table` at the points x). Clusters are matched
    across points by ascending-lambda order, which is valid only when the
    cluster count and multiplicity vectors agree at every point (`tracks_ok`)."""
    info = dict.fromkeys(("tracks_ok", "type_stable", "strictly_pointwise", "all_constant",
                          "separated_everywhere", "interior_exists", "all_special", "all_zero"),
                         False) | {"witness": None, "alpha_flags": []}
    lam, alphas, thetas, mult = table
    counts = (mult > 0).sum(axis=1)
    if (counts != counts[0]).any():
        bad = np.argmax(counts == (counts.min() if counts.min() != counts[0] else counts.max()))
        info["witness"] = {"reason": "cluster count varies with the point",
                           "counts": counts.tolist(), "point": x[bad].tolist()}
        return info
    if (mult != mult[0]).any():
        bad = np.argmax((mult != mult[0]).any(axis=1))
        info["witness"] = {"reason": "cluster multiplicities vary with the point",
                           "multiplicities": mult.tolist(), "point": x[bad].tolist()}
        return info
    info["tracks_ok"] = True
    ztol = tolerances.cluster
    # per (point, track) type: 0 zero, 1 one (eps), 2 interior
    types = np.where(np.abs(lam) <= ztol, 0, np.where(np.abs(lam - epsilon) <= ztol, 1, 2))
    mixed = (types != types[0]).any(axis=0)
    info["type_stable"] = not mixed.any()
    if not info["type_stable"]:
        t_bad = int(np.argmax(mixed))
        # witness: where the special value is attained (that point breaks the
        # point-independence of the 0 / eps eigenvalues)
        special = np.flatnonzero(types[:, t_bad] < 2)
        p_bad = special[0] if special.size else np.argmax(types[:, t_bad] != types[0, t_bad])
        info["witness"] = {"reason": "a cluster attains 0 or eps at some points only",
                           "track": t_bad, "point": _witness_point(points[p_bad])}
    interior = (types == 2).all(axis=0)
    info["interior_exists"] = bool(interior.any())
    info["all_special"] = info["type_stable"] and not info["interior_exists"]
    info["all_zero"] = bool((types == 0).all())
    theta_span = _constancy_span(thetas)
    info["all_constant"] = bool(np.all(theta_span <= tolerances.angle_const))
    info["strictly_pointwise"] = bool((theta_span[interior] > tolerances.angle_const).any())
    p_sep = _first_coincidence(thetas, tolerances.angle_distinct)
    info["separated_everywhere"] = p_sep is None
    if p_sep is not None and info["witness"] is None:
        info["witness"] = {"reason": "matched clusters not separated",
                           "point": _witness_point(points[p_sep])}
    margin = tolerances.alpha_margin
    amin, amax = alphas.min(axis=0).tolist(), alphas.max(axis=0).tolist()
    info["alpha_flags"] = [
        {"track": t, "alpha_min": amin[t], "alpha_max": amax[t],
         "note": f"alpha within {margin} of 0 or 1; the open-interval "
                 "requirement is decided up to this margin"}
        for t in np.flatnonzero(interior).tolist() if amin[t] < margin or amax[t] > 1.0 - margin]
    return info


# ---------------------------------------------------------------------------
# Classification of a declared decomposition
# ---------------------------------------------------------------------------

class ClassificationReport(NamedTuple):
    points: list
    components: list[dict]      # display-ordered
    labels: dict                # label -> bool
    evidence: dict              # label -> witness dict (failures)
    named_cases: list[str]
    spectra: list[SlantSpectrum]
    alpha_flags: list[dict]
    seed: int
    tolerances: Tolerances
    k: int
    scope_note = "constancy/distinctness verdicts hold on sampled points only"

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "seed": self.seed,
            "scope": self.scope_note,
            "points": [np.asarray(p).tolist() for p in self.points],
            "components": self.components,
            "labels": {k: self.labels[k] for k in sorted(self.labels)},
            "named_cases": sorted(self.named_cases),
            "evidence": {k: self.evidence[k] for k in sorted(self.evidence)},
            "alpha_flags": self.alpha_flags,
            "spectra": [s.to_json_dict() for s in self.spectra],
        }


def classify(dec: Decomposition, points, tolerances: Tolerances = DEFAULT_TOLERANCES,
             seed: int = DEFAULT_SEED) -> ClassificationReport:
    """Classify a declared decomposition over the sample points."""
    points = list(points)
    if len(points) < 2:
        raise SpecError("classification needs at least two sample points")
    inv_report = check_f_invariance(dec, points, trials=10, tol=tolerances.invariance,
                                    seed=seed)
    if not inv_report.passed:
        raise ModelError(f"f-invariance violated: {inv_report.witness}")

    comps = dec.components
    inv_idx = 0 if dec.invariant is not None else None
    stack = dec.frame_stack(points)
    lam = slant_lambdas(stack, range(len(comps)), tolerances)
    theta = alpha_theta(lam, stack.epsilon, tolerances.lambda_band)[1]
    entries = [_component_entry(comp.name, comp.rank, ci == inv_idx, th, lm, tolerances)
               for ci, (comp, th, lm) in enumerate(zip(comps, theta.T, lam.T))]
    table = _spectrum_table(stack.f2, stack.epsilon, tolerances)
    tr = _analyze_tracks(table, stack.x, stack.epsilon, tolerances, points)
    return _verdicts(theta, entries, inv_idx, tr, points, tolerances, _DECLARED_WORDING,
                     _spectra(stack.x, table), seed)


# How the constancy failures of k-slant and skew-CR are worded in each mode;
# discovery reports keep their own wording (pinned by perfbench/reference).
_DECLARED_WORDING = {"k-slant": "a slant function is not constant on the sampled points",
                    "skew-CR": "eigenvalue functions not constant"}
_DISCOVERY_WORDING = {
    "k-slant": "cluster slant functions not constant and separated on sampled points",
    "skew-CR": "eigenvalue functions not constant or no interior cluster"}


def _verdicts(theta: np.ndarray, entries: list[dict], inv_idx: int | None, tr: dict,
              points, tolerances: Tolerances, wording: dict, spectra: list[SlantSpectrum],
              seed: int) -> ClassificationReport:
    """The report, its labels, evidence and named cases decided from the
    slant table `theta` (one column per component, reported as `entries`),
    the cluster tracks `tr` of `_analyze_tracks` and `inv_idx`, the column
    playing D0 (None without one). Both modes decide here; `wording` words
    the constancy failures.

    A pointwise-k-slant or k-pointwise-slant failure carries the rule that
    decided it: no proper component, the invariant-component or
    proper-positivity rule, or the first coinciding point or agreeing pair."""
    names = [e["name"] for e in entries]
    proper_idx = [ci for ci in range(len(entries)) if ci != inv_idx]
    k = len(proper_idx)
    prop_theta = theta[:, proper_idx]
    evidence: dict[str, dict] = {}

    invariant_ok = inv_idx is None or entries[inv_idx]["verdict"] == "invariant"
    if not invariant_ok:
        evidence["invariant-component"] = {
            "reason": f"declared invariant component {names[inv_idx]!r} measures "
                      "a nonzero slant value",
            "max_theta": float(theta[:, inv_idx].max())}
    for ci in proper_idx:
        bad = np.flatnonzero(theta[:, ci] <= tolerances.angle_const)
        if bad.size:
            evidence["proper-positivity"] = {
                "reason": f"proper component {names[ci]!r} has slant value 0",
                "point": _witness_point(points[bad[0]])}
            break
    rule = ({"reason": "no proper component"} if k == 0
            else evidence.get("invariant-component") or evidence.get("proper-positivity"))

    # pointwise-k-slant: pairwise distinct at every sampled point;
    # k-pointwise-slant: distinct as functions (some sampled point separates)
    if rule is not None:
        evidence["pointwise-k-slant"] = evidence["k-pointwise-slant"] = rule
    else:
        p_bad = _first_coincidence(prop_theta, tolerances.angle_distinct)
        if p_bad is not None:
            evidence["pointwise-k-slant"] = {
                "reason": "slant values coincide at a sampled point",
                "point": _witness_point(points[p_bad]),
                "theta": [float(t) for t in prop_theta[p_bad]]}
        pair = _first_agreeing_pair(prop_theta, tolerances.angle_distinct)
        if pair is not None:
            evidence["k-pointwise-slant"] = {
                "reason": "two slant functions agree at every sampled point",
                "components": [names[proper_idx[j]] for j in pair]}
    pks = "pointwise-k-slant" not in evidence
    kps = "k-pointwise-slant" not in evidence

    all_constant = bool(np.all(_constancy_span(prop_theta) <= tolerances.angle_const))
    kslant = all_constant and pks
    if not kslant:
        evidence["k-slant"] = ({"reason": wording["k-slant"]} if not all_constant
                               else evidence["pointwise-k-slant"])

    stable = tr["tracks_ok"] and tr["type_stable"] and tr["separated_everywhere"]
    generic = stable and tr["strictly_pointwise"] and pks
    if not generic:
        evidence["generic"] = (
            tr["witness"] if not stable
            else {"reason": "no strictly pointwise eigenvalue function "
                            "with alpha inside (0, 1)"} if not tr["strictly_pointwise"]
            else evidence["pointwise-k-slant"])

    skew_cr = tr["tracks_ok"] and tr["all_constant"] and tr["interior_exists"]
    if not skew_cr:
        evidence["skew-CR"] = (tr["witness"] if not tr["tracks_ok"]
                               else {"reason": wording["skew-CR"]} if not tr["all_constant"]
                               else {"reason": "reducible to a CR or anti-invariant structure"})

    labels = {
        "k-slant": kslant,
        "k-pointwise-slant": kps,
        "pointwise-k-slant": pks,
        "generic": generic,
        "skew-CR": skew_cr,
        "CR": tr["tracks_ok"] and tr["all_special"],
        "anti-invariant": tr["tracks_ok"] and tr["all_zero"],
        "proper": inv_idx is None and not any(e["verdict"] == "invariant" for e in entries),
    }
    _assert_lattice(labels)
    named = _named_cases(labels, k, inv_idx is not None and invariant_ok, prop_theta,
                         tolerances)
    return ClassificationReport(points, _display_order(entries), labels, evidence, named,
                                spectra, tr["alpha_flags"], seed, tolerances, k)


def _named_cases(labels, k, has_invariant, prop_theta, tolerances) -> list[str]:
    """Classical names for small k, assigned from the measured verdicts."""
    named = []
    if prop_theta.size == 0:
        return named
    first = prop_theta[0]
    is_half_pi = [abs(t - HALF_PI) <= tolerances.angle_const for t in first]
    theta_const = _constancy_span(prop_theta) <= tolerances.angle_const
    if labels["k-slant"]:
        if k == 1:
            if has_invariant:
                named.append("semi-invariant" if is_half_pi[0] else "semi-slant")
            elif is_half_pi[0]:
                named.append("anti-invariant")
        elif k == 2:
            if has_invariant:
                named.append("almost-bi-slant")
            else:
                named.append("bi-slant")
                if any(is_half_pi):
                    named.append("hemi-slant")
    elif labels["pointwise-k-slant"]:
        if k == 1 and has_invariant and not (theta_const[0] and is_half_pi[0]):
            named.append("pointwise semi-slant")
        elif k == 2 and not has_invariant:
            named.append("pointwise bi-slant")
            if any(theta_const[j] and is_half_pi[j] for j in range(k)):
                named.append("pointwise hemi-slant")
    return named


def _assert_lattice(labels: dict):
    for src, targets in VERDICT_LATTICE.items():
        if labels.get(src):
            for dst in targets:
                if not labels.get(dst):
                    raise InvariantError(
                        f"verdict lattice violated: {src} holds but {dst} does not")


def _display_order(entries: list[dict]) -> list[dict]:
    """Invariant components first, then ascending slant value at the first
    sample point; deterministic."""
    def sort_key(e):
        return (0 if e["verdict"] == "invariant" else 1, e["theta"][0], e["name"])
    return sorted(entries, key=sort_key)


# ---------------------------------------------------------------------------
# Discovery mode: no declared decomposition
# ---------------------------------------------------------------------------

class _TangentSpace(Decomposition):
    """Discovery's decomposition: the one component "D", the tangent space of
    the masked linear subspace (the whole ambient space without a mask),
    minus the span of xi in the contact-like case. It has no fields: its
    columns come from `raw_at`."""

    def __init__(self, structure: StructureField, mask: tuple[int, ...] | None):
        slot = SimpleNamespace(name="D", n=structure.n, mask=None)
        super().__init__(structure, [slot], mask=mask)
        self.tm = np.stack(self.tm_directions(), axis=1)
        slot.rank = self.tm.shape[1] - structure.is_contact
        if slot.rank < 1:
            raise SpecError("the masked tangent space holds no direction besides xi")

    def raw_at(self, x: np.ndarray) -> np.ndarray:
        """The masked coordinate directions at x (..., n); for contact-like
        kinds, a g-orthonormal basis of TM ∩ xi⊥: in TM coordinates, with the
        metric gram = tm^T g tm and xi = tm a, the gram-complement of a."""
        if not self.structure.is_contact:
            return np.broadcast_to(self.tm, x.shape[:-1] + self.tm.shape).copy()
        (g, _, xi), tm = self.structure.fields_at(x), self.tm
        gram, xi = tm.T @ g @ tm, xi[..., None]
        a = np.linalg.solve(gram, tm.T @ g @ xi)
        # xi must live inside TM for the decomposition to make sense
        if (column_norms(tm @ a - xi) > 1e-9 * column_norms(xi)).any():
            raise SpecError("xi does not lie inside the masked tangent space")
        return tm @ complement_columns(gram, a / np.sqrt(np.swapaxes(a, -1, -2) @ gram @ a))


def discover(structure: StructureField, points, mask: tuple[int, ...] | None = None,
             tolerances: Tolerances = DEFAULT_TOLERANCES,
             seed: int = DEFAULT_SEED) -> ClassificationReport:
    """Classify with candidate components given by the eigenvalue clusters of
    f^2 on D (`_TangentSpace`), exactly the eigenspace decomposition the
    skew-CR and generic descriptions build. The clusters play D0..Dk for
    `_verdicts`: an invariant cluster (the first, should tolerances admit
    more than one) is D0, the others are proper.
    """
    points = list(points)
    if len(points) < 2:
        raise SpecError("classification needs at least two sample points")
    dec = _TangentSpace(structure, mask)
    stack = dec.frame_stack(points)
    table = _spectrum_table(stack.f2, stack.epsilon, tolerances)
    tr = _analyze_tracks(table, stack.x, structure.epsilon, tolerances, points)
    if not tr["tracks_ok"]:
        raise ComponentError(f"eigenstructure is not stable across points: {tr['witness']}")

    lam, _, theta, mult = table
    entries = [_component_entry(f"C{t + 1}", m, False, theta[:, t], lam[:, t], tolerances)
               for t, m in enumerate(mult[0].tolist())]
    inv_idx = next((t for t, e in enumerate(entries) if e["verdict"] == "invariant"), None)
    return _verdicts(theta, entries, inv_idx, tr, points, tolerances, _DISCOVERY_WORDING,
                     _spectra(stack.x, table), seed)
