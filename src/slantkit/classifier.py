"""Slant spectra and the taxonomy verdicts.

The slant value theta of a component D_i at a point is read off the
restricted square f^2|D_i = eps * cos(theta)^2 * I: a valid component carries
exactly one eigenvalue cluster, whose value lambda is the trace mean of the
component's block of the frame's f^2 Gram (`single_cluster_lambda`), and
eps * lambda = cos(theta)^2. The full spectrum of f^2|D clustered per point
drives the generic / skew-CR / CR style verdicts.

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
the one component "D" (`_TangentComponent`).
"""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .distribution import Decomposition, FrameStack, check_f_invariance, per_point
from .errors import ComponentError, InvariantError, ModelError, SpecError
from .linalg import complement_columns
from .sampling import DEFAULT_SEED
from .structure import StructureField

HALF_PI = math.pi / 2.0


def _lambda_to_alpha_theta(lam: float, epsilon: int, band: float) -> tuple[float, float]:
    s = epsilon * lam
    if not -band <= s <= 1.0 + band:      # a NaN is outside too
        raise ModelError(
            f"eps*lambda = {s} outside [0, 1] beyond the tolerance band; "
            "structure or decomposition is invalid")
    alpha = math.sqrt(min(max(s, 0.0), 1.0))
    return alpha, math.acos(min(1.0, max(0.0, alpha)))


def cluster_eigenvalues(evals: np.ndarray, cluster_tol: float) -> list[list[int]]:
    """Greedy ascending clustering: a new cluster starts at a gap > tol."""
    order = np.argsort(evals)
    groups: list[list[int]] = []
    for idx in order:
        if groups and evals[idx] - evals[groups[-1][-1]] <= cluster_tol:
            groups[-1].append(int(idx))
        else:
            groups.append([int(idx)])
    return groups


class SlantCluster:
    __slots__ = ("lam", "alpha", "theta", "multiplicity")

    def __init__(self, lam, alpha, theta, multiplicity):
        self.lam = lam
        self.alpha = alpha
        self.theta = theta
        self.multiplicity = multiplicity

    def to_json_dict(self) -> dict:
        return {"lambda": self.lam, "alpha": self.alpha, "theta": self.theta,
                "multiplicity": self.multiplicity}


class SlantSpectrum:
    """Clustered eigen-data of f^2|D at one point, lambda ascending."""

    def __init__(self, point: np.ndarray, clusters: list[SlantCluster]):
        self.point = point
        self.clusters = clusters

    def to_json_dict(self) -> dict:
        return {"point": self.point.tolist(),
                "clusters": [c.to_json_dict() for c in self.clusters]}


@per_point
def slant_spectra(stack: FrameStack, tolerances: Tolerances = DEFAULT_TOLERANCES
                  ) -> list[SlantSpectrum]:
    """The clustered spectrum of f^2|D at each point of the stack, from one
    `eigvalsh` over its f^2 Grams."""
    out = []
    for x, evals in zip(stack.x, np.linalg.eigvalsh(stack.f2)):
        clusters = []
        for group in cluster_eigenvalues(evals, tolerances.cluster):
            lam = float(np.mean(evals[group]))
            clusters.append(SlantCluster(lam, *_lambda_to_alpha_theta(
                lam, stack.epsilon, tolerances.lambda_band), len(group)))
        out.append(SlantSpectrum(x, clusters))
    return out


def component_slant(dec: Decomposition, point, index: int,
                    tolerances: Tolerances = DEFAULT_TOLERANCES) -> SlantCluster:
    """Slant cluster of component `index` at one point, read from its frame
    (`Decomposition.frame_at`) by `single_cluster_lambda`."""
    if not 0 <= index < len(dec.components):
        raise SpecError(f"component index {index} outside 0..{len(dec.components) - 1}")
    frame = dec.frame_at(point)
    lam = single_cluster_lambda(frame, dec.components[index].name, frame.f2_component(index),
                                tolerances)
    return SlantCluster(lam, *_lambda_to_alpha_theta(lam, frame.epsilon, tolerances.lambda_band),
                        frame.bases[index].shape[-1])


def slant_thetas(stack: FrameStack, lam: np.ndarray, tolerances: Tolerances) -> list[float]:
    """The slant values of the lambdas `lam` (P,)."""
    return [_lambda_to_alpha_theta(v, stack.epsilon, tolerances.lambda_band)[1]
            for v in lam.tolist()]


@per_point
def slant_lambdas(stack: FrameStack, indices, tolerances: Tolerances = DEFAULT_TOLERANCES
                  ) -> list[np.ndarray]:
    """lambda (P,) of each component of `indices` over the stack, read by
    `single_cluster_lambda` from its blocks of the f^2 Gram."""
    off = stack.offsets
    return [single_cluster_lambda(stack, stack.dec.components[i].name,
                                  stack.f2[:, off[i]:off[i + 1], off[i]:off[i + 1]], tolerances)
            for i in indices]


def single_cluster_lambda(frame, name: str, mat: np.ndarray,
                          tolerances: Tolerances = DEFAULT_TOLERANCES):
    """lambda of the component `name` at `frame` from its f^2 matrix `mat`
    (r x r, symmetric, in an orthonormal basis of the component): the trace
    mean tr(mat) / r, the mean of its single eigenvalue cluster. This is the
    one reader of slant values.

    The cluster count is checked. The eigenvalue spread of `mat` is at most
    sqrt(2) * ||mat - lambda I||_F, so a certificate at or below cluster/2
    proves one cluster; otherwise eigvalsh and `cluster_eigenvalues` count
    the clusters, and more than one raises ComponentError naming `name`.
    ModelError when a cluster lies outside the lambda band.

    `mat` may also be a stack (q, r, r): one matrix per point of a
    `FrameStack` `frame` (errors name the member's point), or the connection
    probe's first-order models near a `PointFrame` ("to first order near"
    its point). The certificate and the band are checked on every member at
    once, eigvalsh runs only on members the certificate does not clear, and
    the result is the array of trace means (a float for one matrix)."""
    one = mat.ndim == 2
    stack = mat[None] if one else mat
    r = mat.shape[-1]
    band = tolerances.lambda_band
    lam = np.trace(stack, axis1=1, axis2=2) / r
    dev = stack - lam[:, None, None] * np.eye(r)
    cert = math.sqrt(2.0) * np.sqrt(np.sum(dev * dev, axis=(1, 2)))
    where = "at" if one or frame.x.ndim == 2 else "to first order near"
    points = np.broadcast_to(frame.x, (len(stack), frame.x.shape[-1]))
    for i in np.flatnonzero(cert > 0.5 * tolerances.cluster):
        _count_clusters(frame.epsilon, name, stack[i], tolerances, f"{where} {points[i].tolist()}")
    s = frame.epsilon * lam
    outside = ~((s >= -band) & (s <= 1.0 + band))     # a NaN is outside too
    if outside.any():
        _lambda_to_alpha_theta(float(lam[outside][0]), frame.epsilon, band)   # raises ModelError
    return float(lam[0]) if one else lam


def _count_clusters(epsilon: int, name: str, mat: np.ndarray, tolerances: Tolerances,
                    where: str):
    """eigvalsh and `cluster_eigenvalues` on a matrix the certificate did
    not clear: ModelError for a cluster outside the lambda band,
    ComponentError for more than one cluster (placed `where`)."""
    evals = np.linalg.eigvalsh(mat)
    lams = [float(np.mean(evals[group]))
            for group in cluster_eigenvalues(evals, tolerances.cluster)]
    for value in lams:
        _lambda_to_alpha_theta(value, epsilon, tolerances.lambda_band)
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
    k = table.shape[1]
    for p, row in enumerate(table):
        if any(abs(row[a] - row[b]) <= tol for a in range(k) for b in range(a + 1, k)):
            return p
    return None


def _first_agreeing_pair(table: np.ndarray, tol: float) -> tuple[int, int] | None:
    """First column pair (a, b), a < b, whose slant values lie within `tol`
    at every row, or None."""
    k = table.shape[1]
    for a in range(k):
        for b in range(a + 1, k):
            if float(np.abs(table[:, a] - table[:, b]).max()) <= tol:
                return a, b
    return None


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

def _analyze_tracks(spectra, epsilon, tolerances, points):
    """Generic / skew-CR / CR / anti-invariant ingredients from the clustered
    full spectra. Clusters are matched across points by ascending-lambda
    order, which is valid only when the cluster count and multiplicity
    vectors agree at every point (`tracks_ok`)."""
    info = {
        "tracks_ok": False,
        "witness": None,
        "type_stable": False,
        "strictly_pointwise": False,
        "all_constant": False,
        "separated_everywhere": False,
        "interior_exists": False,
        "all_special": False,
        "all_zero": False,
        "alpha_flags": [],
    }
    counts = [len(s.clusters) for s in spectra]
    if len(set(counts)) != 1:
        bad = counts.index(min(counts)) if min(counts) != counts[0] else counts.index(max(counts))
        info["witness"] = {"reason": "cluster count varies with the point",
                           "counts": counts, "point": spectra[bad].point.tolist()}
        return info
    mults = [tuple(c.multiplicity for c in s.clusters) for s in spectra]
    if len(set(mults)) != 1:
        bad = next(i for i, m in enumerate(mults) if m != mults[0])
        info["witness"] = {"reason": "cluster multiplicities vary with the point",
                           "multiplicities": [list(m) for m in mults],
                           "point": spectra[bad].point.tolist()}
        return info
    info["tracks_ok"] = True
    ztol = tolerances.cluster
    thetas = np.array([[c.theta for c in s.clusters] for s in spectra])
    alphas = np.array([[c.alpha for c in s.clusters] for s in spectra])
    # per (point, track) type: zero / one / interior
    types = [["zero" if abs(c.lam) <= ztol
              else "one" if abs(c.lam - epsilon) <= ztol
              else "interior" for c in s.clusters] for s in spectra]
    npts, ntracks = thetas.shape
    types_by_track = [set(types[p][t] for p in range(npts)) for t in range(ntracks)]
    info["type_stable"] = all(len(ts) == 1 for ts in types_by_track)
    if not info["type_stable"]:
        t_bad = next(t for t in range(ntracks) if len(types_by_track[t]) > 1)
        # witness: where the special value is attained (that point breaks the
        # point-independence of the 0 / eps eigenvalues)
        special = [p for p in range(npts) if types[p][t_bad] in ("zero", "one")]
        p_bad = special[0] if special else next(
            p for p in range(npts) if types[p][t_bad] != types[0][t_bad])
        info["witness"] = {"reason": "a cluster attains 0 or eps at some points only",
                           "track": t_bad, "point": _witness_point(points[p_bad])}
    interior = [t for t in range(ntracks) if types_by_track[t] == {"interior"}]
    info["interior_exists"] = bool(interior)
    info["all_special"] = info["type_stable"] and not interior
    info["all_zero"] = all(ts == {"zero"} for ts in types_by_track)
    theta_span = _constancy_span(thetas)
    info["all_constant"] = bool(np.all(theta_span <= tolerances.angle_const))
    info["strictly_pointwise"] = any(theta_span[t] > tolerances.angle_const for t in interior)
    p_sep = _first_coincidence(thetas, tolerances.angle_distinct)
    info["separated_everywhere"] = p_sep is None
    if p_sep is not None and info["witness"] is None:
        info["witness"] = {"reason": "matched clusters not separated",
                           "point": _witness_point(points[p_sep])}
    margin = tolerances.alpha_margin
    for t in interior:
        amin = float(alphas[:, t].min())
        amax = float(alphas[:, t].max())
        if amin < margin or amax > 1.0 - margin:
            info["alpha_flags"].append(
                {"track": t, "alpha_min": amin, "alpha_max": amax,
                 "note": f"alpha within {margin} of 0 or 1; the open-interval "
                         "requirement is decided up to this margin"})
    return info


# ---------------------------------------------------------------------------
# Classification of a declared decomposition
# ---------------------------------------------------------------------------

class ClassificationReport:
    def __init__(self, points, components, labels, evidence, named_cases,
                 spectra, alpha_flags, seed, tolerances: Tolerances, k: int):
        self.points = points
        self.components = components      # display-ordered list of dicts
        self.labels = labels              # label -> bool
        self.evidence = evidence          # label -> witness dict (failures)
        self.named_cases = named_cases
        self.spectra = spectra            # list of SlantSpectrum
        self.alpha_flags = alpha_flags
        self.seed = seed
        self.tolerances = tolerances
        self.k = k
        self.scope_note = "constancy/distinctness verdicts hold on sampled points only"

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
    lams = slant_lambdas(stack, range(len(comps)), tolerances)
    lam = np.stack(lams, axis=1)
    theta = np.array([slant_thetas(stack, v, tolerances) for v in lams]).T
    entries = [_component_entry(comp.name, comp.rank, ci == inv_idx, theta[:, ci],
                                lam[:, ci], tolerances)
               for ci, comp in enumerate(comps)]
    spectra = slant_spectra(stack, tolerances)
    tr = _analyze_tracks(spectra, dec.structure.epsilon, tolerances, points)
    labels, evidence, named, k = _verdicts(theta, entries, inv_idx, tr, points, tolerances,
                                           _DECLARED_WORDING)
    return ClassificationReport(points, _display_order(entries), labels, evidence, named,
                                spectra, tr["alpha_flags"], seed, tolerances, k)


# How the constancy failures of k-slant and skew-CR are worded in each mode;
# discovery reports keep their own wording (pinned by perfbench/reference).
_DECLARED_WORDING = {"k-slant": "a slant function is not constant on the sampled points",
                    "skew-CR": "eigenvalue functions not constant"}
_DISCOVERY_WORDING = {
    "k-slant": "cluster slant functions not constant and separated on sampled points",
    "skew-CR": "eigenvalue functions not constant or no interior cluster"}


def _verdicts(theta: np.ndarray, entries: list[dict], inv_idx: int | None, tr: dict,
              points, tolerances: Tolerances, wording: dict):
    """(labels, evidence, named cases, k) from the slant table `theta` (one
    column per component, reported as `entries`), the cluster tracks `tr`
    of `_analyze_tracks` and `inv_idx`, the column playing D0 (None without
    one). Both modes decide here; `wording` words the constancy failures.

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
    return labels, evidence, named, k


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
    from .taxonomy import VERDICT_LATTICE
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

class _TangentComponent:
    """The one component "D" of discovery mode, shaped like a
    `DistributionFrame`: the tangent space of the masked linear subspace (the
    whole ambient space without a mask), minus the span of xi in the
    contact-like case."""

    name = "D"
    mask = None

    def __init__(self, structure: StructureField, mask: tuple[int, ...] | None):
        self.structure = structure
        self.n = structure.n
        self.tm = np.eye(self.n)[:, [i - 1 for i in (mask or range(1, self.n + 1))]]
        self.rank = self.tm.shape[1] - (1 if structure.is_contact else 0)
        if self.rank < 1:
            raise SpecError("the masked tangent space holds no direction besides xi")

    def raw_at(self, x: np.ndarray) -> np.ndarray:
        """The masked coordinate directions; for contact-like kinds, a
        g-orthonormal basis of TM ∩ xi⊥: in TM coordinates, with the metric
        gram = tm^T g tm and xi = tm a, the gram-complement of a."""
        if not self.structure.is_contact:
            return self.tm
        g, xi, tm = self.structure.metric_at(x), self.structure.xi_at(x), self.tm
        gram = tm.T @ g @ tm
        a = np.linalg.solve(gram, tm.T @ g @ xi)
        # xi must live inside TM for the decomposition to make sense
        if float(np.linalg.norm(tm @ a - xi)) > 1e-9 * float(np.linalg.norm(xi)):
            raise SpecError("xi does not lie inside the masked tangent space")
        return tm @ complement_columns(gram, (a / np.sqrt(a @ gram @ a))[:, None])


def discover(structure: StructureField, points, mask: tuple[int, ...] | None = None,
             tolerances: Tolerances = DEFAULT_TOLERANCES,
             seed: int = DEFAULT_SEED) -> ClassificationReport:
    """Classify with candidate components given by the eigenvalue clusters of
    f^2 on D (`_TangentComponent`), exactly the eigenspace decomposition the
    skew-CR and generic descriptions build. The clusters play D0..Dk for
    `_verdicts`: an invariant cluster (the first, should tolerances admit
    more than one) is D0, the others are proper.
    """
    points = list(points)
    if len(points) < 2:
        raise SpecError("classification needs at least two sample points")
    dec = Decomposition(structure, [_TangentComponent(structure, mask)], mask=mask)
    spectra = slant_spectra(dec.frame_stack(points), tolerances)
    tr = _analyze_tracks(spectra, structure.epsilon, tolerances, points)
    if not tr["tracks_ok"]:
        raise ComponentError(f"eigenstructure is not stable across points: {tr['witness']}")

    theta = np.array([[c.theta for c in s.clusters] for s in spectra])
    entries = [_component_entry(f"C{t + 1}", spectra[0].clusters[t].multiplicity, False,
                                theta[:, t], [s.clusters[t].lam for s in spectra], tolerances)
               for t in range(theta.shape[1])]
    inv_idx = next((t for t, e in enumerate(entries) if e["verdict"] == "invariant"), None)
    labels, evidence, named, k = _verdicts(theta, entries, inv_idx, tr, points, tolerances,
                                           _DISCOVERY_WORDING)
    return ClassificationReport(points, _display_order(entries), labels, evidence, named,
                                spectra, tr["alpha_flags"], seed, tolerances, k)
