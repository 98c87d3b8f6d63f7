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
  stay separated at every point, and (with a declared decomposition) the
  pointwise-k-slant verdict holds, so the lattice cannot break.
* ``skew-CR``: constant eigenvalue functions with constant multiplicities and
  at least one interior cluster (not reducible to CR or anti-invariant).
"""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .distribution import Decomposition, check_f_invariance, f2_gram
from .errors import ComponentError, InvariantError, ModelError, SpecError
from .linalg import complement_columns, mgs_columns, pivoted_columns, projector_matrix, sym_eigen
from .sampling import DEFAULT_SEED
from .structure import StructureField

HALF_PI = math.pi / 2.0


def _lambda_to_alpha_theta(lam: float, epsilon: int, band: float) -> tuple[float, float]:
    s = epsilon * lam
    if s < -band or s > 1.0 + band:
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
    __slots__ = ("lam", "alpha", "theta", "multiplicity", "eigenbasis")

    def __init__(self, lam, alpha, theta, multiplicity, eigenbasis):
        self.lam = lam
        self.alpha = alpha
        self.theta = theta
        self.multiplicity = multiplicity
        self.eigenbasis = eigenbasis  # ambient n x multiplicity, orthonormal

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


def _spectrum_of_matrix(mat: np.ndarray, basis: np.ndarray, point: np.ndarray,
                        epsilon: int, cluster_tol: float, band: float) -> SlantSpectrum:
    evals, evecs = sym_eigen(mat)
    clusters = []
    for group in cluster_eigenvalues(evals, cluster_tol):
        lam = float(np.mean(evals[group]))
        alpha, theta = _lambda_to_alpha_theta(lam, epsilon, band)
        clusters.append(SlantCluster(lam, alpha, theta, len(group), basis @ evecs[:, group]))
    return SlantSpectrum(point, clusters)


def slant_spectrum(dec: Decomposition, point,
                   tolerances: Tolerances = DEFAULT_TOLERANCES) -> SlantSpectrum:
    """Clustered spectrum of f^2 restricted to the whole of D at one point."""
    frame = dec.frame_at(point)
    return _spectrum_of_matrix(frame.f2_full(), frame.basis_d, frame.x, frame.epsilon,
                               tolerances.cluster, tolerances.lambda_band)


def component_slant(dec: Decomposition, point, index: int,
                    tolerances: Tolerances = DEFAULT_TOLERANCES) -> SlantCluster:
    """Single slant cluster of component `index`, read from its block of
    the frame's f^2 Gram by `single_cluster_lambda`; its eigenbasis is the
    component's orthonormal basis, since every vector of a single cluster is
    an eigenvector."""
    frame = dec.frame_at(point)
    basis = frame.bases[index]
    lam = single_cluster_lambda(frame, dec.components[index].name,
                                frame.f2_component(index), tolerances)
    alpha, theta = _lambda_to_alpha_theta(lam, frame.epsilon, tolerances.lambda_band)
    return SlantCluster(lam, alpha, theta, basis.shape[1], basis)


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

    `mat` may also be a stack (q, r, r), such as the connection probe's
    first-order models of the matrix near `frame`; the certificate and the
    band are checked on every member at once, eigvalsh runs only on members
    the certificate does not clear, and the result is the array of trace
    means (a float for one matrix)."""
    one = mat.ndim == 2
    stack = mat[None] if one else mat
    r = mat.shape[-1]
    band = tolerances.lambda_band
    lam = np.trace(stack, axis1=1, axis2=2) / r
    dev = stack - lam[:, None, None] * np.eye(r)
    cert = math.sqrt(2.0) * np.sqrt(np.sum(dev * dev, axis=(1, 2)))
    where = "at" if one else "to first order near"
    for i in np.flatnonzero(cert > 0.5 * tolerances.cluster):
        _count_clusters(frame, name, stack[i], tolerances, where)
    s = frame.epsilon * lam
    outside = (s < -band) | (s > 1.0 + band)
    if outside.any():
        _lambda_to_alpha_theta(float(lam[outside][0]), frame.epsilon, band)   # raises ModelError
    return float(lam[0]) if one else lam


def _count_clusters(frame, name: str, mat: np.ndarray, tolerances: Tolerances, where: str):
    """eigvalsh and `cluster_eigenvalues` on a matrix the certificate did
    not clear: ModelError for a cluster outside the lambda band,
    ComponentError for more than one cluster."""
    evals = np.linalg.eigvalsh(mat)
    lams = [float(np.mean(evals[group]))
            for group in cluster_eigenvalues(evals, tolerances.cluster)]
    for value in lams:
        _lambda_to_alpha_theta(value, frame.epsilon, tolerances.lambda_band)
    if len(lams) != 1:
        raise ComponentError(
            f"component {name!r} carries {len(lams)} eigenvalue clusters "
            f"{lams} {where} {frame.x.tolist()}; the declared decomposition is coarser "
            "than the eigenstructure")


def slant_function_table(dec: Decomposition, index: int, points,
                         tolerances: Tolerances = DEFAULT_TOLERANCES) -> list[tuple[np.ndarray, float]]:
    """Tabulate the slant value of one component over the sample points."""
    out = []
    for point in points:
        cluster = component_slant(dec, point, index, tolerances)
        out.append((dec.frame_at(point).x, cluster.theta))
    return out


# ---------------------------------------------------------------------------
# Slant-table statistics. A slant table holds one row per sample point and
# one column per component (classify) or cluster track (discover,
# _analyze_tracks); every constancy and distinctness decision reads it here.
# ---------------------------------------------------------------------------

def _witness_point(point) -> list:
    """Coordinates of a sample point (array or AmbientPoint) for a report."""
    return np.asarray(getattr(point, "coords", point)).tolist()


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
    sep_witness = None if p_sep is None else {
        "reason": "matched clusters not separated", "point": _witness_point(points[p_sep])}
    info["separated_everywhere"] = p_sep is None
    if p_sep is not None and info["witness"] is None:
        info["witness"] = sep_witness
    margin = tolerances.alpha_margin
    for t in interior:
        amin = float(alphas[:, t].min())
        amax = float(alphas[:, t].max())
        if amin < margin or amax > 1.0 - margin:
            info["alpha_flags"].append(
                {"track": t, "alpha_min": amin, "alpha_max": amax,
                 "note": f"alpha within {margin} of 0 or 1; the open-interval "
                         "requirement is decided up to this margin"})
    info["sep_witness"] = sep_witness
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

    def passed_labels(self) -> list[str]:
        return sorted([l for l, ok in self.labels.items() if ok])

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
    ncomp = len(comps)
    inv_idx = 0 if dec.invariant is not None else None
    theta = np.empty((len(points), ncomp))
    lam = np.empty((len(points), ncomp))
    for pi, point in enumerate(points):
        for ci in range(ncomp):
            cl = component_slant(dec, point, ci, tolerances)
            theta[pi, ci] = cl.theta
            lam[pi, ci] = cl.lam

    comp_entries = [_component_entry(comp.name, comp.rank, ci == inv_idx, theta[:, ci],
                                     lam[:, ci], tolerances)
                    for ci, comp in enumerate(comps)]
    measured_invariant = [e["verdict"] == "invariant" for e in comp_entries]

    proper_idx = [ci for ci in range(ncomp) if ci != inv_idx]
    k = len(proper_idx)
    evidence: dict[str, dict] = {}

    invariant_ok = inv_idx is None or measured_invariant[inv_idx]
    if not invariant_ok:
        evidence["invariant-component"] = {
            "reason": f"declared invariant component {comps[inv_idx].name!r} measures "
                      "a nonzero slant value",
            "max_theta": float(theta[:, inv_idx].max())}

    positivity_ok = True
    for ci in proper_idx:
        bad = np.flatnonzero(theta[:, ci] <= tolerances.angle_const)
        if bad.size:
            positivity_ok = False
            evidence["proper-positivity"] = {
                "reason": f"proper component {comps[ci].name!r} has slant value 0",
                "point": _witness_point(points[bad[0]])}
            break

    prop_theta = theta[:, proper_idx]
    all_constant = bool(np.all(_constancy_span(prop_theta) <= tolerances.angle_const))

    # pointwise-k-slant: pairwise distinct at every sampled point
    pks = invariant_ok and positivity_ok and k > 0
    p_bad = _first_coincidence(prop_theta, tolerances.angle_distinct) if pks else None
    if p_bad is not None:
        pks = False
        evidence["pointwise-k-slant"] = {
            "reason": "slant values coincide at a sampled point",
            "point": _witness_point(points[p_bad]),
            "theta": [float(t) for t in prop_theta[p_bad]]}
    if k == 0:
        evidence["pointwise-k-slant"] = {"reason": "no proper component"}

    # k-pointwise-slant: distinct as functions (some sampled point separates)
    kps = invariant_ok and positivity_ok and k > 0
    pair = _first_agreeing_pair(prop_theta, tolerances.angle_distinct) if kps else None
    if pair is not None:
        kps = False
        evidence["k-pointwise-slant"] = {
            "reason": "two slant functions agree at every sampled point",
            "components": [comps[proper_idx[j]].name for j in pair]}
    if k == 0:
        evidence["k-pointwise-slant"] = {"reason": "no proper component"}

    kslant = all_constant and pks
    if not kslant:
        evidence["k-slant"] = (
            {"reason": "a slant function is not constant on the sampled points"}
            if not all_constant else
            evidence.get("pointwise-k-slant", {"reason": "not pointwise separated"}))

    # clustered full-spectrum analysis
    spectra = [slant_spectrum(dec, p, tolerances=tolerances) for p in points]
    tr = _analyze_tracks(spectra, dec.structure.epsilon, tolerances, points)

    generic = (tr["tracks_ok"] and tr["type_stable"] and tr["strictly_pointwise"]
               and tr["separated_everywhere"] and pks)
    if not generic:
        if not tr["tracks_ok"] or not tr["type_stable"] or not tr["separated_everywhere"]:
            evidence["generic"] = tr["witness"] or {"reason": "cluster structure unstable"}
        elif not tr["strictly_pointwise"]:
            evidence["generic"] = {"reason": "no strictly pointwise eigenvalue function "
                                             "with alpha inside (0, 1)"}
        else:
            evidence["generic"] = evidence.get("pointwise-k-slant",
                                               {"reason": "declared components not separated"})

    skew_cr = tr["tracks_ok"] and tr["all_constant"] and tr["interior_exists"]
    if not skew_cr:
        evidence["skew-CR"] = (tr["witness"] if not tr["tracks_ok"]
                               else {"reason": "eigenvalue functions not constant"}
                               if not tr["all_constant"]
                               else {"reason": "reducible to a CR or anti-invariant structure"})

    cr = tr["tracks_ok"] and tr["all_special"]
    anti = tr["tracks_ok"] and tr["all_zero"]
    proper_label = inv_idx is None and not any(measured_invariant)

    labels = {
        "k-slant": kslant,
        "k-pointwise-slant": kps,
        "pointwise-k-slant": pks,
        "generic": generic,
        "skew-CR": skew_cr,
        "CR": cr,
        "anti-invariant": anti,
        "proper": proper_label,
    }

    named = _named_cases(labels, k, inv_idx is not None and invariant_ok,
                         prop_theta, tolerances)

    _assert_lattice(labels)

    display = _display_order(comp_entries)
    return ClassificationReport(points, display, labels, evidence, named, spectra,
                                tr["alpha_flags"], seed, tolerances, k)


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

def discover(structure: StructureField, points, mask: tuple[int, ...] | None = None,
             tolerances: Tolerances = DEFAULT_TOLERANCES,
             seed: int = DEFAULT_SEED) -> ClassificationReport:
    """Classify with candidate components given by the eigenvalue clusters of
    the full restricted square, exactly the eigenspace decomposition the
    skew-CR and generic descriptions build.

    D is the tangent space of the masked linear subspace (the whole ambient
    space without a mask), minus the span of xi in the contact-like case.
    """
    points = list(points)
    if len(points) < 2:
        raise SpecError("classification needs at least two sample points")
    n = structure.n
    free = [i - 1 for i in (mask or range(1, n + 1))]
    spectra = []
    for point in points:
        x = np.asarray(getattr(point, "coords", point), dtype=float)
        g = structure.metric_at(x)
        phi = structure.phi_at(x)
        tm = np.eye(n)[:, free]
        if structure.is_contact:
            xi = structure.xi_at(x)
            # xi must live inside TM for the decomposition to make sense
            proj_tm = tm @ np.linalg.solve(tm.T @ g @ tm, tm.T @ g)
            if float(np.linalg.norm(proj_tm @ xi - xi)) > 1e-9 * float(np.linalg.norm(xi)):
                raise SpecError("xi does not lie inside the masked tangent space")
            inside = complement_columns(g, mgs_columns(g, xi[:, None]))
            # restrict the complement of <xi> back into TM before extracting D
            cand = proj_tm @ inside
            basis_d = mgs_columns(g, pivoted_columns(g, cand, len(free) - 1))
        else:
            basis_d = mgs_columns(g, tm)
        mat = f2_gram(g, basis_d, projector_matrix(g, basis_d) @ phi, x)
        spectra.append(_spectrum_of_matrix(mat, basis_d, x, structure.epsilon,
                                           tolerances.cluster, tolerances.lambda_band))

    tr = _analyze_tracks(spectra, structure.epsilon, tolerances, points)
    if not tr["tracks_ok"]:
        raise ComponentError(f"eigenstructure is not stable across points: {tr['witness']}")

    thetas = np.array([[c.theta for c in s.clusters] for s in spectra])
    comp_entries = [_component_entry(f"C{t + 1}", spectra[0].clusters[t].multiplicity, False,
                                     thetas[:, t], [s.clusters[t].lam for s in spectra],
                                     tolerances)
                    for t in range(thetas.shape[1])]
    inv_flags = [e["verdict"] == "invariant" for e in comp_entries]

    proper_tracks = [t for t, inv in enumerate(inv_flags) if not inv]
    k = len(proper_tracks)
    prop_theta = thetas[:, proper_tracks]
    evidence: dict[str, dict] = {}

    pks = k > 0 and _first_coincidence(prop_theta, tolerances.angle_distinct) is None
    if not pks:
        evidence["pointwise-k-slant"] = tr["sep_witness"] or {"reason": "no proper cluster"}
    kps = k > 0 and _first_agreeing_pair(prop_theta, tolerances.angle_distinct) is None
    if not kps:
        evidence["k-pointwise-slant"] = {"reason": "two cluster slant functions agree "
                                                   "at every sampled point"}
    all_constant = bool(np.all(_constancy_span(prop_theta) <= tolerances.angle_const))
    kslant = all_constant and pks
    if not kslant:
        evidence["k-slant"] = {"reason": "cluster slant functions not constant "
                                         "and separated on sampled points"}
    generic = (tr["type_stable"] and tr["strictly_pointwise"]
               and tr["separated_everywhere"])
    if not generic:
        evidence["generic"] = tr["witness"] or {
            "reason": "no strictly pointwise eigenvalue function with alpha inside (0, 1)"}
    skew_cr = tr["all_constant"] and tr["interior_exists"]
    if not skew_cr:
        evidence["skew-CR"] = {"reason": "eigenvalue functions not constant or no "
                                         "interior cluster"}
    labels = {
        "k-slant": kslant,
        "k-pointwise-slant": kps,
        "pointwise-k-slant": pks,
        "generic": generic,
        "skew-CR": skew_cr,
        "CR": tr["all_special"],
        "anti-invariant": tr["all_zero"],
        "proper": not any(inv_flags),
    }
    named = _named_cases(labels, k, any(inv_flags), prop_theta, tolerances)
    _assert_lattice(labels)
    return ClassificationReport(points, _display_order(comp_entries), labels, evidence,
                                named, spectra, tr["alpha_flags"], seed, tolerances, k)
