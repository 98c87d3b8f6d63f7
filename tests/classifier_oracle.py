"""The per-point classifier statistics that `slantkit.classifier` and
`slantkit.distribution.check_f_invariance` now compute as array passes over
the point stack, kept as the oracle of the differential classifier tests.

Each point's eigenvalues were clustered by `cluster_eigenvalues` (also
`_count_clusters`, the cluster count of one matrix) and each cluster's
lambda converted to (alpha, theta) one value at a time; the
cluster tracks were read from the per-point `SlantSpectrum` objects; the
slant-table statistics looped over rows and column pairs; and the
f-invariance check drew each component's coordinates from every point's
stream in turn, then walked its events point by point. `classify` and
`discover` below are the drivers that read them (`_verdicts` runs with the
oracle's `_first_coincidence` and `_first_agreeing_pair`).

`single_cluster_lambda` read one component's blocks per call, and
`slant_lambdas` called it once per component; `classify` reads its slant
values through them.
"""

import math
from contextlib import contextmanager

import numpy as np

from slantkit import classifier
from slantkit.classifier import (
    SlantCluster,
    SlantSpectrum,
    _component_entry,
    _constancy_span,
    _TangentSpace,
    _witness_point,
)
from slantkit.config import DEFAULT_TOLERANCES
from slantkit.distribution import InvarianceReport
from slantkit.errors import ComponentError, ModelError, SpecError
from slantkit.sampling import DEFAULT_SEED, rng_for


def cluster_eigenvalues(evals, cluster_tol):
    order = np.argsort(evals)
    groups = []
    for idx in order:
        if groups and evals[idx] - evals[groups[-1][-1]] <= cluster_tol:
            groups[-1].append(int(idx))
        else:
            groups.append([int(idx)])
    return groups


def _lambda_to_alpha_theta(lam, epsilon, band):
    s = epsilon * lam
    if not -band <= s <= 1.0 + band:      # a NaN is outside too
        raise ModelError(
            f"eps*lambda = {s} outside [0, 1] beyond the tolerance band; "
            "structure or decomposition is invalid")
    alpha = math.sqrt(min(max(s, 0.0), 1.0))
    return alpha, math.acos(min(1.0, max(0.0, alpha)))


def slant_spectra(stack, tolerances=DEFAULT_TOLERANCES):
    out = []
    for x, evals in zip(stack.x, np.linalg.eigvalsh(stack.f2)):
        clusters = []
        for group in cluster_eigenvalues(evals, tolerances.cluster):
            lam = float(np.mean(evals[group]))
            clusters.append(SlantCluster(lam, *_lambda_to_alpha_theta(
                lam, stack.epsilon, tolerances.lambda_band), len(group)))
        out.append(SlantSpectrum(x, clusters))
    return out


def _count_clusters(epsilon, name, mat, tolerances, where):
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


def slant_thetas(stack, lam, tolerances):
    return [_lambda_to_alpha_theta(v, stack.epsilon, tolerances.lambda_band)[1]
            for v in lam.tolist()]


def single_cluster_lambda(name, mat, place, x, epsilon, tolerances=DEFAULT_TOLERANCES):
    """lambda of the component `name` from its f^2 matrix `mat` (r x r) or a
    stack of them (..., r, r), `x` one point (n,) or one per member (..., n):
    a float for one matrix, else the array (...) of trace means."""
    r = mat.shape[-1]
    stack = mat.reshape(-1, r, r)
    band = tolerances.lambda_band
    lam = np.trace(stack, axis1=1, axis2=2) / r
    dev = stack - lam[:, None, None] * np.eye(r)
    cert = math.sqrt(2.0) * np.sqrt(np.sum(dev * dev, axis=(1, 2)))
    for i in np.flatnonzero(cert > 0.5 * tolerances.cluster):
        point = np.broadcast_to(x, mat.shape[:-2] + x.shape[-1:]).reshape(len(stack), -1)[i]
        classifier._count_clusters(epsilon, name, stack[i], tolerances,
                                   f"{place} {point.tolist()}")
    s = epsilon * lam
    outside = ~((s >= -band) & (s <= 1.0 + band))     # a NaN is outside too
    if outside.any():
        classifier.alpha_theta(lam[outside], epsilon, band)     # raises ModelError
    return float(lam[0]) if mat.ndim == 2 else lam.reshape(mat.shape[:-2])


def slant_lambdas(stack, indices, tolerances=DEFAULT_TOLERANCES):
    """lambda (P,) of each component of `indices`, one reader call each."""
    off = stack.offsets
    return [single_cluster_lambda(stack.dec.components[i].name,
                                  stack.f2[:, off[i]:off[i + 1], off[i]:off[i + 1]], "at",
                                  stack.x, stack.epsilon, tolerances)
            for i in indices]


def _first_coincidence(table, tol):
    k = table.shape[1]
    for p, row in enumerate(table):
        if any(abs(row[a] - row[b]) <= tol for a in range(k) for b in range(a + 1, k)):
            return p
    return None


def _first_agreeing_pair(table, tol):
    k = table.shape[1]
    for a in range(k):
        for b in range(a + 1, k):
            if float(np.abs(table[:, a] - table[:, b]).max()) <= tol:
                return a, b
    return None


def _analyze_tracks(spectra, epsilon, tolerances, points):
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
    types = [["zero" if abs(c.lam) <= ztol
              else "one" if abs(c.lam - epsilon) <= ztol
              else "interior" for c in s.clusters] for s in spectra]
    npts, ntracks = thetas.shape
    types_by_track = [set(types[p][t] for p in range(npts)) for t in range(ntracks)]
    info["type_stable"] = all(len(ts) == 1 for ts in types_by_track)
    if not info["type_stable"]:
        t_bad = next(t for t in range(ntracks) if len(types_by_track[t]) > 1)
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


def check_f_invariance(dec, points, trials=25, tol=DEFAULT_TOLERANCES.invariance,
                       seed=DEFAULT_SEED):
    points = list(points)
    if not points:
        raise SpecError("check_f_invariance needs at least one point")
    stack = dec.frame_stack(points)
    rngs = [rng_for(seed, 211, p) for p in range(len(points))]
    names, inv, off = dec.component_names(), stack.invariant_index, stack.offsets
    events = []
    for i, (lo, hi) in enumerate(zip(off, off[1:])):
        coef = np.stack([rng.standard_normal((hi - lo, trials)) for rng in rngs])
        norms = np.maximum(np.linalg.norm(coef, axis=1), 1e-300)
        fv = stack.phi_dd[:, :, lo:hi] @ coef
        leak = np.linalg.norm(np.concatenate([fv[:, :lo], fv[:, hi:]], axis=1), axis=1)
        events.append(("f-leak", names[i], (leak / norms).max(-1)))
        for j in range(len(names)):
            if j != i and inv not in (i, j):
                cross = np.abs(fv[:, off[j]:off[j + 1]]) / norms[:, None]
                events.append(("phi-cross", [names[i], names[j]], cross.max(axis=(1, 2))))
    return events_report(events, stack.x.tolist(), tol, seed)


def events_report(events, xs, tol, seed):
    """The InvarianceReport of the events (kind, components, values per
    point), walked point by point as `check_f_invariance` walks them."""
    worst, witness = {"f-leak": 0.0, "phi-cross": 0.0}, {}
    for p, x in enumerate(xs):
        for kind, comps, values in events:
            if values[p] > worst[kind]:
                worst[kind] = float(values[p])
                witness = {"kind": kind, ("component" if kind == "f-leak" else "components"):
                           comps, "point": x, "residual": worst[kind]}
    max_leak, max_cross = worst["f-leak"], worst["phi-cross"]
    passed = max_leak <= tol and max_cross <= tol
    return InvarianceReport(passed, max_leak, max_cross, witness, tol, seed)


@contextmanager
def _oracle_pairs():
    """`classifier._verdicts` reading the oracle's pair statistics."""
    saved = classifier._first_coincidence, classifier._first_agreeing_pair
    classifier._first_coincidence, classifier._first_agreeing_pair = (
        _first_coincidence, _first_agreeing_pair)
    try:
        yield
    finally:
        classifier._first_coincidence, classifier._first_agreeing_pair = saved


def classify(dec, points, tolerances=DEFAULT_TOLERANCES, seed=DEFAULT_SEED):
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
    with _oracle_pairs():
        return classifier._verdicts(theta, entries, inv_idx, tr, points, tolerances,
                                    classifier._DECLARED_WORDING, spectra, seed)


def discover(structure, points, mask=None, tolerances=DEFAULT_TOLERANCES, seed=DEFAULT_SEED):
    points = list(points)
    if len(points) < 2:
        raise SpecError("classification needs at least two sample points")
    dec = _TangentSpace(structure, mask)
    spectra = slant_spectra(dec.frame_stack(points), tolerances)
    tr = _analyze_tracks(spectra, structure.epsilon, tolerances, points)
    if not tr["tracks_ok"]:
        raise ComponentError(f"eigenstructure is not stable across points: {tr['witness']}")

    theta = np.array([[c.theta for c in s.clusters] for s in spectra])
    entries = [_component_entry(f"C{t + 1}", spectra[0].clusters[t].multiplicity, False,
                                theta[:, t], [s.clusters[t].lam for s in spectra], tolerances)
               for t in range(theta.shape[1])]
    inv_idx = next((t for t, e in enumerate(entries) if e["verdict"] == "invariant"), None)
    with _oracle_pairs():
        return classifier._verdicts(theta, entries, inv_idx, tr, points, tolerances,
                                    classifier._DISCOVERY_WORDING, spectra, seed)
