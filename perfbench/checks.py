"""Correctness checks on the JSON reports the benchmark's commands write.

Two kinds of check run on the first report of every command in a run:

* `reference_mismatches` compares the report with the reference captured for
  the workload (`reference/<workload>.json`, written by `capture.py`). Labels,
  named cases, component verdicts, identity verdicts, dimensions and the keys
  of every witness must match exactly. Residuals must agree within the
  tolerance that governs them. Values that depend on where the seeded sample
  points fall (the points themselves, per-point slant tables, witness
  coordinates, suprema of finite differences) are replaced by their shape or
  by the side of their threshold, so one reference serves every seed.
* `oracle_mismatches` checks those point-dependent values against the
  fixture's own closed forms: every per-point slant value of a declared
  component against `GalleryFixture.theta_closed_form`, every discovered
  component against one declared component, and the labels against
  `GalleryFixture.expected_labels()`.

Both return a list of human-readable mismatch strings; empty means the
check passed.
"""

from __future__ import annotations

import math

ANGLE_KEYS = ("theta", "lambda")


def reduce_report(report: dict) -> dict:
    """The seed-independent view of a report that the reference stores."""
    out = {k: v for k, v in report.items() if k not in ("spec_digest", "seed")}
    st = report.get("structure")
    if isinstance(st, dict):
        st = {k: v for k, v in st.items() if k != "seed"}
        st["witness"] = {"keys": sorted(st["witness"]),
                         "residual": st["witness"].get("residual")}
        out["structure"] = st
    cls = report.get("classification")
    if isinstance(cls, dict):
        cls = {k: v for k, v in cls.items() if k not in ("seed", "points", "spectra")}
        cls["points"] = len(report["classification"]["points"])
        cls["spectra"] = len(report["classification"]["spectra"])
        cls["components"] = [
            {k: (len(v) if k in ANGLE_KEYS else v) for k, v in c.items()}
            for c in cls["components"]]
        cls["evidence"] = {label: sorted(ev) if "reason" not in ev else ev
                           for label, ev in cls["evidence"].items()}
        out["classification"] = cls
    ids = report.get("identities")
    if isinstance(ids, dict):
        ids = {k: v for k, v in ids.items() if k != "seed"}
        ids["cases"] = [dict(c, witness_point=c["witness_point"] is not None)
                        for c in ids["cases"]]
        out["identities"] = ids
    conn = report.get("connection")
    if isinstance(conn, dict):
        thr = conn["zero_threshold"]
        conn = dict(conn)
        conn["components"] = [
            {k: (("<=" if v <= thr else ">") + " zero_threshold"
                 if k.startswith("max_") else v) for k, v in c.items()}
            for c in conn["components"]]
        out["connection"] = conn
    return out


def _tolerance_for(path: tuple, ref_root: dict, principal: float) -> float | None:
    """The tolerance governing the numeric field at `path`, or None when the
    field must match exactly."""
    if path[0] == "structure" and (path[1] == "residuals" or path[-1] == "residual"):
        return ref_root["structure"]["tolerance"]
    if path[0] == "identities" and path[-1] == "max_residual":
        return ref_root["identities"]["tolerance"]
    if path[0] == "dual" and path[-1] in ("max_angle", "max_theta_gap"):
        return principal
    return None


def _compare(got, want, path, ref_root, principal, out):
    where = "/".join(map(str, path))
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            out.append(f"{where}: {got!r} does not have the keys {sorted(want)}")
            return
        for k in want:
            _compare(got[k], want[k], path + (k,), ref_root, principal, out)
        return
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            out.append(f"{where}: list {got!r} != {want!r}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, path + (i,), ref_root, principal, out)
        return
    tol = _tolerance_for(path, ref_root, principal) if isinstance(want, float) else None
    if tol is not None and isinstance(got, float):
        if not abs(got - want) <= tol:
            out.append(f"{where}: {got!r} differs from {want!r} by more than {tol!r}")
        return
    if type(got) is not type(want) or got != want:
        out.append(f"{where}: {got!r} != {want!r}")


def reference_mismatches(report: dict, reference: dict, seed: int,
                         principal: float) -> list[str]:
    out = []
    for section in ("structure", "classification", "identities"):
        sec = report.get(section)
        if isinstance(sec, dict) and sec.get("seed") != seed:
            out.append(f"{section}/seed: {sec.get('seed')!r} != {seed}")
    if report.get("seed") != seed:
        out.append(f"seed: {report.get('seed')!r} != {seed}")
    _compare(reduce_report(report), reference, (), reference, principal, out)
    return out


def oracle_mismatches(report: dict, fx, discovery: bool, angle_tol: float,
                      cluster_tol: float) -> list[str]:
    """Point-dependent values against the fixture's closed forms."""
    out = []
    for section in ("structure", "dual", "identities", "connection"):
        sec = report.get(section)
        if not isinstance(sec, dict):
            continue
        flag = "consistent" if section == "connection" else "passed"
        if sec.get(flag) is not True:
            out.append(f"{section}/{flag} is not true")
    cls = report.get("classification")
    if not isinstance(cls, dict):
        return out
    points = cls["points"]
    oracle = {"D0": [0.0] * len(points)}
    for j in range(1, fx.k + 1):
        oracle[f"D{j}"] = [fx.theta_closed_form(j, p) for p in points]
    comps = cls["components"]
    if not discovery:
        for label, want in fx.expected_labels().items():
            if cls["labels"].get(label) != want:
                out.append(f"label {label}: {cls['labels'].get(label)!r}, the fixture "
                           f"expects {want!r}")
        for c in comps:
            want = oracle.get(c["name"])
            if want is None:
                out.append(f"component {c['name']!r} is not a fixture component")
                continue
            out.extend(_slant_table_mismatches(c, want, fx.params["epsilon"],
                                               angle_tol, cluster_tol))
        return out
    unmatched = dict(oracle)
    for c in comps:
        match = next((name for name, want in unmatched.items()
                      if not _slant_table_mismatches(c, want, fx.params["epsilon"],
                                                     angle_tol, cluster_tol)), None)
        if match is None:
            out.append(f"discovered component {c['name']!r} matches no fixture component")
        else:
            del unmatched[match]
    if unmatched:
        out.append(f"fixture components {sorted(unmatched)} were not discovered")
    return out


def _slant_table_mismatches(comp: dict, want: list, epsilon: int, angle_tol: float,
                            cluster_tol: float) -> list[str]:
    out = []
    thetas, lams = comp["theta"], comp["lambda"]
    if len(thetas) != len(want) or len(lams) != len(want):
        return [f"{comp['name']}: {len(thetas)} slant values for {len(want)} points"]
    for p, (theta, lam, ref) in enumerate(zip(thetas, lams, want)):
        if not abs(theta - ref) <= angle_tol:
            out.append(f"{comp['name']} point {p}: theta {theta!r}, closed form {ref!r}")
        lam_ref = epsilon * math.cos(ref) ** 2
        if not abs(lam - lam_ref) <= cluster_tol:
            out.append(f"{comp['name']} point {p}: lambda {lam!r}, closed form {lam_ref!r}")
        if len(out) >= 3:
            break
    return out
