"""Run reports: canonical JSON documents plus the human-readable Markdown
summary with the slant-value tables."""

from __future__ import annotations

from . import __version__
from .specfile import canonical_dumps


def make_run_report(spec_digest: str, seed: int, *, structure=None, classification=None,
                    dual=None, identities=None, connection=None) -> dict:
    def section(x):
        return "skipped" if x is None else x
    return {
        "tool_version": __version__,
        "spec_digest": spec_digest,
        "seed": seed,
        "structure": section(structure),
        "classification": section(classification),
        "dual": section(dual),
        "identities": section(identities),
        "connection": section(connection),
    }


def report_json(report: dict) -> str:
    """Byte-stable rendering: sorted keys, two-space indent, LF newlines,
    shortest round-trip floats, non-finite values as strings."""
    return canonical_dumps(report, indent=2) + "\n"


def _fmt(x, digits=12) -> str:
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        return f"{x:.{digits}g}"
    return str(x)


def _point_label(coords, max_len=36) -> str:
    text = "(" + ", ".join(f"{c:.3g}" for c in coords) + ")"
    return text if len(text) <= max_len else text[: max_len - 4] + "...)"


def structure_markdown(verdict: dict) -> list[str]:
    lines = ["## Structure validation", ""]
    lines.append(f"- passed: **{_fmt(verdict['passed'])}** (tolerance {verdict['tolerance']:g}, "
                 f"seed {verdict['seed']})")
    lines.append("")
    lines.append("| axiom | worst residual |")
    lines.append("| --- | --- |")
    for name in sorted(verdict["residuals"]):
        lines.append(f"| {name} | {_fmt(verdict['residuals'][name], 6)} |")
    w = verdict.get("witness") or {}
    if w.get("axiom"):
        lines.append("")
        lines.append(f"- worst case: axiom `{w['axiom']}` at {_point_label(w['point'])}")
    lines.append("")
    return lines


def classification_markdown(cls: dict) -> list[str]:
    lines = ["## Classification", ""]
    passed = sorted(k for k, v in cls["labels"].items() if v)
    failed = sorted(k for k, v in cls["labels"].items() if not v)
    lines.append(f"- verdicts (k = {cls['k']}): **{', '.join(passed) if passed else 'none'}**")
    if cls.get("named_cases"):
        lines.append(f"- named cases: {', '.join(cls['named_cases'])}")
    lines.append(f"- not satisfied: {', '.join(failed) if failed else 'none'}")
    lines.append(f"- scope: {cls['scope']}")
    if cls.get("alpha_flags"):
        lines.append(f"- alpha-margin flags: {len(cls['alpha_flags'])} cluster(s) within "
                     "margin of 0 or 1")
    lines.append("")
    comps = cls["components"]
    lines.append("| point | " + " | ".join(f"{c['name']} ({c['verdict']})" for c in comps) + " |")
    lines.append("| --- |" + " --- |" * len(comps))
    for pi, pt in enumerate(cls["points"]):
        row = [f"{c['theta'][pi]:.9f}" for c in comps]
        lines.append(f"| {_point_label(pt)} | " + " | ".join(row) + " |")
    lines.append("")
    ev = cls.get("evidence") or {}
    if ev:
        lines.append("Witnesses for unsatisfied labels:")
        lines.append("")
        for label in sorted(ev):
            entry = ev[label]
            reason = entry.get("reason", "")
            at = f" at {_point_label(entry['point'])}" if "point" in entry else ""
            lines.append(f"- `{label}`: {reason}{at}")
        lines.append("")
    return lines


def dual_markdown(dual: dict) -> list[str]:
    lines = ["## Dual decomposition", ""]
    lines.append(f"- round-trips passed: **{_fmt(dual['passed'])}** over "
                 f"{dual['points_checked']} point(s); invariant remainder dim "
                 f"{dual['h_dim']}")
    lines.append("")
    lines.append("| component | dim | worst roundtrip angle | max |theta dual - theta| |")
    lines.append("| --- | --- | --- | --- |")
    for row in dual["components"]:
        lines.append(f"| {row['component']} | {row['dim']} | {_fmt(row['max_angle'], 6)} | "
                     f"{_fmt(row['max_theta_gap'], 6)} |")
    lines.append("")
    return lines


def identities_markdown(suite: dict) -> list[str]:
    lines = ["## Identity suite", ""]
    cases = suite["cases"]
    n_pass = sum(1 for c in cases if c["verdict"] == "pass")
    n_fail = sum(1 for c in cases if c["verdict"] == "fail")
    n_skip = len(cases) - n_pass - n_fail
    lines.append(f"- passed: **{_fmt(suite['passed'])}** ({n_pass} pass, {n_fail} fail, "
                 f"{n_skip} skipped; tolerance {suite['tolerance']:g}; "
                 "each residual exact over all vectors)")
    lines.append("")
    if n_fail:
        lines.append("| failing key | max residual | witness point |")
        lines.append("| --- | --- | --- |")
        for c in cases:
            if c["verdict"] == "fail":
                lines.append(f"| {c['key']} | {_fmt(c['max_residual'], 6)} | "
                             f"{_point_label(c['witness_point'])} |")
        lines.append("")
    worst = max((c for c in cases if c["max_residual"] is not None),
                key=lambda c: c["max_residual"], default=None)
    if worst is not None:
        lines.append(f"- worst residual overall: {_fmt(worst['max_residual'], 6)} "
                     f"(`{worst['key']}`)")
    lines.append("")
    return lines


def connection_markdown(conn: dict) -> list[str]:
    lines = ["## Connection criteria", ""]
    lines.append(f"- derivative verdicts consistent with the classifier: "
                 f"**{_fmt(conn['consistent'])}** (threshold {conn['zero_threshold']:g}, "
                 f"step {conn['step']:g}; hypotheses sample-checked only)")
    lines.append("")
    lines.append("| component | max |(nabla_X f^2)Y| | max |X(lambda)| in D_i | "
                 "max |X(lambda)| in TM | constant? |")
    lines.append("| --- | --- | --- | --- | --- |")
    for row in conn["components"]:
        lines.append(f"| {row['component']} | {_fmt(row['max_nabla_f2'], 6)} | "
                     f"{_fmt(row['max_dlambda_within'], 6)} | "
                     f"{_fmt(row['max_dlambda_tm'], 6)} | "
                     f"{_fmt(row['derivative_constant'])} |")
    lines.append("")
    return lines


def render_markdown(report: dict, title: str) -> str:
    lines = [f"# {title}", ""]
    lines.append(f"- tool version: {report['tool_version']}")
    lines.append(f"- spec digest: `{report['spec_digest']}`")
    lines.append(f"- seed: {report['seed']}")
    lines.append("")
    sections = (
        ("structure", structure_markdown),
        ("classification", classification_markdown),
        ("dual", dual_markdown),
        ("identities", identities_markdown),
        ("connection", connection_markdown),
    )
    for key, renderer in sections:
        value = report.get(key)
        if value == "skipped" or value is None:
            continue
        lines.extend(renderer(value))
    return "\n".join(lines)

