"""Taxonomy documentation data: the verdict implication lattice and the
identity-registry manifest, plus the cross-check between the manifest file
and the compiled registry.

The manifest is a flat tab-separated file (key, settings, domain, statement)
checked into the package data, so coverage regressions show up as diffs in
review. `manifest_check` is run by the test suite on every commit.
"""

from __future__ import annotations

import importlib.resources

from .errors import SpecError

# label -> labels it implies; transitively closed by the checker
VERDICT_LATTICE = {
    "k-slant": ("pointwise-k-slant",),
    "pointwise-k-slant": ("k-pointwise-slant",),
    "generic": ("pointwise-k-slant",),
}

MANIFEST_RESOURCE = "identities.tsv"
MANIFEST_COLUMNS = ("key", "settings", "domain", "statement")


def lattice_closure(label: str) -> set[str]:
    out: set[str] = set()
    stack = [label]
    while stack:
        for nxt in VERDICT_LATTICE.get(stack.pop(), ()):
            if nxt not in out:
                out.add(nxt)
                stack.append(nxt)
    return out


def load_manifest() -> list[dict]:
    text = (importlib.resources.files("slantkit") / "data" / MANIFEST_RESOURCE).read_text()
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != len(MANIFEST_COLUMNS):
            raise SpecError(f"manifest line {lineno} has {len(parts)} columns, "
                            f"expected {len(MANIFEST_COLUMNS)}")
        rows.append(dict(zip(MANIFEST_COLUMNS, parts)))
    return rows


def manifest_check() -> dict:
    """Cross-check the checked-in manifest against the compiled registry.

    Returns {"passed": bool, "missing": [...], "extra": [...], "bad": [...],
    "settings_mismatch": [...], "domain_mismatch": [...],
    "statement_mismatch": [...], "order_mismatch": [...]}: `missing` are
    registry keys absent from the manifest, `extra` manifest keys absent from
    the registry, `bad` manifest rows with empty fields or duplicate keys,
    `<column>_mismatch` the keys whose settings, domain or statement differ
    between manifest and registry, and `order_mismatch` the registry keys
    whose position among the shared keys differs from the manifest's.
    """
    from .verifier import REGISTRY
    rows = load_manifest()
    bad = []
    seen = set()
    for row in rows:
        if any(not row[c].strip() for c in MANIFEST_COLUMNS):
            bad.append(row["key"] or "<blank>")
        if row["key"] in seen:
            bad.append(f"duplicate:{row['key']}")
        seen.add(row["key"])
    registry_keys = {case.key for case in REGISTRY}
    manifest_keys = {row["key"] for row in rows}
    result = {"missing": sorted(registry_keys - manifest_keys),
              "extra": sorted(manifest_keys - registry_keys), "bad": bad}
    by_key = {row["key"]: row for row in rows}
    for column in MANIFEST_COLUMNS[1:]:
        result[f"{column}_mismatch"] = [
            case.key for case in REGISTRY
            if case.key in by_key and by_key[case.key][column] != getattr(case, column)]
    registry_order = [case.key for case in REGISTRY if case.key in manifest_keys]
    manifest_order = [row["key"] for row in rows if row["key"] in registry_keys]
    result["order_mismatch"] = [a for a, b in zip(registry_order, manifest_order) if a != b]
    return {"passed": not any(result.values()), **result}


def render_manifest_markdown() -> str:
    """Human-readable table of the identity registry, rendered from the
    manifest file."""
    rows = load_manifest()
    lines = ["# Identity registry", "",
             "| key | settings | domain | statement |",
             "| --- | --- | --- | --- |"]
    for row in rows:
        lines.append("| {key} | {settings} | {domain} | `{statement}` |".format(**row))
    lines.append("")
    return "\n".join(lines)
