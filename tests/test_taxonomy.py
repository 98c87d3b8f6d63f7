from slantkit.taxonomy import (
    MANIFEST_COLUMNS,
    VERDICT_LATTICE,
    lattice_closure,
    load_manifest,
    manifest_check,
    render_manifest_markdown,
)
from slantkit.verifier import REGISTRY


def test_manifest_check_pristine():
    assert manifest_check() == {"passed": True, "missing": [], "extra": [],
                                "bad": [], "settings_mismatch": [], "domain_mismatch": [],
                                "statement_mismatch": [], "order_mismatch": []}


def test_manifest_matches_registry_exactly():
    rows = load_manifest()
    assert {r["key"] for r in rows} == {c.key for c in REGISTRY}
    assert len(rows) == len(REGISTRY)


def test_manifest_rows_complete():
    for row in load_manifest():
        for col in MANIFEST_COLUMNS:
            assert row[col].strip(), row


def test_missing_key_detected(monkeypatch):
    import slantkit.taxonomy as tx
    rows = load_manifest()
    dropped = rows[:-1]
    monkeypatch.setattr(tx, "load_manifest", lambda: dropped)
    result = tx.manifest_check()
    assert not result["passed"]
    assert result["missing"] == [rows[-1]["key"]]


def test_extra_key_detected(monkeypatch):
    import slantkit.taxonomy as tx
    rows = load_manifest() + [{"key": "zz.extra", "settings": "both",
                               "domain": "X", "statement": "x = x"}]
    monkeypatch.setattr(tx, "load_manifest", lambda: rows)
    result = tx.manifest_check()
    assert not result["passed"]
    assert result["extra"] == ["zz.extra"]


def test_blank_statement_detected(monkeypatch):
    import slantkit.taxonomy as tx
    rows = load_manifest()
    rows[0] = dict(rows[0], statement="  ")
    monkeypatch.setattr(tx, "load_manifest", lambda: rows)
    result = tx.manifest_check()
    assert not result["passed"]
    assert rows[0]["key"] in result["bad"]


def test_changed_statement_detected(monkeypatch):
    import slantkit.taxonomy as tx
    rows = load_manifest()
    rows[3] = dict(rows[3], statement=rows[3]["statement"] + " + 0")
    monkeypatch.setattr(tx, "load_manifest", lambda: rows)
    result = tx.manifest_check()
    assert not result["passed"]
    assert result["statement_mismatch"] == [rows[3]["key"]]
    assert result["domain_mismatch"] == result["order_mismatch"] == []


def test_changed_domain_and_order_detected(monkeypatch):
    import slantkit.taxonomy as tx
    rows = load_manifest()
    rows[5] = dict(rows[5], domain="X in D")
    rows[0], rows[1] = rows[1], rows[0]
    monkeypatch.setattr(tx, "load_manifest", lambda: rows)
    result = tx.manifest_check()
    assert not result["passed"]
    assert result["domain_mismatch"] == [rows[5]["key"]]
    assert result["order_mismatch"] == [rows[1]["key"], rows[0]["key"]]


def test_lattice_closure():
    assert lattice_closure("k-slant") == {"pointwise-k-slant", "k-pointwise-slant"}
    assert lattice_closure("generic") == {"pointwise-k-slant", "k-pointwise-slant"}
    assert lattice_closure("pointwise-k-slant") == {"k-pointwise-slant"}
    assert lattice_closure("k-pointwise-slant") == set()
    assert set(VERDICT_LATTICE) == {"k-slant", "pointwise-k-slant", "generic"}


def test_render_markdown_covers_all_keys():
    text = render_manifest_markdown()
    for case in REGISTRY:
        assert f"| {case.key} |" in text


def test_rendered_docs_in_sync():
    # docs/identities.md is checked in; regenerating it must be a no-op
    from pathlib import Path
    rendered = render_manifest_markdown()
    checked_in = Path(__file__).resolve().parents[1] / "docs" / "identities.md"
    assert checked_in.read_text() == rendered
