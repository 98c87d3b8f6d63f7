import slantkit

REMOVED = ("slant_spectrum", "slant_function_table", "dual_slant_theta", "dual_identity_suite",
           "FWSplit", "fw_split", "f_squared_matrix")


def test_every_export_resolves():
    missing = [name for name in slantkit.__all__ if not hasattr(slantkit, name)]
    assert missing == []


def test_removed_per_point_functions_are_not_exported():
    assert set(REMOVED).isdisjoint(slantkit.__all__)
    assert [name for name in REMOVED if hasattr(slantkit, name)] == []
