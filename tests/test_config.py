import copy
import pickle

import pytest

from slantkit.config import DEFAULT_TOLERANCES, Tolerances
from slantkit.errors import SpecError

# the knobs in declaration order with their defaults, and the repr the frozen
# dataclass printed
DEFAULTS = {"structure": 1e-9, "invariance": 1e-10, "cluster": 1e-8, "angle_const": 1e-6,
            "angle_distinct": 1e-6, "identity": 1e-9, "principal": 1e-8, "alpha_margin": 1e-6,
            "lambda_band": 1e-6, "fd_step": 1e-5, "zero_threshold": 1e-4}
TEXT = ("Tolerances(structure=1e-09, invariance=1e-10, cluster=1e-08, angle_const=1e-06, "
        "angle_distinct=1e-06, identity=1e-09, principal=1e-08, alpha_margin=1e-06, "
        "lambda_band=1e-06, fd_step=1e-05, zero_threshold=0.0001)")


def test_tolerances_are_an_immutable_value():
    tol = Tolerances()
    assert list(vars(tol).items()) == list(DEFAULTS.items())
    assert tol == DEFAULT_TOLERANCES and tol is not DEFAULT_TOLERANCES
    assert hash(tol) == hash(tuple(DEFAULTS.values()))
    assert repr(tol) == TEXT
    assert tol.angle_const == 1e-6 and Tolerances.cluster == 1e-8

    tight = Tolerances(cluster=1e-9, fd_step=2e-5)
    assert list(vars(tight)) == list(DEFAULTS)
    assert (tight.cluster, tight.fd_step, tight.structure) == (1e-9, 2e-5, 1e-9)
    assert tight != tol and not tight == tol and hash(tight) != hash(tol)
    assert tol.__eq__(tuple(DEFAULTS.values())) is NotImplemented
    with pytest.raises(TypeError):
        Tolerances(no_such_knob=1.0)

    for name in ("cluster", "extra"):
        with pytest.raises(AttributeError):
            setattr(tol, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(tol, name)
    assert vars(tol) == DEFAULTS

    for copied in [copy.deepcopy(tight)] + [pickle.loads(pickle.dumps(tight, protocol))
                                            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]:
        assert type(copied) is Tolerances and copied == tight and copied is not tight
        assert list(vars(copied).items()) == list(vars(tight).items())
        with pytest.raises(AttributeError):
            copied.cluster = 1.0


def test_override():
    tol = DEFAULT_TOLERANCES
    assert tol.override(None) is tol
    assert tol.override({}) == tol
    got = tol.override({"zero_threshold": 1e-3, "identity": 2})
    assert list(vars(got).items()) == list(dict(DEFAULTS, zero_threshold=1e-3,
                                                identity=2.0).items())
    assert type(got.identity) is float and vars(tol) == DEFAULTS
    assert got.override({"identity": 1e-9, "zero_threshold": 1e-4}) == tol


@pytest.mark.parametrize("mapping, message", [
    ([1e-9], "tolerances must be an object of name -> number"),
    ({"zz": 1, "cluster": 1e-8, "aa": 2}, "unknown tolerance keys: ['aa', 'zz']"),
    ({"cluster": "1e-8"}, "tolerance cluster must be a number, not '1e-8'"),
    ({"cluster": True}, "tolerance cluster must be a number, not True"),
    ({"cluster": 0}, "tolerance cluster must be positive and finite"),
    ({"cluster": float("inf")}, "tolerance cluster must be positive and finite"),
])
def test_override_errors(mapping, message):
    with pytest.raises(SpecError) as err:
        DEFAULT_TOLERANCES.override(mapping)
    assert str(err.value) == message
