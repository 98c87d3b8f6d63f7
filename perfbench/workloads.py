"""Workload definitions and seeded spec generation.

Each workload is one gallery fixture at fixed parameters. The workload seed
is the seed of the spec's `{seed, count}` sample-point generator (uniform
points of the box [-2, 2] inside the submanifold) and the `--seed` passed to
every CLI command (the random trial vectors). Everything else is fixed, so
every seed does the same amount of work at the same `n` and point count.

Why each workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass

TRIALS = 50

# (metric name, CLI arguments after the spec path, spec variant)
COMMANDS = (
    ("validate_s", ("validate",), "declared"),
    ("classify_s", ("classify",), "declared"),
    ("dual_s", ("dual",), "declared"),
    ("identities_s", ("identities",), "declared"),
    ("connection_s", ("identities", "--connection"), "declared"),
    ("discover_s", ("classify",), "discovery"),
)



@dataclass(frozen=True)
class Workload:
    name: str
    fixture: str
    k: int
    epsilon: int
    gamma: float
    delta: float | None
    points: int

    def fixture_obj(self):
        from slantkit.gallery import build_fixture
        return build_fixture(self.fixture, k=self.k, epsilon=self.epsilon,
                             gamma=self.gamma, delta=self.delta)

    def spec_docs(self, fx, seed: int) -> tuple[dict, dict]:
        """(declared spec, discovery-mode spec) for this seed."""
        from slantkit.gallery import fixture_to_spec_dict
        doc = fixture_to_spec_dict(fx, points=fx.default_points()[:1])
        doc["sample_points"] = {"seed": seed, "count": self.points}
        return doc, dict(doc, decomposition=None)


WORKLOADS = {
    w.name: w for w in (
        Workload("identities-k8", "ex9", 8, -1, 1.5, None, 8),
        Workload("connection-k6", "ex8", 6, -1, 0.5, 1.0, 10),
        Workload("many-points-k2", "ex5", 2, 1, 2.0, None, 60),
    )
}
