"""The compiled drain serves every organization a ``RunSpec`` can name.

Every paper point runs as a :class:`~repro.engine.spec.RunSpec` through
``execute_spec``.  Each organization in ``spec.ORGANIZATIONS`` (cuckoo
under each hash family too), and the other geometries the paper's sweeps
build (3- and 8-way Cuckoo, 8-way Sparse), at both tracked levels, runs
every access of warm-up and measurement through the compiled drain, the
simulator's one definition of the protocol.
"""

import pytest

from repro import obs
from repro.engine.execute import execute_spec
from repro.engine.spec import HASH_FAMILIES, ORGANIZATIONS, RunSpec

# (organization, hash_family, ways, provisioning)
SPEC_ORGANIZATIONS = [
    (organization, hash_family, 4, 1.0)
    for organization in ORGANIZATIONS
    for hash_family in ((None, *HASH_FAMILIES) if organization == "cuckoo" else (None,))
] + [
    ("cuckoo", None, 3, 1.5),  # Figure 9; Figure 12's Private-L2 Cuckoo
    ("cuckoo", None, 8, 1.0),  # Figure 9's Private-L2 8-way designs
    ("sparse", None, 8, 2.0),  # Figure 12's Sparse 2x
]


@pytest.mark.parametrize("level", ["L1", "L2"])
@pytest.mark.parametrize(
    "organization,hash_family,ways,provisioning", SPEC_ORGANIZATIONS
)
def test_every_spec_organization_runs_on_the_compiled_drain(
    organization, hash_family, ways, provisioning, level
):
    spec = RunSpec(
        workload="Oracle",
        tracked_level=level,
        organization=organization,
        hash_family=hash_family,
        ways=ways,
        provisioning=provisioning,
        scale=64,
        measure_accesses=2000,
    )
    obs.enable()
    obs.reset()
    try:
        execute_spec(spec)
        counters = obs.REGISTRY
        accesses = counters.counter("sim.batch.accesses").value
        drained = counters.counter("sim.drain.vector_resolved").value
    finally:
        obs.disable()
        obs.reset()
    assert drained == accesses > 2000
