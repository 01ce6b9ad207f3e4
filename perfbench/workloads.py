"""The benchmark's workloads: which suites run on which configurations.

A workload is a list of parts. Each part is a label, the `RunConfig`
keyword arguments (without the seed) and the suites it runs. A pass runs
every part once, in order. Check keys in reports and references are
``<label>/<suite>/<check>``.
"""

SHELL = dict(domain="cylindrical_shell", grid=(32, 32, 32), ladder=[16, 24, 32])

WORKLOADS = {
    # every Green solve is flat: generator and kernel-stage solves
    "flat-construct": [
        ("annulus", {}, ("generator", "full-decompose")),
    ],
    # horizontal projections under a random connection, 2d and 3d
    "connected-identity": [
        ("annulus", {}, ("boundary-identity",)),
        ("shell", SHELL, ("boundary-identity",)),
    ],
    # pointwise operators, stencils, window inverses, loop transport
    "no-solve": [
        (
            "annulus",
            dict(grid=(256, 256)),
            ("chart-inverse", "general-identity", "holonomy", "mean-curvature"),
        ),
    ],
}

#: reference reports exist for workload seeds 0 .. N_SEEDS - 1; the
#: command-line seed n selects workload seed n mod N_SEEDS
N_SEEDS = 10


def workload_seed(seed):
    return seed % N_SEEDS
