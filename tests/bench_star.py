"""The bench star rho = 1 + 0.1 Y_2^0 + 0.05 Y_3^1, the star of the bench's
star workloads and of the reference runs: a DomainSpec, and the JSON object
of a config's domain or a --domain file."""

from capsym import DomainSpec

BENCH_STAR = DomainSpec(kind="star", mean_radius=1.0,
                        terms=((2, 0, 0.1), (3, 1, 0.05)))
BENCH_STAR_JSON = {"kind": "star", "mean_radius": 1.0,
                   "terms": [list(term) for term in BENCH_STAR.terms]}
