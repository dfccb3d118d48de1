"""The benchmark's workloads: argument lists for ``spherestab.cli.main``.

Each run also receives ``--seed`` (the benchmark's seed), ``--out`` and,
for the timed runs, ``--format json``.  Why each workload was chosen is
recorded in ``BENCHMARK.json``.
"""

WORKLOADS = {
    # Exact benchmarks with analytic lambda_1; eigensolve dominates.
    "spectral-ladder": [
        "spectrum --family clifford --k 2 --l 1 --resolutions 16,20,24",
        "spectrum --family clifford --k 2 --l 2 --resolutions 8,10",
        "spectrum --family clifford --k 1 --l 1 --resolutions 64,128,256",
    ],
    # Per-ball inf cutoff: chart inversion, C_V and O(m^2) field evaluation.
    "cutoff-balls": [
        "cutoff --family clifford --k 1 --l 1 --points 150 --epsilon 1.0 --exponent 1 --kind inf",
        "cutoff --family clifford --k 1 --l 2 --points 5 --epsilon 0.05 --exponent 2 --kind inf",
    ],
    # C_V, global product cutoff with Hessians, and global stratified integrals.
    "energy-integrals": [
        "estimates --family clifford --k 1 --l 2 --points 10",
        "estimates --family clifford --k 2 --l 2 --points 5",
        "cutoff --family clifford --k 1 --l 1 --points 20 --epsilon 0.5 --exponent 0 --kind product",
        "simons --family clifford --k 2 --l 1 --samples 200",
        "cone-table --n-max 10",
    ],
}
