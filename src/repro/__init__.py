"""repro: Distributed Wavelet Thresholding for Maximum Error Metrics.

A from-scratch reproduction of Mytilinis, Tsoumakos & Koziris (SIGMOD'16):
maximum-error wavelet synopses at cluster scale — the DP parallelization
framework, DIndirectHaar, DGreedyAbs/DGreedyRel, the parallel conventional
synopsis algorithms of the appendix, and the substrates they need (Haar
error trees, centralized baselines, a MapReduce engine with a simulated
Hadoop cluster, and dataset surrogates).

Quick start::

    import numpy as np
    from repro import build_synopsis

    data = np.random.default_rng(0).uniform(0, 1000, size=1 << 14)
    synopsis = build_synopsis(data, budget=len(data) // 8)
    print(synopsis.max_abs_error(data), synopsis.range_avg(100, 200))
"""

from repro.core.thresholding import ALGORITHMS, build_synopsis
from repro.wavelet.synopsis import WaveletSynopsis

__version__ = "1.0.0"

__all__ = ["ALGORITHMS", "WaveletSynopsis", "build_synopsis", "__version__"]
