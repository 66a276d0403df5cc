"""modrec: recovery of real-valued samples from noisy modulo-1 observations.

Two-stage pipeline: kNN averaging on the unit circle denoises the mod-1
samples, then sequential branch-corrected differencing unwraps them up to a
single global integer.  A graph-regularized torus denoiser with a dual
certificate of global optimality, relaxation baselines, multilinear function
reconstruction, and an experiment harness round out the package.

Each public name is imported from the module that defines it
(``from modrec.knn import denoise``); the package itself exports only
``__version__``.
"""

__version__ = "0.1.0"
