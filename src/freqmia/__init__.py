"""Desk-scale lab for frequency-filtered membership inference on
diffusion models.

The package implements a unified distance-based membership scoring
paradigm for diffusion models, three attack instantiations (naive, pia,
secmi), a plug-and-play radial high-frequency filter that sharpens all of
them, and the statistical machinery to evaluate attacks (ASR, ROC/AUC,
low-FPR TPR, score-variance ratios, normality tests) and to verify the
filter's variance-ratio improvement both in closed form and by Monte
Carlo. A toy, deliberately overfittable denoiser and a seeded experiment
harness make the whole pipeline reproducible on a laptop.
"""

# Importing the package loads every module the pipeline runs (experiment
# imports the rest), so a tool that patches functions in the modules that
# define them, like the benchmark's tracer, finds them all after
# ``import freqmia``. The public names live in those modules only.
from . import experiment  # noqa: F401

__version__ = "0.1.0"
