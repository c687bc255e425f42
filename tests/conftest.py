"""Settings shared by every test module."""

import os

# In-process runs use the one BLAS thread the program gives itself, so that
# they write the bytes of a real process. This runs before any test module
# loads numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hypothesis import Phase, settings

# A failing property test reports the first falsifying example it finds.
# Shrinking that example is left out: on a large generated input it ran for
# minutes with memory growing. Every passing test runs the same examples.
settings.register_profile(
    "no-shrink", phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
settings.load_profile("no-shrink")
