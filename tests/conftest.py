"""Settings shared by every test module."""

from hypothesis import Phase, settings

# A failing property test reports the first falsifying example it finds.
# Shrinking that example is left out: on a large generated input it ran for
# minutes with memory growing. Every passing test runs the same examples.
settings.register_profile(
    "no-shrink", phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
settings.load_profile("no-shrink")
