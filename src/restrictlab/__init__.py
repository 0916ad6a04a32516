"""restrictlab: desk-scale numerical experiments on Fourier restriction estimates.

Measures are discretized on a dyadic torus grid; convolution powers, decay
and regularity exponents, restriction-operator norms, and the inequality
chain behind the convolution-power restriction estimate are all computable
and checkable on concrete instances.

The public names below resolve on first access (PEP 562), each from the
submodule that _EXPORTS names, so ``import restrictlab`` imports no
submodule and a process loads only the modules it calls.
"""

import importlib

__version__ = "0.1.0"

# each public name and the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(["DiscreteMeasure", "cantor", "circle", "dirac", "load_measure", "mollify",
                     "random_flat", "save_measure", "uniform"], "measures"),
    "INF": "rationals",
    **dict.fromkeys(["ahlfors_alpha", "billingsley_gamma", "fourier_beta", "knapp_bound",
                     "mockenhaupt_p0", "theorem_range"], "regularity"),
    **dict.fromkeys(["convolve_power", "density_norm", "fourier"], "spectral"),
}
__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        # a submodule not yet imported lands here too; `from restrictlab import cli` then imports it
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
