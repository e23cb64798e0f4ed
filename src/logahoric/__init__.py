"""Exact arithmetic for parahoric weights on the line and the logarithmic
Hitchin system they support: filtration jumps, Levi data, rational degrees
and slopes, Gaudin-type Lax matrices, invariant sections, spectral curves,
Lie-Poisson brackets and the coresidue moment map.  Everything is computed
over the rationals; no floating point appears anywhere in the library.
"""

__version__ = "0.1.0"
