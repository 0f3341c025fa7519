"""FFT-density aggregation: per coordinate, pick the client value the spectrum
or the density estimate singles out.

Two strategies share one interface, and each has a single implementation that
works on a whole layer's (clients x coordinates) matrix at once; selecting
from one coordinate vector is the one-column case of it.

* ``literal`` sorts the coordinate vector, takes the FFT, and maps the argmax
  magnitude bin straight back into the sorted sample. Bin 0 holds the plain
  sum of the values, which for one-signed data dwarfs every other bin, so it
  is excluded by default; ``include_dc=True`` keeps it in play. All columns
  of a layer go through one batched transform.
* ``kde`` evaluates a Gaussian KDE of the coordinate vector on a uniform grid
  and returns the sample value nearest the density mode. This is the variant
  with actual outlier-rejection behavior and the default for simulations.
  The density is a direct sum over the K client values: with K in the tens
  and a grid of a few hundred points, that is cheaper than binning onto a
  fine grid and convolving by FFT, which only pays off when the sample is
  much larger than the grid.

Both strategies select an existing client value, never an interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Sequence

import numpy as np

from .spectral import fft, magnitudes, silverman_bandwidth
from .tensors import (
    ClientUpdate,
    CoordinateVector,
    EmptyUpdateSet,
    ModelWeights,
    layer_matrices,
)

LITERAL = "literal"
KDE_MODE = "kde"


@dataclass(frozen=True)
class FftStrategy:
    """Selection strategy for the density aggregator.

    ``grid_size`` (the number of points the kde density is evaluated at)
    only affects the ``kde`` kind; ``include_dc`` only the ``literal`` kind.
    The kde density is summed directly over the client values at every grid
    point, so it has no accuracy knob of its own.
    """

    kind: str = KDE_MODE
    include_dc: bool = False
    grid_size: int = 256
    # Binned-FFT settings for spectral.kde_density, which aggregation does not
    # call. bench/workloads.py reads them for its stand-alone kde_density
    # timing, so they stay as constants to keep that timing's inputs fixed.
    kde_oversample: ClassVar[int] = 8
    kde_max_fine: ClassVar[int] = 1 << 15

    def __post_init__(self):
        if self.kind not in (LITERAL, KDE_MODE):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.grid_size < 2:
            raise ValueError("grid_size must be >= 2")


class Selection(NamedTuple):
    value: float
    client: int


class EmptyVector(ValueError):
    """A coordinate vector with no entries cannot be aggregated."""


def _as_values(v) -> np.ndarray:
    values = v.values if isinstance(v, CoordinateVector) else np.asarray(v, dtype=np.float64)
    if values.size == 0:
        raise EmptyVector("coordinate vector is empty")
    return values


# Largest (coordinates x grid x clients) array the kde evaluates at once, in
# float64 elements (2 MB); a chunk always holds at least one coordinate.
_KDE_CHUNK = 1 << 18


def _literal_values(cols: np.ndarray, include_dc: bool) -> np.ndarray:
    """Literal-strategy selection for each row of an (n, K) matrix, K >= 2."""
    sorted_cols = np.sort(cols, axis=1, kind="stable")
    mags = magnitudes(fft(sorted_cols))
    if include_dc:
        bins = np.argmax(mags, axis=1)
    else:
        bins = 1 + np.argmax(mags[:, 1:], axis=1)
    return sorted_cols[np.arange(cols.shape[0]), bins]


def _kde_values(cols: np.ndarray, grid_size: int) -> np.ndarray:
    """Density-mode selection for each row of an (n, K) matrix, K >= 2.

    The grid spans [min - 3h, max + 3h] with the Silverman bandwidth h, as in
    :func:`spectral.kde_density`. The density's normalising constant is left
    out because it does not move the argmax.
    """
    k = cols.shape[1]
    values = cols[:, 0].copy()
    active = np.nonzero(np.any(cols != cols[:, :1], axis=1))[0]
    sub = cols[active]
    h = silverman_bandwidth(sub, axis=1)
    lo = sub.min(axis=1) - 3.0 * h
    hi = sub.max(axis=1) + 3.0 * h
    chunk = max(1, _KDE_CHUNK // (grid_size * k))
    for start in range(0, active.size, chunk):
        part = slice(start, start + chunk)
        samples = sub[part]
        rows = np.arange(samples.shape[0])
        grid = np.linspace(lo[part], hi[part], grid_size, axis=1)
        z = grid[:, :, None] - samples[:, None, :]
        z /= h[part, None, None]
        z *= z
        z *= -0.5
        density = np.exp(z, out=z).sum(axis=2)
        mode_x = grid[rows, np.argmax(density, axis=1)]
        nearest = np.argmin(np.abs(samples - mode_x[:, None]), axis=1)
        values[active[part]] = samples[rows, nearest]
    return values


def _selected_values(mat: np.ndarray, strategy: FftStrategy) -> np.ndarray:
    """The value each strategy selects from every column of a (K, n) matrix."""
    if mat.shape[0] == 1:
        return mat[0].copy()
    cols = np.ascontiguousarray(mat.T)
    if strategy.kind == LITERAL:
        return _literal_values(cols, strategy.include_dc)
    return _kde_values(cols, strategy.grid_size)


def fft_select(v, strategy: FftStrategy = FftStrategy()) -> Selection:
    """Pick one client's value from a cross-client coordinate vector.

    Returns the selected value and the lowest client index holding it.
    Unanimous vectors (including length 1) select client 0's value.
    """
    values = _as_values(v)
    picked = float(_selected_values(values[:, None], strategy)[0])
    client = int(np.nonzero(values == picked)[0][0])
    return Selection(picked, client)


def fft_aggregate(updates: Sequence[ClientUpdate], strategy: FftStrategy = FftStrategy()) -> ModelWeights:
    """Select a value for every coordinate, a layer at a time, and reassemble the model."""
    if len(updates) == 0:
        raise EmptyUpdateSet("no client updates")
    mats = layer_matrices(updates)
    template = updates[0].weights
    return ModelWeights(
        [_selected_values(mat, strategy).reshape(layer.shape) for mat, layer in zip(mats, template.layers)]
    )
