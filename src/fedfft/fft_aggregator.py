"""FFT-density aggregation: per coordinate, pick the client value the spectrum
or the density estimate singles out.

Two strategies share one interface, and each has a single implementation that
works on the whole model's (coordinates x clients) matrix at once; selecting
from one coordinate vector is the one-row case of it.

* ``literal`` sorts the coordinate vector of K values, takes the FFT, and
  maps the argmax magnitude bin straight back into the sorted sample. A real
  sequence has |X_k| = |X_(K-k)|, so the argmax is read over the
  non-redundant bins 0..K//2 only, and a tie goes to the lowest bin; over
  the full spectrum every mirror pair would tie, and the FFT's last bit of
  rounding would pick the side. Bin 0 holds the plain sum of the values,
  which for one-signed data dwarfs every other bin, so it is excluded by
  default; ``include_dc=True`` keeps it in play. Every coordinate of the
  model goes through one batched transform.
* ``kde`` evaluates a Gaussian KDE of the coordinate vector on a uniform grid
  and returns the sample value nearest the density mode. This is the variant
  with actual outlier-rejection behavior and the default for simulations.
  The density is a direct sum over the K client values: with K in the tens
  and a grid of a few hundred points, that is cheaper than binning onto a
  fine grid and convolving by FFT, which only pays off when the sample is
  much larger than the grid.

The kde mode is found by an exact pruned search (branch and bound on kernel
sums, after Gray & Moore, SDM 2003). It evaluates every 8th grid point and
the last one, bounds each gap between them from above, and evaluates only
the gaps whose bound reaches the best density seen. Every evaluated point
gets the same expression, summed the same way, as a search over the whole
grid, so densities, the first-maximum tie rule of ``argmax`` and therefore
the picks are bit-identical to it. Rows whose grid or bandwidth is not
finite and positive are evaluated at every grid point. The search works in
chunks of coordinates, and its large temporaries live in per-thread scratch
buffers (:func:`tensors.scratch`) that later calls reuse.

No client value may set the server's time, yet numpy's vectorised ``exp``
is about ten times slower on every lane whose result underflows, and far
spread sets (random weights) put most kernel arguments there. So each row
is gated before any chunk is built: a row whose grid spans fewer than 40
bandwidths cannot reach an argument below -708 and runs the plain ``exp``.
The other rows go in chunks of their own, where every argument below -746,
whose ``exp`` is exactly +0.0 anyway, is replaced by -0.0 and its term
multiplied by 0 afterwards. The terms stay bit for bit those of ``np.exp``.

Both strategies select an existing client value, never an interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Sequence

import numpy as np

from .spectral import fft, silverman_bandwidth
from .tensors import ClientUpdate, ModelWeights, scratch, validate_uniform

LITERAL = "literal"
KDE_MODE = "kde"


@dataclass(frozen=True)
class FftStrategy:
    """Selection strategy for the density aggregator.

    ``grid_size`` (the number of points the kde density is defined on) only
    affects the ``kde`` kind; ``include_dc`` only the ``literal`` kind.
    literal reads bins 1..K//2 of the sorted sample's spectrum, or 0..K//2
    with ``include_dc``, and a tie goes to the lowest bin. The
    kde density is summed directly over the client values, so it has no
    accuracy knob of its own. The kde picks the sample nearest the first
    grid point of highest density. The search skips grid points whose
    density provably falls below a density already found, and keeps every
    point whose upper bound only ties it, so its pick is the one a search
    over all ``grid_size`` points makes.
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


# Budget, in float64 elements (2 MB), for the kde's (coordinates x points x
# clients) temporaries: a chunk's coarse terms, gap bounds, masks and grid
# together, and each batch of fine-pass gaps. A chunk always holds at least
# one coordinate.
_KDE_CHUNK = 1 << 18
# The kde's coarse pass evaluates every _KDE_STRIDE-th grid point; gap bounds
# are inflated by _KDE_BOUND_SLACK, far above the rounding error of a K-term
# sum of exponentials, so a bound never falls below a density it covers.
_KDE_STRIDE = 8
_KDE_BOUND_SLACK = 1.0 + 1e-9
# Every sample lies 3h inside its grid's ends, so on a grid spanning fewer
# than _KDE_FAR_SPAN bandwidths each kernel argument stays above -37^2 / 2,
# clear of exp's subnormal and underflow range below about -708. Only the
# other ("far") rows take the guarded exp of _kernel_terms, in chunks of
# their own. np.exp is exactly +0.0 below _EXP_ZERO.
_KDE_FAR_SPAN = 40.0
_EXP_ZERO = -746.0


def _literal_values(cols: np.ndarray, include_dc: bool) -> np.ndarray:
    """Literal-strategy selection for each row of an (n, K) matrix, K >= 2."""
    sorted_cols = np.sort(cols, axis=1, kind="stable")
    mags = np.abs(fft(sorted_cols)[:, : cols.shape[1] // 2 + 1])
    if include_dc:
        bins = np.argmax(mags, axis=1)
    else:
        bins = 1 + np.argmax(mags[:, 1:], axis=1)
    return sorted_cols[np.arange(cols.shape[0]), bins]


def _kernel_terms(diff: np.ndarray, h: np.ndarray, far: bool) -> np.ndarray:
    """exp(-(diff / h)^2 / 2) in place, for differences g - x of shape (r, m, K).

    ``h`` holds one bandwidth per row. Sums of the result over its last axis
    are the unnormalised densities at the m points g of each row. Every kde
    density is this expression summed the same way, so a point keeps its
    value bit for bit whichever pass evaluates it.

    ``far`` rows may have arguments that underflow, and numpy's vectorised
    ``exp`` leaves its fast path for such lanes (about 10x slower each). Every
    argument below _EXP_ZERO gives exactly +0.0, so those lanes are set to
    -0.0 (exp 1) and multiplied by 0 afterwards; the clamp first turns -inf
    arguments into finite ones, since -inf * 0 is NaN. NaN lanes stay NaN.
    The terms are bit for bit ``np.exp`` of the same arguments either way.
    """
    diff /= h[:, None, None]
    diff *= diff
    diff *= -0.5
    if not far:
        return np.exp(diff, out=diff)
    keep = np.greater_equal(diff, _EXP_ZERO, out=scratch("kde.keep", diff.shape, bool))
    np.maximum(diff, _EXP_ZERO, out=diff)
    diff *= keep
    np.exp(diff, out=diff)
    diff *= keep
    return diff


def _kde_pruned_density(
    grid: np.ndarray, samples: np.ndarray, h: np.ndarray, coarse: np.ndarray, far: bool
) -> np.ndarray:
    """Densities at every grid point that can hold its row's maximum, -inf elsewhere.

    Coarse pass: the grid indices ``coarse``, ascending, first and last
    included. Each gap between neighbouring coarse points is bounded from
    above by taking, per sample, 1 if the sample lies inside the gap and
    otherwise the larger of its terms at the gap's two ends, one of which is
    the gap's nearest point to it. Fine pass: the interior of every gap
    whose bound reaches the best coarse density. A pruned point's density is
    below that value, so ``argmax`` over the result, which returns the first
    maximum, picks the same point as over the full grid. Rows with a
    bandwidth that is not positive, a non-finite grid, or non-finite coarse
    densities or bounds are evaluated at every point. ``far`` is passed on
    to :func:`_kernel_terms`.
    """
    n, size = grid.shape
    k = samples.shape[1]
    m = coarse.size
    terms = scratch("kde.terms", (n, m, k))
    np.subtract(grid[:, coarse, None], samples[:, None, :], out=terms)
    # x is inside gap i when it lies right of coarse point i and not right of
    # point i + 1; an x on the right end has a term of 1 there anyway
    right_of = np.less(terms, 0, out=scratch("kde.right_of", (n, m, k), bool))
    inside = np.greater(right_of[:, :-1], right_of[:, 1:], out=scratch("kde.inside", (n, m - 1, k), bool))
    _kernel_terms(terms, h, far)
    density = scratch("kde.density", (n, size))
    density.fill(-np.inf)
    density[:, coarse] = terms.sum(axis=2)
    bound = np.maximum(terms[:, :-1], terms[:, 1:], out=scratch("kde.bound", (n, m - 1, k)))
    np.copyto(bound, 1.0, where=inside)
    bound = bound.sum(axis=2) * _KDE_BOUND_SLACK
    best = density[:, coarse].max(axis=1)
    keep = bound >= best[:, None]
    exhaustive = ~((h > 0) & np.isfinite(best) & np.all(np.isfinite(grid), axis=1))
    exhaustive |= ~np.all(np.isfinite(bound), axis=1)
    keep[exhaustive] = True
    # interior grid indices of each gap, padded by repeating its last one; a
    # gap without interior points is never kept
    gap_sizes = np.diff(coarse) - 1
    width = max(int(gap_sizes.max()), 1)
    interior = np.minimum(coarse[:-1, None] + 1 + np.arange(width), coarse[1:, None] - 1)
    keep &= gap_sizes > 0
    rows, gaps = np.nonzero(keep)
    step = max(1, _KDE_CHUNK // (width * k))
    for start in range(0, rows.size, step):
        r = rows[start : start + step]
        g = interior[gaps[start : start + step]]
        # the indices are in range by construction; mode="raise" would buffer
        gathered = np.take(samples, r, axis=0, out=scratch("kde.gathered", (r.size, k)), mode="clip")
        diff = scratch("kde.diff", (r.size, width, k))
        np.subtract(grid[r[:, None], g][:, :, None], gathered[:, None, :], out=diff)
        density[r[:, None], g] = _kernel_terms(diff, h[r], far).sum(axis=2)
    return density


def _kde_grid(lo: np.ndarray, hi: np.ndarray, size: int) -> np.ndarray:
    """``np.linspace(lo[i], hi[i], size)`` for every row i, each row on its own.

    A batched ``np.linspace`` switches every row to its zero-step formula
    when any one row's step underflows to 0, which would make a row's grid
    depend on the other coordinates in its chunk.
    """
    delta = (hi - lo)[:, None]
    step = delta / (size - 1)
    j = np.arange(size, dtype=np.float64)
    grid = np.multiply(j, step, out=scratch("kde.grid", (lo.size, size)))
    flat = step[:, 0] == 0
    if flat.any():
        grid[flat] = j / (size - 1) * delta[flat]
    grid += lo[:, None]
    grid[:, -1] = hi
    return grid


def _kde_values(cols: np.ndarray, grid_size: int) -> np.ndarray:
    """Density-mode selection for each row of an (n, K) matrix, K >= 2.

    The grid spans [min - 3h, max + 3h] with the Silverman bandwidth h, as in
    :func:`spectral.kde_density`. The density's normalising constant is left
    out because it does not move the argmax. The mode is found by the exact
    pruned search of :func:`_kde_pruned_density`. Rows whose grid spans
    _KDE_FAR_SPAN bandwidths or more (or is not finite) are moved behind the
    others and go in chunks of their own, so only they pay for the guarded
    exp; each row's pick is the same in any chunk.
    """
    k = cols.shape[1]
    values = cols[:, 0].copy()
    active = np.nonzero(np.any(cols != cols[:, :1], axis=1))[0]
    sub = cols[active]
    h = silverman_bandwidth(sub, axis=1)
    lo = sub.min(axis=1) - 3.0 * h
    hi = sub.max(axis=1) + 3.0 * h
    far = ~(hi - lo < _KDE_FAR_SPAN * h)
    near = active.size - np.count_nonzero(far)
    if near < active.size:
        order = np.argsort(far, kind="stable")
        active, sub, h, lo, hi = active[order], sub[order], h[order], lo[order], hi[order]
    coarse = np.unique(np.r_[np.arange(0, grid_size, _KDE_STRIDE), grid_size - 1])
    chunk = max(1, _KDE_CHUNK // (3 * coarse.size * k))
    for first, end, guard in ((0, near, False), (near, active.size, True)):
        for start in range(first, end, chunk):
            part = slice(start, min(start + chunk, end))
            samples = sub[part]
            rows = np.arange(samples.shape[0])
            grid = _kde_grid(lo[part], hi[part], grid_size)
            density = _kde_pruned_density(grid, samples, h[part], coarse, guard)
            mode_x = grid[rows, np.argmax(density, axis=1)]
            nearest = np.argmin(np.abs(samples - mode_x[:, None]), axis=1)
            values[active[part]] = samples[rows, nearest]
    return values


def _selected_values(cols: np.ndarray, strategy: FftStrategy) -> np.ndarray:
    """The value each strategy selects from every row of an (n, K) matrix."""
    if cols.shape[1] == 1:
        return cols[:, 0].copy()
    if strategy.kind == LITERAL:
        return _literal_values(cols, strategy.include_dc)
    return _kde_values(cols, strategy.grid_size)


def fft_select(v, strategy: FftStrategy = FftStrategy()) -> Selection:
    """Pick one client's value from a cross-client coordinate vector.

    Returns the selected value and the lowest client index holding it.
    Unanimous vectors (including length 1) select client 0's value.
    """
    values = np.asarray(v, dtype=np.float64)
    if values.size == 0:
        raise EmptyVector("coordinate vector is empty")
    picked = float(_selected_values(values[None, :], strategy)[0])
    client = int(np.nonzero(values == picked)[0][0])
    return Selection(picked, client)


def fft_aggregate(updates: Sequence[ClientUpdate], strategy: FftStrategy = FftStrategy()) -> ModelWeights:
    """Select a value for every coordinate of the model in one pass, and reassemble it."""
    validate_uniform(updates)
    cols = np.stack([u.weights.flat() for u in updates], axis=1)
    return updates[0].weights.with_flat(_selected_values(cols, strategy))
