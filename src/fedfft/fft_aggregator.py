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
* ``kde`` scores each client value of the coordinate vector by its Gaussian
  density (Silverman bandwidth), each distinct value counted once, and
  returns the densest one: the server selects the client point of highest
  density, the density-peak rule of Rodriguez & Laio (Science 2014). This
  is the variant with actual outlier-rejection behavior and the default
  for simulations. It sorts each coordinate's values once and forms the
  kernel term of each pair once, offset by offset, so a coordinate costs
  K(K-1)/2 terms; the work goes in chunks of coordinates, with the large
  temporaries in per-thread scratch buffers (:func:`tensors.scratch`).

No client value may set the server's time, yet numpy's vectorised ``exp``
is about ten times slower on every lane whose result underflows, and far
spread sets (random weights) put many kernel arguments there. So a row whose
values span 37 bandwidths or more goes in chunks of its own, where every
argument below -746, whose ``exp`` is exactly +0.0 anyway, is replaced by
-0.0 and its term multiplied by 0 afterwards. The terms stay bit for bit
those of ``np.exp``.

Both strategies select an existing client value, never an interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Sequence

import numpy as np

from .spectral import fft, sorted_silverman_bandwidth
from .tensors import ClientUpdate, ModelWeights, scratch, stack_flat, unit_scale, validate_uniform

LITERAL = "literal"
KDE_MODE = "kde"


@dataclass(frozen=True)
class FftStrategy:
    """Selection strategy for the density aggregator.

    ``include_dc`` only affects the ``literal`` kind, which reads bins
    1..K//2 of the sorted sample's spectrum, or 0..K//2 with ``include_dc``;
    a tie goes to the lowest bin. The ``kde`` kind picks the client value of
    highest density, each distinct value counted once; an exact tie goes to
    the value more clients sent, then to the smaller. It has no knob:
    ``grid_size`` is not a field but the grid length of the stand-alone
    :func:`spectral.kde_density`, which aggregation does not call.
    """

    kind: str = KDE_MODE
    include_dc: bool = False
    # Settings for spectral.kde_density, which aggregation does not call.
    # bench/workloads.py reads them for its stand-alone kde_density timing,
    # so they stay as constants to keep that timing's inputs fixed.
    grid_size: ClassVar[int] = 256
    kde_oversample: ClassVar[int] = 8
    kde_max_fine: ClassVar[int] = 1 << 15

    def __post_init__(self):
        if self.kind not in (LITERAL, KDE_MODE):
            raise ValueError(f"unknown strategy kind {self.kind!r}")


class Selection(NamedTuple):
    value: float
    client: int


class EmptyVector(ValueError):
    """A coordinate vector with no entries cannot be aggregated."""


# Budget, in float64 elements (2 MB), for each of the kde's (clients x
# coordinates) temporaries; a chunk always holds at least one coordinate.
_KDE_CHUNK = 1 << 18
# A row whose values span fewer than _KDE_FAR_SPAN bandwidths keeps each
# kernel argument above -37^2 / 2, clear of exp's subnormal and underflow
# range below about -708. Only the other ("far") rows take the guarded exp
# of _kernel_terms, in chunks of their own. np.exp is exactly +0.0 below
# _EXP_ZERO.
_KDE_FAR_SPAN = 37.0
_EXP_ZERO = -746.0
# Each row is scaled by tensors.unit_scale, and then by 2^m with m at most
# _KERNEL_EXPONENT. A bandwidth never falls below _H_FLOOR, so no
# difference is divided by 0.
_KERNEL_EXPONENT = 1018
_H_FLOOR = float(np.nextafter(0.0, 1.0))


def _literal_values(cols: np.ndarray, include_dc: bool) -> np.ndarray:
    """Literal-strategy selection for each row of an (n, K) matrix, K >= 2.

    The sorted rows, the spectrum and its magnitudes live in per-thread
    scratch buffers, so that a call maps no fresh memory.
    """
    n, k = cols.shape
    sorted_cols = scratch("literal.sorted", cols.shape)
    np.copyto(sorted_cols, cols)
    sorted_cols.sort(axis=1, kind="stable")
    signal = scratch("literal.signal", cols.shape, np.complex128)
    np.copyto(signal, sorted_cols)
    spectrum = fft(signal, out=scratch("literal.spectrum", cols.shape, np.complex128))
    mags = np.abs(spectrum[:, : k // 2 + 1], out=scratch("literal.mags", (n, k // 2 + 1)))
    if include_dc:
        bins = np.argmax(mags, axis=1)
    else:
        bins = 1 + np.argmax(mags[:, 1:], axis=1)
    return sorted_cols[np.arange(n), bins]


def _kernel_terms(diff: np.ndarray, h: np.ndarray, far: bool) -> np.ndarray | None:
    """exp(-(diff / h)^2 / 2) in place, for differences of client values.

    ``h`` holds the bandwidths and broadcasts against ``diff``. Every kde
    term is this expression, so a term has the same bits in any chunk.

    ``far`` rows may have arguments that underflow, and numpy's vectorised
    ``exp`` leaves its fast path for such lanes (about 10x slower each). Every
    argument below _EXP_ZERO gives exactly +0.0, so those lanes are set to
    -0.0 (exp 1) and multiplied by 0 afterwards; the clamp first turns -inf
    arguments into finite ones, since -inf * 0 is NaN. NaN lanes stay NaN.
    The terms are bit for bit ``np.exp`` of the same arguments either way.
    For ``far`` rows, None means that every argument lies below _EXP_ZERO,
    so that every term is +0.0.
    """
    diff /= h
    diff *= diff
    diff *= -0.5
    if not far:
        return np.exp(diff, out=diff)
    keep = np.greater_equal(diff, _EXP_ZERO, out=scratch("kde.keep", diff.shape, bool))
    if not keep.any():
        return None
    np.maximum(diff, _EXP_ZERO, out=diff)
    diff *= keep
    np.exp(diff, out=diff)
    diff *= keep
    return diff


def _kde_picks(z: np.ndarray, h: np.ndarray, far: bool) -> np.ndarray:
    """Position, in each column of a chunk, of the value of highest density.

    ``z`` is (K, r): column c holds one coordinate's K client values in
    ascending order, and ``h[c]`` its bandwidth. Value i scores
    sum_j w_j exp(-((z_i - z_j) / h)^2 / 2) over its column, with w_j 1 for
    the first of each run of equal values and 0 for the others, so each
    distinct value counts once; the other members of a run are not
    candidates. The best score wins, an exact tie goes to the value more
    clients sent, and then to the smaller value.

    The terms of the pairs d apart are formed once, for d = 1 .. K-1, and
    each is added to both ends. A value takes the sum of its two terms at
    offset d, left plus right, so that mirrored values get equal scores. On
    a sorted column a later offset is never nearer, so once every argument
    of an offset lies below _EXP_ZERO (checked on ``far`` chunks only) every
    later term is +0.0 and would change no sum. A column's scores therefore
    do not depend on the chunk it is in.
    """
    k, r = z.shape
    w = scratch("kde.weight", (k, r))
    w[0] = 1.0
    np.not_equal(z[1:], z[:-1], out=w[1:])
    runs = not w.all()
    score = scratch("kde.score", (k, r))
    np.copyto(score, w)
    for d in range(1, k):
        diff = np.subtract(z[d:], z[:-d], out=scratch("kde.diff", (k - d, r)))
        terms = _kernel_terms(diff, h, far)
        if terms is None:
            break
        # terms[i] is the pair (i, i + d): the right term of i, the left of i + d
        left, right = terms, terms
        if runs:
            left = np.multiply(terms, w[:-d], out=scratch("kde.left", (k - d, r)))
            right = np.multiply(terms, w[d:], out=scratch("kde.right", (k - d, r)))
        both = k - 2 * d
        if both > 0:
            score[d : k - d] += np.add(left[:both], right[d:], out=scratch("kde.both", (both, r)))
            score[k - d :] += left[both:]
            score[:d] += right[:d]
        else:
            score[d:] += left
            score[: k - d] += right
    if not runs:
        return np.argmax(score, axis=0)
    score *= w
    tied = np.equal(score, score.max(axis=0), out=scratch("kde.tied", (k, r), bool))
    # a run starting at i ends where the next run starts
    starts = np.where(w[1:] > 0, np.arange(1, k)[:, None], k)
    ends = np.minimum.accumulate(starts[::-1], axis=0)[::-1]
    count = np.subtract(np.vstack([ends, np.full((1, r), k)]), np.arange(k)[:, None])
    count *= tied
    return np.argmax(count, axis=0)


def _kde_values(cols: np.ndarray) -> np.ndarray:
    """Density-peak selection for each row of an (n, K) matrix, K >= 2.

    Each row is sorted and multiplied by 2^-e, e the binary exponent of its
    largest magnitude (:func:`tensors.unit_scale`), so that its standard
    deviation cannot overflow. The Silverman bandwidth h of the
    sorted, scaled row (raised to the smallest positive float if it
    underflows to 0) depends on the values only, not on the client order.
    The row and h are then multiplied by 2^m, which brings h near 1 unless
    a difference could overflow, so that one far value cannot push the
    others into slow subnormal arithmetic. The rule is scale-free, and both
    scalings are exact for rows in the normal range. The pick is the client
    value of highest density (:func:`_kde_picks`). Rows whose values span
    _KDE_FAR_SPAN bandwidths or more are moved behind the others and go in
    chunks of their own, so only they pay for the guarded exp.
    """
    k = cols.shape[1]
    s = scratch("kde.sorted", cols.shape)
    np.copyto(s, cols)
    s.sort(axis=1)
    values = s[:, 0].copy()
    active = np.flatnonzero(s[:, 0] != s[:, -1])
    if active.size < len(s):
        s = s[active]
    z = np.multiply(s, unit_scale(s[:, :1], s[:, -1:]), out=scratch("kde.scaled", s.shape))
    # z is sorted like s, as 2^-e > 0
    h = np.maximum(sorted_silverman_bandwidth(z, np.std(z, axis=1)), _H_FLOOR)
    # |z| < 2^3 grows to below 2^(3 + _KERNEL_EXPONENT) = 2^1021 at most, so
    # no difference of two values overflows
    m = np.minimum(-np.frexp(h)[1], _KERNEL_EXPONENT)
    up = np.ldexp(1.0, m)
    z *= up[:, None]
    h *= up
    far = ~(z[:, -1] - z[:, 0] < _KDE_FAR_SPAN * h)
    near = active.size - np.count_nonzero(far)
    if near < active.size:
        order = np.argsort(far, kind="stable")
        active, s, z, h = active[order], s[order], z[order], h[order]
    chunk = max(1, _KDE_CHUNK // k)
    for first, end, guard in ((0, near, False), (near, active.size, True)):
        for start in range(first, end, chunk):
            part = slice(start, min(start + chunk, end))
            zt = scratch("kde.values", (k, part.stop - start))
            np.copyto(zt, z[part].T)
            with np.errstate(over="ignore"):
                pick = _kde_picks(zt, h[part], guard)
            values[active[part]] = s[part][np.arange(pick.size), pick]
    return values


def _selected_values(cols: np.ndarray, strategy: FftStrategy) -> np.ndarray:
    """The value each strategy selects from every row of an (n, K) matrix."""
    if cols.shape[1] == 1:
        return cols[:, 0].copy()
    if strategy.kind == LITERAL:
        return _literal_values(cols, strategy.include_dc)
    return _kde_values(cols)


def fft_select(v, strategy: FftStrategy = FftStrategy()) -> Selection:
    """Pick one client's value from a cross-client coordinate vector.

    Returns the selected value and the lowest client index holding it.
    Unanimous vectors (including length 1) select client 0's value. A
    non-finite value raises ValueError.
    """
    values = np.asarray(v, dtype=np.float64)
    if values.size == 0:
        raise EmptyVector("coordinate vector is empty")
    if not np.isfinite(values).all():
        raise ValueError("coordinate vector has non-finite values")
    picked = float(_selected_values(values[None, :], strategy)[0])
    client = int(np.nonzero(values == picked)[0][0])
    return Selection(picked, client)


def fft_aggregate(updates: Sequence[ClientUpdate], strategy: FftStrategy = FftStrategy()) -> ModelWeights:
    """Select a value for every coordinate of the model in one pass, and reassemble it."""
    validate_uniform(updates)
    cols = stack_flat([u.weights for u in updates]).T
    return updates[0].weights.with_flat(_selected_values(cols, strategy))
