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
costs 15-167 ns on a lane whose result is subnormal or zero, against 0.7 ns
on its fast path, and far spread sets (random weights, a shelf of attackers
about 37 bandwidths out) put many kernel arguments there. So a row whose
values span 37 bandwidths or more goes in chunks of its own, and these
chunks, like any chunk that holds a run of equal values, raise every kernel
argument to -80 at least before its ``exp``. e^-80 < 2^-110 is a normal
float, so every lane stays on the fast path. Every score starts at 1, and
no term at or below 2^-110 can change a score bit, so the picks are exactly
those of plain ``np.exp``.

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
# range below about -708. The other ("far") rows go in chunks of their own,
# which take the guarded exp of _kernel_terms, as does any chunk with a run
# of equal values. The guard raises each argument to _FLOOR at least, and
# e^_FLOOR < 2^-115 is a normal float.
_KDE_FAR_SPAN = 37.0
_FLOOR = -80.0
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


def _kernel_terms(diff: np.ndarray, h: np.ndarray, guard: bool, stop: bool = False) -> np.ndarray | None:
    """exp(-(diff / h)^2 / 2) in place, for differences of client values.

    ``h`` holds the bandwidths and broadcasts against ``diff``. Every kde
    term is this expression, so a term has the same bits in any chunk.

    With ``guard``, each argument is first raised to _FLOOR at least by
    ``np.fmax``, which also turns a NaN or -inf argument into _FLOOR. A term
    whose argument lies above _FLOOR is then bit for bit ``np.exp``'s, and
    every other term is e^_FLOOR, a normal float below 2^-110, so no lane
    leaves exp's fast path. With ``stop`` as well, None means that every
    argument lies at or below _FLOOR.
    """
    diff /= h
    diff *= diff
    diff *= -0.5
    if guard:
        np.fmax(diff, _FLOOR, out=diff)
        if stop and diff.max() <= _FLOOR:
            return None
    return np.exp(diff, out=diff)


def _kde_picks(z: np.ndarray, h: np.ndarray, far: bool) -> np.ndarray:
    """Position, in each column of a chunk, of the value of highest density.

    ``z`` is (K, r): column c holds one coordinate's K client values in
    ascending order, and ``h[c]`` its bandwidth; ``z`` is overwritten. Value
    i scores 1 + sum_j exp(-((z_i - z_j) / h)^2 / 2) over the other first
    members j of runs of equal values, so each distinct value counts once;
    the other members of a run are not candidates. The best score wins, an
    exact tie goes to the value more clients sent, and then to the smaller
    value.

    The terms of the pairs d apart are formed once, for d = 1 .. K-1, and
    each is added to both ends. A value takes the sum of its two terms at
    offset d, left plus right, so that mirrored values get equal scores.

    ``far`` chunks, and chunks with runs, take the guarded terms of
    :func:`_kernel_terms`, whose arguments are raised to _FLOOR at least. A
    run's later members are set to NaN first, so that each of their pairs
    gives e^_FLOOR. This changes no score bit. A score starts at 1 and only
    grows, so half a unit in its last place is at least 2^-53. A floored
    term t = e^_FLOOR < 2^-110 stands where plain ``np.exp``, with the
    run's other members weighted 0, gives some t' in [0, t]. Added to a
    term u >= 2^-56, either leaves u, as both lie below half of u's last
    place; any other sum that holds t or t' lies below 2^-55, and leaves the
    score as it is. So the scores, and the picks, are bit for bit those of
    plain ``np.exp`` with run weights. On a sorted column a later offset is
    never nearer, so a ``far`` chunk without runs stops once every argument
    of an offset lies at or below _FLOOR: every later term is at most
    e^_FLOOR too. A column's scores therefore do not depend on the chunk it
    is in.
    """
    k, r = z.shape
    same = np.equal(z[1:], z[:-1], out=scratch("kde.same", (k - 1, r), bool))
    runs = same.any()
    if runs:
        np.copyto(z[1:], np.nan, where=same)
    score = scratch("kde.score", (k, r))
    score.fill(1.0)
    for d in range(1, k):
        diff = np.subtract(z[d:], z[:-d], out=scratch("kde.diff", (k - d, r)))
        terms = _kernel_terms(diff, h, far or runs, far and not runs)
        if terms is None:
            break
        # terms[i] is the pair (i, i + d): the right term of i, the left of i + d
        both = k - 2 * d
        if both > 0:
            score[d : k - d] += np.add(terms[:both], terms[d:], out=scratch("kde.both", (both, r)))
            score[k - d :] += terms[both:]
            score[:d] += terms[:d]
        else:
            score[d:] += terms
            score[: k - d] += terms
    if not runs:
        return np.argmax(score, axis=0)
    np.copyto(score[1:], 0.0, where=same)
    tied = np.equal(score, score.max(axis=0), out=scratch("kde.tied", (k, r), bool))
    # a run starting at i ends where the next run starts
    starts = np.where(same, k, np.arange(1, k)[:, None])
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
    chunks of their own, so that near chunks without runs keep plain
    ``np.exp``.
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
