"""Layered weight containers, a per-layer client matrix, per-thread scratch
memory, the power-of-two scaling of a sample to unit magnitude, pairwise
squared distances (exact, and certified bounds from one Gram product), and
the weight-dump file format.

Everything downstream (aggregators, attacks, the simulation loop) works on
:class:`ModelWeights`: one read-only float64 buffer per model, with its layer
tensors as views of it. Coordinates are indexed ``(layer, i)`` where ``i``
walks the layer in row-major (C) order, and the buffer holds the layers in
order, so the same index means the same scalar for every client.
All containers are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

DUMP_VERSION = 1


class EmptyUpdateSet(ValueError):
    """Raised when an aggregation routine receives no client updates."""


class ShapeMismatch(ValueError):
    """Layer shapes disagree between clients (or between dump files)."""


class BadWeightDump(ValueError):
    """A weight-dump document is malformed or has an unsupported version."""


@functools.lru_cache(maxsize=64)
def layer_slices(shapes: tuple[tuple[int, ...], ...]) -> tuple[slice, ...]:
    """Where each layer of these shapes lies in a model's flat buffer."""
    ends = list(itertools.accumulate(math.prod(s) for s in shapes))
    return tuple(slice(end - math.prod(s), end) for s, end in zip(shapes, ends))


def _check_finite(rows: np.ndarray, shapes: tuple[tuple[int, ...], ...]) -> None:
    """Raise ValueError naming the first layer (and row, of several) holding a
    non-finite value; one pass over ``rows`` when all are finite."""
    if np.isfinite(rows).all():
        return
    for k, row in enumerate(rows):
        for li, part in enumerate(layer_slices(shapes)):
            if not np.isfinite(row[part]).all():
                where = f"row {k} " if len(rows) > 1 else ""
                raise ValueError(f"{where}layer {li} contains non-finite values")


@dataclass(frozen=True)
class ModelWeights:
    """Ordered list of layer tensors; float64, finite, read-only, at least one.

    The layers are reshaped views of one read-only (P,) buffer, which
    :meth:`flat` returns without a copy; ``shapes`` and ``num_params`` are
    fixed when the model is built.
    """

    layers: tuple[np.ndarray, ...]

    def __init__(self, layers: Iterable[np.ndarray]):
        arrays = [np.asarray(a, dtype=np.float64) for a in layers]
        if not arrays:
            raise ValueError("a model needs at least one layer")
        for li, a in enumerate(arrays):
            if a.size == 0:
                raise ValueError(f"layer {li} is empty")
        flat = np.concatenate([a.ravel() for a in arrays])
        shapes = tuple(a.shape for a in arrays)
        _check_finite(flat[None], shapes)
        self._adopt(flat, shapes)

    def _adopt(self, flat: np.ndarray, shapes: tuple[tuple[int, ...], ...]) -> ModelWeights:
        flat.setflags(write=False)
        flat = flat.view()  # a view of a read-only base cannot be made writeable again
        object.__setattr__(self, "_flat", flat)
        object.__setattr__(self, "shapes", shapes)
        object.__setattr__(self, "num_params", flat.size)
        layers = tuple(flat[part].reshape(s) for part, s in zip(layer_slices(shapes), shapes))
        object.__setattr__(self, "layers", layers)
        return self

    @classmethod
    def from_rows(cls, rows: np.ndarray, shapes: tuple[tuple[int, ...], ...]) -> list[ModelWeights]:
        """The models whose buffers are the rows of a (K, P) float64 matrix,
        with no copy; the matrix becomes read-only. Raises ValueError naming
        the first row and layer with a non-finite value."""
        _check_finite(rows, shapes)
        rows.setflags(write=False)
        return [cls.__new__(cls)._adopt(row, shapes) for row in rows]

    def flat(self) -> np.ndarray:
        """All coordinates as one read-only 1-D array, layers concatenated in
        order: the model's own buffer, so copy it before writing."""
        return self._flat

    def with_flat(self, flat: np.ndarray) -> "ModelWeights":
        """New ModelWeights with this object's shapes and a copy of the given flat values."""
        flat = np.array(flat, dtype=np.float64)
        flat.setflags(write=False)  # the copy is the base of the model's views
        flat = flat.reshape(-1)
        if flat.size != self.num_params:
            raise ShapeMismatch(
                f"flat vector has {flat.size} values, template has {self.num_params}"
            )
        return ModelWeights.from_rows(flat[None], self.shapes)[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModelWeights):
            return NotImplemented
        return self.shapes == other.shapes and np.array_equal(self._flat, other._flat)


@dataclass(frozen=True)
class ClientUpdate:
    """One client's submitted weights plus its local dataset size."""

    client_id: int
    weights: ModelWeights
    dataset_size: int

    def __post_init__(self):
        if self.client_id < 0:
            raise ValueError("client_id must be non-negative")
        if self.dataset_size < 1:
            raise ValueError("dataset_size must be >= 1")


def validate_uniform(updates: Sequence[ClientUpdate]) -> None:
    """Check that all updates share one layer structure.

    Raises
    ------
    EmptyUpdateSet
        If ``updates`` is empty.
    ShapeMismatch
        On the first client/layer whose shape disagrees with the first update.
    """
    if len(updates) == 0:
        raise EmptyUpdateSet("no client updates")
    check_layer_shapes([u.weights for u in updates], lambda i: f"client {updates[i].client_id}")


def check_layer_shapes(weights: Sequence[ModelWeights], name: Callable[[int], str]) -> None:
    """Raise ShapeMismatch on the first model, and its first layer, whose
    layer structure disagrees with ``weights[0]``'s; ``name(i)`` names model i."""
    ref = weights[0].shapes
    for i, w in enumerate(weights):
        shapes = w.shapes
        if shapes == ref:
            continue
        if len(shapes) != len(ref):
            raise ShapeMismatch(f"{name(i)} has {len(shapes)} layers, expected {len(ref)}")
        li = next(li for li, (got, want) in enumerate(zip(shapes, ref)) if got != want)
        raise ShapeMismatch(f"{name(i)} layer {li} has shape {shapes[li]}, expected {ref[li]}")


_scratch = threading.local()


def scratch(name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """An uninitialised C-contiguous array of ``shape`` in this thread's buffer ``name``.

    Each thread keeps one flat buffer per name. A buffer grows to the largest
    request made of it and is never freed, so a pass that asks for the same
    temporaries on every call allocates (and page-faults fresh memory) only
    while its requests still grow. The array is a view of the buffer, so its
    contents are the caller's only until the same thread asks for ``name``
    again.
    """
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    buffers = _scratch.__dict__
    buf = buffers.get(name)
    if buf is None or buf.size < nbytes:
        buf = buffers[name] = np.empty(nbytes, dtype=np.uint8)
    return buf[:nbytes].view(dtype).reshape(shape)


def stack_flat(weights: Sequence[ModelWeights]) -> np.ndarray:
    """(K, P) matrix whose row k is ``weights[k].flat()``, in this thread's scratch.

    Like any :func:`scratch` array, the matrix is the caller's only until the
    same thread calls this function again.
    """
    rows = scratch("tensors.stack_flat", (len(weights), weights[0].num_params))
    return np.stack([w.flat() for w in weights], out=rows)


def layer_matrices(updates: Sequence[ClientUpdate]) -> list[np.ndarray]:
    """Per layer, a (K, n_layer) matrix of all clients' flattened values.

    Row order is the caller-supplied client order; column i of layer li holds
    every client's value at coordinate ``(layer, i)``. The matrices are
    column views of the :func:`stack_flat` stack, so they too are the
    caller's only until the same thread stacks again.
    """
    validate_uniform(updates)
    rows = stack_flat([u.weights for u in updates])
    return [rows[:, part] for part in layer_slices(updates[0].weights.shapes)]


# unit_scale's 2^-e keeps |e| at most this, so that 2^-e is a normal float
_SCALE_EXPONENT = 1021


def unit_scale(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """2^-e, e the binary exponent of max(-low, high): multiplying a sample of
    these extremes by it brings the sample near unit magnitude, exactly for
    values that stay in the normal range."""
    _, e = np.frexp(np.maximum(-low, high))
    # minimum and maximum, as np.clip costs several times more here
    return np.ldexp(1.0, -np.minimum(np.maximum(e, -_SCALE_EXPONENT), _SCALE_EXPONENT))


# Rows per difference chunk of the exact distances: the difference buffer
# holds this many rows, not K.
_DIFF_ROWS = 8


def pairwise_sq_distances(rows: np.ndarray, which: Sequence[int] | None = None) -> np.ndarray:
    """(K, K) squared Euclidean distances between the rows of a (K, P) matrix.

    Fills the rows listed in ``which`` and their columns, leaving the other
    entries 0, or every entry when ``which`` is None or lists more than
    (K-1)/2 rows, as the upper triangle then costs no more. Exact differences
    (:func:`_sq_distance_row`), so memory is O(P) beyond the result rather
    than the O(K^2 * P) of a broadcast difference tensor. Each filled entry
    equals that tensor's ``einsum("ijk,ijk->ij")`` bit for bit; the result
    is exactly symmetric with a zero diagonal.
    """
    K = rows.shape[0]
    d2 = np.zeros((K, K))
    if which is None or len(which) > (K - 1) / 2:
        for k in range(K - 1):
            d2[k, k:] = _sq_distance_row(rows[k:], 0)
            d2[k:, k] = d2[k, k:]
    else:
        for k in which:
            d2[k] = _sq_distance_row(rows, k)
            d2[:, k] = d2[k]
    return d2


def _sq_distance_row(rows: np.ndarray, k: int) -> np.ndarray:
    """Squared distances of every row to row ``k``, at O(K * P) cost.

    The difference of every row against row ``k``, _DIFF_ROWS rows at a time
    in one reused scratch buffer; x - y and y - x square to the same value.
    A last chunk of one row starts a row early: numpy sums a lone row of
    more than 8192 values in one pass, but operands of several rows, like
    the broadcast tensor, in buffered chunks of 8192, and the two orders
    round differently.
    """
    K = rows.shape[0]
    out = np.empty(K)
    buf = scratch("tensors.diff", (min(K, _DIFF_ROWS), rows.shape[1]))
    for start in range(0, K, _DIFF_ROWS):
        start = max(0, min(start, K - 2))
        stop = min(start + _DIFF_ROWS, K)
        diff = np.subtract(rows[start:stop], rows[k], out=buf[: stop - start])
        out[start:stop] = np.einsum("ij,ij->i", diff, diff)
    return out


_ROUNDOFF = 2.0**-53
_TINY = 2.0**-1074  # the smallest subnormal: an underflowing product's error


def sq_distance_bounds(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Certified (lo, hi) around every entry of :func:`pairwise_sq_distances`.

    Both are (K, K) with a zero diagonal, and ``lo <= d2 <= hi`` holds for
    the exact path's d2 as computed, entry by entry. They come from one Gram
    product G = rows @ rows.T as ||x||^2 + ||y||^2 - 2 x.y, so they cost one
    BLAS call instead of K(K-1)/2 differences. An entry whose upper bound is
    non-finite or within a factor 2 of overflow (values near +-1.7e308, or a
    row whose squared norm overflows), where the margin below no longer
    holds, gets the bounds (0, inf), which certify nothing.

    The margin. Let u = 2^-53, gamma_m = m u / (1 - m u), eta = 2^-1074, and
    S = ||x||^2 + ||y||^2 for rows x, y of length P. A length-P dot product
    errs by at most gamma_P sum|x_l y_l| + P eta in any summation order, with
    or without fused multiply-adds (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, eq. 3.5; eta covers underflowing products),
    and sum|x_l y_l| <= S / 2. So the estimate fl(G_xx + G_yy - 2 G_xy), with
    its own two roundings, lies within 4 gamma_{P+2} S + 4P eta of ||x - y||^2.
    The exact path rounds a difference, a square and a sum of P nonnegative
    terms, so it lies within gamma_{P+2} ||x - y||^2 + P eta <= 2 gamma_{P+2} S
    + P eta of it too. The margin 8 gamma_{P+2} S' + 8(P + 2) eta, with
    S' = G_xx + G_yy as computed, covers both, and since gamma_{P+2} >= 3u,
    also S' for S and the few roundings of order u S in forming the margin
    and est -/+ margin. ``lo`` is clipped at zero.
    """
    K, P = rows.shape
    m = P + 2
    gamma = m * _ROUNDOFF / (1.0 - m * _ROUNDOFF)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = rows @ rows.T
        sq = gram.diagonal()
        norms = sq[:, None] + sq[None, :]
        est = norms - 2.0 * gram
        margin = 8.0 * gamma * norms + 8.0 * m * _TINY
        hi = est + margin
        lo = np.maximum(est - margin, 0.0)
        failed = ~(hi < 2.0**1023)  # also true for nan
    lo[failed] = 0.0
    hi[failed] = np.inf
    np.fill_diagonal(lo, 0.0)
    np.fill_diagonal(hi, 0.0)
    return lo, hi


# ---------------------------------------------------------------------------
# Weight-dump file format: {"version": 1, "layers": [{"shape": [...], "data": [...]}]}
# ---------------------------------------------------------------------------

def to_dump_dict(w: ModelWeights) -> dict:
    return {
        "version": DUMP_VERSION,
        "layers": [
            {"shape": list(a.shape), "data": a.ravel(order="C").tolist()}
            for a in w.layers
        ],
    }


def from_dump_dict(doc: dict) -> ModelWeights:
    """The weights of a dump document, typed as strictly as a config: a
    shape's extents are JSON integers >= 1, the version is the integer 1, and
    a layer's data is a flat list of JSON numbers. Every error names the layer."""
    if not isinstance(doc, dict):
        raise BadWeightDump("dump document must be a JSON object")
    version = doc.get("version")
    if type(version) is not int or version != DUMP_VERSION:
        raise BadWeightDump(f"unsupported dump version {version!r}")
    layers_doc = doc.get("layers")
    if not isinstance(layers_doc, list) or not layers_doc:
        raise BadWeightDump("dump must contain a non-empty 'layers' list")
    layers = []
    for li, entry in enumerate(layers_doc):
        if not isinstance(entry, dict) or not {"shape", "data"} <= entry.keys():
            raise BadWeightDump(f"layer {li} must be an object with 'shape' and 'data'")
        shape, data = entry["shape"], entry["data"]
        if not isinstance(shape, list) or any(type(d) is not int for d in shape):
            raise BadWeightDump(f"layer {li} shape must be a list of integers, not {shape!r}")
        if any(d < 1 for d in shape):
            raise BadWeightDump(f"layer {li} has non-positive extent in shape {shape}")
        if not isinstance(data, list) or any(type(v) not in (int, float) for v in data):
            raise BadWeightDump(f"layer {li} data must be a list of numbers")
        # Python ints: an int64 product of large extents would wrap
        if len(data) != math.prod(shape):
            raise BadWeightDump(f"layer {li} has {len(data)} values for shape {shape}")
        try:
            values = np.array(data, dtype=np.float64)
            finite = np.all(np.isfinite(values))
        except OverflowError:  # an integer beyond the largest float
            finite = False
        if not finite:
            raise BadWeightDump(f"layer {li} contains non-finite values")
        layers.append(values.reshape(shape))
    return ModelWeights(layers)


def save_weight_dump(w: ModelWeights, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(to_dump_dict(w), fh)


def load_weight_dump(path: str) -> ModelWeights:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise BadWeightDump(f"not valid JSON: {exc}") from exc
    return from_dump_dict(doc)
