"""Layered weight containers, a per-layer client matrix, per-thread scratch
memory, pairwise squared distances (exact, and certified bounds from one Gram
product), and the weight-dump file format.

Everything downstream (aggregators, attacks, the simulation loop) works on
:class:`ModelWeights`: an ordered list of layer tensors stored as float64
arrays. Coordinates are indexed ``(layer, i)`` where ``i`` walks the layer in
row-major (C) order, so the same index means the same scalar for every client.
All containers are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

DUMP_VERSION = 1


class EmptyUpdateSet(ValueError):
    """Raised when an aggregation routine receives no client updates."""


class ShapeMismatch(ValueError):
    """Layer shapes disagree between clients (or between dump files)."""

    def __init__(self, message: str, client_id: int | None = None, layer_index: int | None = None):
        super().__init__(message)
        self.client_id = client_id
        self.layer_index = layer_index


class BadWeightDump(ValueError):
    """A weight-dump document is malformed or has an unsupported version."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ModelWeights:
    """Ordered list of layer tensors; float64, finite, read-only."""

    layers: tuple[np.ndarray, ...]

    def __init__(self, layers: Iterable[np.ndarray]):
        frozen = tuple(_freeze(a) for a in layers)
        for li, a in enumerate(frozen):
            if a.size == 0:
                raise ValueError(f"layer {li} is empty")
            if not np.all(np.isfinite(a)):
                raise ValueError(f"layer {li} contains non-finite values")
        object.__setattr__(self, "layers", frozen)

    @property
    def shapes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(a.shape for a in self.layers)

    @property
    def num_params(self) -> int:
        return sum(a.size for a in self.layers)

    def flat(self) -> np.ndarray:
        """All coordinates as one 1-D array, layers concatenated in order."""
        return np.concatenate([a.ravel(order="C") for a in self.layers])

    def with_flat(self, flat: np.ndarray) -> "ModelWeights":
        """New ModelWeights with this object's shapes and the given flat values."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != self.num_params:
            raise ShapeMismatch(
                f"flat vector has {flat.size} values, template has {self.num_params}"
            )
        out, ofs = [], 0
        for a in self.layers:
            out.append(flat[ofs : ofs + a.size].reshape(a.shape))
            ofs += a.size
        return ModelWeights(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModelWeights):
            return NotImplemented
        return self.shapes == other.shapes and all(
            np.array_equal(a, b) for a, b in zip(self.layers, other.layers)
        )


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
    ref = updates[0].weights.shapes
    for u in updates[1:]:
        shapes = u.weights.shapes
        if len(shapes) != len(ref):
            raise ShapeMismatch(
                f"client {u.client_id} has {len(shapes)} layers, expected {len(ref)}",
                client_id=u.client_id,
            )
        for li, (got, want) in enumerate(zip(shapes, ref)):
            if got != want:
                raise ShapeMismatch(
                    f"client {u.client_id} layer {li} has shape {got}, expected {want}",
                    client_id=u.client_id,
                    layer_index=li,
                )


def layer_matrices(updates: Sequence[ClientUpdate]) -> list[np.ndarray]:
    """Per layer, a (K, n_layer) matrix of all clients' flattened values.

    Row order is the caller-supplied client order; column i of layer li holds
    every client's value at coordinate ``(layer, i)``.
    """
    validate_uniform(updates)
    return [
        np.stack([u.weights.layers[li].ravel(order="C") for u in updates])
        for li in range(len(updates[0].weights.layers))
    ]


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

    The rows are written straight from each model's layers, with no per-model
    flat copy. Like any :func:`scratch` array, the matrix is the caller's only
    until the same thread calls this function again.
    """
    rows = scratch("tensors.stack_flat", (len(weights), weights[0].num_params))
    for row, w in zip(rows, weights):
        np.concatenate([a.ravel() for a in w.layers], out=row)
    return rows


# Rows per difference chunk of the exact distances: the difference buffer
# holds this many rows, not K.
_DIFF_ROWS = 8


def pairwise_sq_distances(rows: np.ndarray) -> np.ndarray:
    """(K, K) squared Euclidean distances between the rows of a (K, P) matrix.

    Exact differences, one row against itself and the rows after it (see
    :func:`sq_distance_row`), so memory is O(P) beyond the result rather
    than the O(K^2 * P) of a broadcast difference tensor. Each entry equals
    that tensor's ``einsum("ijk,ijk->ij")`` bit for bit; the result is
    exactly symmetric with a zero diagonal.
    """
    K = rows.shape[0]
    d2 = np.zeros((K, K))
    for k in range(K - 1):
        d2[k, k:] = sq_distance_row(rows[k:], 0)
        d2[k:, k] = d2[k, k:]
    return d2


def sq_distance_row(rows: np.ndarray, k: int) -> np.ndarray:
    """Row ``k`` of :func:`pairwise_sq_distances`, bit for bit, at O(K * P) cost.

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


def sq_distance_bounds(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Certified (lo, hi) around every entry of :func:`pairwise_sq_distances`.

    Both are (K, K) with a zero diagonal, and ``lo <= d2 <= hi`` holds for
    the exact path's d2 as computed, entry by entry. They come from one Gram
    product G = rows @ rows.T as ||x||^2 + ||y||^2 - 2 x.y, so they cost one
    BLAS call instead of K(K-1)/2 differences. Returns None when any bound is
    non-finite or within a factor 2 of overflow (values near +-1.7e308),
    where the margin below no longer holds.

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
        if not np.all(hi < 2.0**1023):  # also false for nan
            return None
        lo = np.maximum(est - margin, 0.0)
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
    if not isinstance(doc, dict):
        raise BadWeightDump("dump document must be a JSON object")
    version = doc.get("version")
    if version != DUMP_VERSION:
        raise BadWeightDump(f"unsupported dump version {version!r}")
    layers_doc = doc.get("layers")
    if not isinstance(layers_doc, list) or not layers_doc:
        raise BadWeightDump("dump must contain a non-empty 'layers' list")
    layers = []
    for li, entry in enumerate(layers_doc):
        try:
            shape = tuple(int(d) for d in entry["shape"])
            data = np.asarray(entry["data"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise BadWeightDump(f"layer {li} is malformed: {exc}") from exc
        if not np.all(np.isfinite(data)):
            raise BadWeightDump(f"layer {li} contains non-finite values")
        if any(d < 1 for d in shape):
            raise BadWeightDump(f"layer {li} has non-positive extent in shape {shape}")
        if data.size != int(np.prod(shape)):
            raise BadWeightDump(
                f"layer {li} has {data.size} values for shape {shape}"
            )
        layers.append(data.reshape(shape))
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
