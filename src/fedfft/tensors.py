"""Layered weight containers, coordinate-wise views, and the weight-dump file format.

Everything downstream (aggregators, attacks, the simulation loop) works on
:class:`ModelWeights`: an ordered list of layer tensors stored as float64
arrays. Coordinates are indexed ``(layer, i)`` where ``i`` walks the layer in
row-major (C) order, so the same index means the same scalar for every client.
All containers are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Mapping, Sequence

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


class MissingCoordinate(ValueError):
    """A reassembly map does not cover every coordinate of the template."""


class ExtraCoordinate(ValueError):
    """A reassembly map addresses a coordinate outside the template."""


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


@dataclass(frozen=True)
class CoordinateVector:
    """The cross-client values at one weight coordinate, in client order."""

    layer_index: int
    coord_index: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))


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

    Row order is the caller-supplied client order. This is the bulk view the
    aggregators use; `coordinate_views` streams the same data one column at a
    time.
    """
    validate_uniform(updates)
    return [
        np.stack([u.weights.layers[li].ravel(order="C") for u in updates])
        for li in range(len(updates[0].weights.layers))
    ]


def coordinate_views(updates: Sequence[ClientUpdate]) -> Iterator[CoordinateVector]:
    """Yield one CoordinateVector per (layer, i), layer-major then index order.

    Values follow the caller-supplied client order; nothing is sorted here.
    """
    for li, mat in enumerate(layer_matrices(updates)):
        for i in range(mat.shape[1]):
            yield CoordinateVector(layer_index=li, coord_index=i, values=mat[:, i])


def reassemble(template: ModelWeights, selected: Mapping[tuple[int, int], float]) -> ModelWeights:
    """Place per-coordinate scalars back into the template's layer structure.

    ``selected`` must map every (layer, i) coordinate of the template exactly
    once; anything missing raises MissingCoordinate, anything outside raises
    ExtraCoordinate.
    """
    sizes = [a.size for a in template.layers]
    flats = [np.full(n, np.nan) for n in sizes]
    seen = 0
    for (li, i), val in selected.items():
        if li < 0 or li >= len(sizes) or i < 0 or i >= sizes[li]:
            raise ExtraCoordinate(f"coordinate ({li}, {i}) outside template")
        flats[li][i] = val
        seen += 1
    if seen < sum(sizes) or any(np.any(np.isnan(f)) for f in flats):
        raise MissingCoordinate("selection does not cover every template coordinate")
    return ModelWeights(
        f.reshape(a.shape) for f, a in zip(flats, template.layers)
    )


def _check_same_shapes(a: ModelWeights, b: ModelWeights) -> None:
    if a.shapes != b.shapes:
        raise ShapeMismatch(f"shapes {a.shapes} vs {b.shapes}")


def l2_norm(w: ModelWeights) -> float:
    """Euclidean norm over all coordinates of all layers."""
    return float(np.sqrt(sum(float(np.sum(a * a)) for a in w.layers)))


def scale(w: ModelWeights, c: float) -> ModelWeights:
    return ModelWeights(a * c for a in w.layers)


def add(a: ModelWeights, b: ModelWeights) -> ModelWeights:
    _check_same_shapes(a, b)
    return ModelWeights(x + y for x, y in zip(a.layers, b.layers))


def sub(a: ModelWeights, b: ModelWeights) -> ModelWeights:
    _check_same_shapes(a, b)
    return ModelWeights(x - y for x, y in zip(a.layers, b.layers))


def mean_weights(weights: Sequence[ModelWeights]) -> ModelWeights:
    """Unweighted coordinate-wise mean of several weight sets."""
    if not weights:
        raise EmptyUpdateSet("no weights to average")
    for w in weights[1:]:
        _check_same_shapes(weights[0], w)
    return ModelWeights(
        np.mean([w.layers[li] for w in weights], axis=0)
        for li in range(len(weights[0].layers))
    )


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


def save_weight_dump(w: ModelWeights, fp: IO[str] | str) -> None:
    if isinstance(fp, str):
        with open(fp, "w") as fh:
            json.dump(to_dump_dict(w), fh)
    else:
        json.dump(to_dump_dict(w), fp)


def load_weight_dump(fp: IO[str] | str) -> ModelWeights:
    try:
        if isinstance(fp, str):
            with open(fp) as fh:
                doc = json.load(fh)
        else:
            doc = json.load(fp)
    except json.JSONDecodeError as exc:
        raise BadWeightDump(f"not valid JSON: {exc}") from exc
    return from_dump_dict(doc)
