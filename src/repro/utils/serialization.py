"""JSON persistence for experiment results.

Benchmark runs are expensive on the NumPy substrate; these helpers let the
harness cache loss curves and tuner traces to disk and reload them for
plotting or regression comparison.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Union

import numpy as np

from repro.utils.logging import TrainLog

PathLike = Union[str, Path]


def _to_jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    return obj


def save_train_log(log: TrainLog, path: PathLike) -> None:
    """Write a :class:`TrainLog` to JSON."""
    Path(path).write_text(json.dumps(_to_jsonable(log.state_dict())))


def load_train_log(path: PathLike) -> TrainLog:
    """Read a :class:`TrainLog` back from JSON."""
    log = TrainLog()
    log.load_state_dict(json.loads(Path(path).read_text()))
    return log


def save_results(results: dict, path: PathLike) -> None:
    """Persist an arbitrary results dict (curves, speedups, configs)."""
    Path(path).write_text(json.dumps(_to_jsonable(results), indent=2))


def load_results(path: PathLike) -> dict:
    """Read back a dict written by :func:`save_results`."""
    return json.loads(Path(path).read_text())


# --------------------------------------------------------------------- #
# lossless state encoding (checkpoints)
# --------------------------------------------------------------------- #
# Unlike _to_jsonable (which flattens everything to JSON-native types and
# is fine for plots), checkpoints must round-trip *exactly*: ndarrays keep
# their dtype and shape, tuples stay tuples (event-queue entries), and
# None survives inside containers.  JSON itself is lossless for the leaf
# types we emit — Python serializes floats with repr (shortest exact
# round trip) and ints at arbitrary precision — so tagging containers is
# all that is needed for bit-for-bit restore.  Non-finite floats (a
# diverged run logs nan/inf losses) are tagged/stringified rather than
# emitted as the RFC-8259-violating bare NaN/Infinity tokens, so the
# files stay readable by strict JSON parsers.

_NDARRAY_TAG = "__ndarray__"
_TUPLE_TAG = "__tuple__"
_FLOAT_TAG = "__float__"


def _nonfinite_repr(value: float) -> str:
    if value != value:  # NaN
        return "nan"
    return "inf" if value > 0 else "-inf"


def _finite_safe(values):
    """Replace non-finite floats in a nested tolist() result by strings
    (``numpy`` converts them back on ``np.array(..., dtype=float)``)."""
    if isinstance(values, list):
        return [_finite_safe(v) for v in values]
    if isinstance(values, float) and not np.isfinite(values):
        return _nonfinite_repr(values)
    return values


# leaves both codec directions return as they are (exact types: a NumPy
# scalar subclassing float or int is converted, so it is not one)
_PLAIN_LEAVES = frozenset((float, int, str, bool, type(None)))


def _plain(items) -> bool:
    """Whether every item is a plain leaf and every float finite, so the
    codec's output is a copy of ``items`` (one check for the container
    instead of one recursive call per item)."""
    kinds = set(map(type, items))
    if not kinds <= _PLAIN_LEAVES:
        return False
    if float not in kinds:
        return True
    floats = items if len(kinds) == 1 else [v for v in items
                                            if type(v) is float]
    # a sum of floats is finite only if every term is; one that
    # overflows sends its items down the per-item path, which is exact
    return math.isfinite(sum(floats))


def encode_state(obj):
    """Recursively encode a checkpoint state tree for JSON.

    Handles ``dict`` / ``list`` / ``tuple`` containers and ``ndarray`` /
    NumPy-scalar / ``float`` / ``int`` / ``str`` / ``bool`` / ``None``
    leaves.  Arrays are tagged with dtype and shape so
    :func:`decode_state` restores them bit-for-bit.

    Parameters
    ----------
    obj : object
        The state tree (typically a ``state_dict()`` result).

    Returns
    -------
    object
        A JSON-serializable mirror of ``obj``.
    """
    if isinstance(obj, np.ndarray):
        values = obj.tolist()
        if obj.dtype.kind == "f" and not np.isfinite(obj).all():
            values = _finite_safe(values)
        return {_NDARRAY_TAG: values, "dtype": str(obj.dtype),
                "shape": list(obj.shape)}
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return {_FLOAT_TAG: _nonfinite_repr(obj)}
    if isinstance(obj, dict):
        # dicts that already ARE well-formed tag nodes (e.g. a
        # get_rng_state result embedded in a larger tree) pass through
        # unchanged — encoding is idempotent on its own output
        if set(obj) == {_NDARRAY_TAG, "dtype", "shape"} or \
                set(obj) == {_TUPLE_TAG} or (
                set(obj) == {_FLOAT_TAG}
                and obj[_FLOAT_TAG] in ("nan", "inf", "-inf")):
            return obj
        # fail fast on trees the codec cannot round-trip: JSON would
        # silently coerce non-string keys, and a malformed tag-key
        # collision would misdecode as an array/tuple/float
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(
                    f"checkpoint dict keys must be str, got {key!r} "
                    f"({type(key).__name__}); store int-keyed maps as "
                    "lists of pairs")
            if key in (_NDARRAY_TAG, _TUPLE_TAG, _FLOAT_TAG):
                raise ValueError(
                    f"dict key {key!r} collides with a codec tag")
        return {k: encode_state(v) for k, v in obj.items()}
    if isinstance(obj, tuple):
        return {_TUPLE_TAG: list(obj) if _plain(obj)
                else [encode_state(v) for v in obj]}
    if isinstance(obj, list):
        return list(obj) if _plain(obj) else [encode_state(v) for v in obj]
    return obj


def decode_state(obj):
    """Inverse of :func:`encode_state`.

    Parameters
    ----------
    obj : object
        A tree produced by :func:`encode_state` (possibly after a JSON
        round trip).

    Returns
    -------
    object
        The original state tree: tagged arrays become ``ndarray`` with
        the recorded dtype/shape, tagged lists become tuples.
    """
    if isinstance(obj, dict):
        if _NDARRAY_TAG in obj:
            arr = np.array(obj[_NDARRAY_TAG], dtype=obj["dtype"])
            return arr.reshape([int(s) for s in obj["shape"]])
        if _TUPLE_TAG in obj:
            items = obj[_TUPLE_TAG]
            return tuple(items) if _plain(items) else tuple(
                decode_state(v) for v in items)
        if _FLOAT_TAG in obj:
            return float(obj[_FLOAT_TAG])
        return {k: decode_state(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return list(obj) if _plain(obj) else [decode_state(v) for v in obj]
    return obj


def copy_array_list(arrays) -> list:
    """Deep-copy a list of optional ndarrays (e.g. gradient slices).

    The single ingest/egress copy idiom shared by every checkpoint path
    that moves gradient buffers across an ownership boundary (event
    queue and shard queues): ``None`` entries pass through, everything
    else becomes an independent array.
    """
    return [None if a is None else np.array(a, copy=True) for a in arrays]


def save_checkpoint(state: dict, path: PathLike) -> None:
    """Write a checkpoint state tree to disk, losslessly.

    Parameters
    ----------
    state : dict
        Any state tree accepted by :func:`encode_state` (model
        ``state_dict``, optimizer state, cluster-runtime state, …).
    path : str or Path
        Destination file (strictly RFC-compliant JSON; non-finite
        floats are tagged by the codec, so ``allow_nan=False`` is a
        fail-fast guard, not a restriction).
    """
    Path(path).write_text(json.dumps(encode_state(state),
                                     allow_nan=False))


def load_checkpoint(path: PathLike) -> dict:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Returns
    -------
    dict
        The decoded state tree, bit-for-bit equal to what was saved.
    """
    return decode_state(json.loads(Path(path).read_text()))
