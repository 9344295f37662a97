"""Property-based tests for the state codec and the replicate store.

Seeded random generation (no external property-testing dependency)
drives many-shaped inputs through the invariants:

- ``encode_state``/``decode_state`` round-trip arbitrary nested state
  trees — random shapes, dtypes, non-finite floats, tuples, None — bit
  for bit, through a strict (``allow_nan=False``) JSON wire, and give
  the same output, type for type and JSON byte for byte, as the
  per-item recursive codec kept here as the reference (the codec copies
  a list of plain leaves whole).
- ``ScenarioSpec.canonical_json`` gives the bytes of the ``asdict``
  construction it replaced, for the example scenario files, the
  ``serve_mixed`` benchmark's specs and random specs.
- ``ModelReplicateAdapter`` packs R models' parameters, values
  unchanged, so each model's tensors are views of its row of the
  ``(R, N)`` buffer; it handles zero-size parameters, missing
  gradients and rebound ``p.data``, and refuses seeds whose models
  differ in shape.
- ``ShardedParameterServer.state_dict`` survives the codec for random
  shard counts and queue contents.
"""

import dataclasses
import importlib.util
import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.fleet.workloads import ModelReplicateAdapter
from repro.nn.module import Module, Parameter
from repro.registry import registry
from repro.utils.serialization import decode_state, encode_state
from repro.xp.spec import XP_FORMAT_VERSION, ScenarioSpec, load_scenarios

ROOT = Path(__file__).resolve().parents[1]
TRIALS = 25


def random_array(rng):
    dtype = rng.choice(["float64", "float32", "int64", "int32", "bool"])
    ndim = int(rng.integers(0, 4))
    shape = tuple(int(rng.integers(0, 5)) for _ in range(ndim))
    if dtype == "bool":
        return rng.integers(0, 2, size=shape).astype(bool)
    if dtype.startswith("int"):
        return rng.integers(-1000, 1000, size=shape).astype(dtype)
    arr = rng.normal(size=shape).astype(dtype)
    if dtype == "float64" and arr.size and rng.random() < 0.3:
        flat = arr.reshape(-1)
        flat[int(rng.integers(flat.size))] = rng.choice(
            [np.nan, np.inf, -np.inf])
    return arr


def random_leaf(rng):
    kind = rng.choice(["array", "float", "nonfinite", "int", "str",
                       "bool", "none"])
    if kind == "array":
        return random_array(rng)
    if kind == "float":
        return float(rng.normal() * 10 ** int(rng.integers(-8, 9)))
    if kind == "nonfinite":
        return float(rng.choice([np.nan, np.inf, -np.inf]))
    if kind == "int":
        return int(rng.integers(-2 ** 62, 2 ** 62))
    if kind == "str":
        return "".join(rng.choice(list("abc é☃"))
                       for _ in range(int(rng.integers(0, 8))))
    if kind == "bool":
        return bool(rng.integers(0, 2))
    return None


def random_tree(rng, depth=0):
    if depth >= 3 or rng.random() < 0.4:
        return random_leaf(rng)
    kind = rng.choice(["dict", "list", "tuple"])
    n = int(rng.integers(0, 4))
    if kind == "dict":
        return {f"k{i}_{int(rng.integers(100))}": random_tree(rng,
                                                              depth + 1)
                for i in range(n)}
    children = [random_tree(rng, depth + 1) for _ in range(n)]
    return tuple(children) if kind == "tuple" else children


def assert_tree_equal(a, b, path="$"):
    __tracebackhide__ = True
    assert type(a) is type(b), (path, type(a), type(b))
    if isinstance(a, dict):
        assert set(a) == set(b), path
        for k in a:
            assert_tree_equal(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_tree_equal(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype, path
        assert a.shape == b.shape, path
        if a.dtype.kind == "f":
            assert np.array_equal(a, b, equal_nan=True), path
        else:
            assert np.array_equal(a, b), path
    elif isinstance(a, float) and a != a:
        assert b != b, path
    else:
        assert a == b, path


class TestCodecRoundTrip:
    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_random_state_trees_round_trip(self, trial):
        rng = np.random.default_rng(1000 + trial)
        tree = {"root": random_tree(rng), "extra": random_tree(rng)}
        wire = json.dumps(encode_state(tree), allow_nan=False)
        assert_tree_equal(decode_state(json.loads(wire)), tree)

    @pytest.mark.parametrize("trial", range(10))
    def test_encoding_idempotent(self, trial):
        rng = np.random.default_rng(2000 + trial)
        tree = {"root": random_tree(rng)}
        once = encode_state(tree)
        assert_tree_equal(decode_state(encode_state(once)),
                          decode_state(once))

    def test_zero_size_arrays_keep_dtype_and_shape(self):
        for shape in ((0,), (3, 0), (0, 4, 2)):
            arr = np.empty(shape, dtype=np.float32)
            out = decode_state(json.loads(json.dumps(encode_state(arr))))
            assert out.shape == shape and out.dtype == np.float32


# ------------------------------------------------------------------ #
# the per-item recursive codec, as the reference
# ------------------------------------------------------------------ #
def reference_nonfinite(value):
    if value != value:
        return "nan"
    return "inf" if value > 0 else "-inf"


def reference_finite_safe(values):
    if isinstance(values, list):
        return [reference_finite_safe(v) for v in values]
    if isinstance(values, float) and not np.isfinite(values):
        return reference_nonfinite(values)
    return values


def reference_encode(obj):
    """``encode_state`` with one recursive call per item."""
    if isinstance(obj, np.ndarray):
        values = obj.tolist()
        if obj.dtype.kind == "f" and not np.isfinite(obj).all():
            values = reference_finite_safe(values)
        return {"__ndarray__": values, "dtype": str(obj.dtype),
                "shape": list(obj.shape)}
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return {"__float__": reference_nonfinite(obj)}
    if isinstance(obj, dict):
        if set(obj) == {"__ndarray__", "dtype", "shape"} or \
                set(obj) == {"__tuple__"} or (
                set(obj) == {"__float__"}
                and obj["__float__"] in ("nan", "inf", "-inf")):
            return obj
        return {k: reference_encode(v) for k, v in obj.items()}
    if isinstance(obj, tuple):
        return {"__tuple__": [reference_encode(v) for v in obj]}
    if isinstance(obj, list):
        return [reference_encode(v) for v in obj]
    return obj


def reference_decode(obj):
    """``decode_state`` with one recursive call per item."""
    if isinstance(obj, dict):
        if "__ndarray__" in obj:
            arr = np.array(obj["__ndarray__"], dtype=obj["dtype"])
            return arr.reshape([int(s) for s in obj["shape"]])
        if "__tuple__" in obj:
            return tuple(reference_decode(v) for v in obj["__tuple__"])
        if "__float__" in obj:
            return float(obj["__float__"])
        return {k: reference_decode(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [reference_decode(v) for v in obj]
    return obj


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                  1.7976931348623157e308, -1e308, np.nan, np.inf, -np.inf]


def codec_leaf(rng):
    """A leaf of any type the codec takes, plain or not."""
    kind = rng.choice(["plain", "special", "bigint", "numpy", "array"])
    if kind == "plain":
        return plain_leaf(rng)
    special = float(SPECIAL_FLOATS[int(rng.integers(len(SPECIAL_FLOATS)))])
    if kind == "special":
        return special
    if kind == "bigint":
        return int(rng.integers(1, 10)) * 10 ** 400
    if kind == "numpy":
        return rng.choice([np.float64(special), np.float32(rng.normal()),
                           np.int64(rng.integers(-9, 9)), np.int32(3),
                           np.bool_(rng.integers(0, 2))])
    return random_array(rng)


def plain_leaf(rng):
    """A leaf the codec copies as it is: finite floats, -0.0 and
    subnormals, ints, strs, bools and None."""
    kind = rng.choice(["float", "zero", "subnormal", "int", "str", "bool",
                       "none"])
    if kind == "float":
        return float(rng.normal() * 10.0 ** int(rng.integers(-300, 300)))
    if kind == "zero":
        return float(rng.choice([0.0, -0.0]))
    if kind == "subnormal":
        return float(rng.choice([5e-324, -5e-324, 1e-310]))
    if kind == "int":
        return int(rng.integers(-2 ** 62, 2 ** 62))
    if kind == "str":
        return "".join(rng.choice(list("ab é☃"))
                       for _ in range(int(rng.integers(0, 5))))
    if kind == "bool":
        return bool(rng.integers(0, 2))
    return None


def codec_tree(rng, depth=0):
    """Nested dicts, lists and tuples; most lists hold plain leaves only
    (some all floats, some overflowing a float sum), the rest one leaf
    or container of any kind among them."""
    if depth >= 3 or rng.random() < 0.3:
        return codec_leaf(rng)
    kind = rng.choice(["dict", "list", "plain", "floats", "tuple"])
    n = int(rng.integers(0, 6))
    if kind == "dict":
        return {f"k{i}": codec_tree(rng, depth + 1) for i in range(n)}
    if kind == "floats":
        items = [float(rng.normal() * 10.0 ** int(rng.integers(-5, 5)))
                 for _ in range(n)]
        if rng.random() < 0.3:
            items += [1.5e308, 1.5e308]     # finite, but their sum is not
        return items
    items = [plain_leaf(rng) for _ in range(n)]
    if kind != "plain" and rng.random() < 0.7:
        items.insert(int(rng.integers(0, n + 1)),
                     codec_tree(rng, depth + 1))
    return tuple(items) if kind == "tuple" else items


def assert_same(a, b, path="$"):
    """Equal type for type; floats and arrays equal by their bytes."""
    __tracebackhide__ = True
    assert type(a) is type(b), (path, type(a), type(b))
    if isinstance(a, dict):
        assert list(a) == list(b), path
        for k in a:
            assert_same(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), path
        assert a.tobytes() == b.tobytes(), path
    elif isinstance(a, float):
        assert struct.pack("<d", a) == struct.pack("<d", b), (path, a, b)
    else:
        assert a == b, path


def containers(tree, found=None):
    """The ids of every list and dict in a tree."""
    found = set() if found is None else found
    if isinstance(tree, (list, dict)):
        found.add(id(tree))
    if isinstance(tree, dict):
        tree = list(tree.values())
    if isinstance(tree, (list, tuple)):
        for item in tree:
            containers(item, found)
    return found


class TestCodecMatchesTheRecursiveReference:
    @pytest.mark.parametrize("trial", range(40))
    def test_encode_and_decode_match_by_type_and_bytes(self, trial):
        rng = np.random.default_rng(7000 + trial)
        tree = {"root": codec_tree(rng), "series": codec_tree(rng, 2)}
        encoded = encode_state(tree)
        expected = reference_encode(tree)
        assert_same(encoded, expected)
        wire = json.dumps(encoded, sort_keys=True, allow_nan=False)
        assert wire == json.dumps(expected, sort_keys=True,
                                  allow_nan=False)
        # every container is a copy, as the per-item codec made them
        assert not containers(encoded) & containers(tree)
        assert_same(decode_state(json.loads(wire)),
                    reference_decode(json.loads(wire)))
        decoded = decode_state(encoded)
        assert_same(decoded, reference_decode(encoded))
        assert not containers(decoded) & containers(encoded)

    @pytest.mark.parametrize("trial", range(10))
    def test_decode_of_unencoded_trees_matches(self, trial):
        # decode_state passes leaves it does not know through, NaN
        # floats (a lenient JSON parser's) and NumPy scalars included
        rng = np.random.default_rng(8000 + trial)
        tree = {"root": codec_tree(rng), "nan": [1.0, float("nan")]}
        assert_same(decode_state(tree), reference_decode(tree))

    def test_plain_lists_copy_whole_and_others_do_not(self):
        plain = [1.5, -0.0, 5e-324, 3, True, None, "x"]
        assert encode_state(plain) == plain
        assert encode_state(plain) is not plain
        assert encode_state((1.0, 2)) == {"__tuple__": [1.0, 2]}
        assert decode_state({"__tuple__": [1.0, 2]}) == (1.0, 2)
        # a non-finite float, a NumPy scalar or a nested list in the
        # list: the per-item path, which tags or converts it
        assert encode_state([1.0, float("inf")]) == [
            1.0, {"__float__": "inf"}]
        assert type(encode_state([np.float64(2.0)])[0]) is float
        assert encode_state([1e308, 1e308, [2.0]]) == [1e308, 1e308, [2.0]]


# ------------------------------------------------------------------ #
# ScenarioSpec.canonical_json against the asdict construction
# ------------------------------------------------------------------ #
def reference_canonical_json(spec):
    """``canonical_json`` built from ``dataclasses.asdict`` and the
    recursive codec."""
    data = dataclasses.asdict(spec)
    data["record_series"] = list(spec.record_series)
    if data.get("replicates") == 1:
        del data["replicates"]
    if not data.get("fleet"):
        data.pop("fleet", None)
    payload = {"xp_format": XP_FORMAT_VERSION,
               "spec": reference_encode(data)}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def serve_mixed_specs():
    """The ``serve_mixed`` benchmark's specs (``perfbench/serve_mixed.py``
    imported without running anything)."""
    sys.path.insert(0, str(ROOT / "perfbench"))  # for its common import
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_serve_mixed", ROOT / "perfbench" / "serve_mixed.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look it up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return [module.spec_for(run_seed, phase, tenant, k)
            for run_seed in (1, 2) for phase in ("warmup", "timed")
            for tenant in (0, 1) for k in range(4)]


def random_params(rng, depth=0):
    """Factory keyword arguments: scalars, lists, tuples, nested dicts."""
    params = {}
    for i in range(int(rng.integers(0, 4))):
        kind = rng.choice(["float", "int", "str", "list", "tuple", "dict",
                           "none", "bool"])
        if kind == "float":
            value = float(rng.choice([rng.normal(), -0.0, 5e-324, np.inf]))
        elif kind == "int":
            value = int(rng.integers(-100, 100))
        elif kind == "str":
            value = str(rng.choice(["a", "b", "é"]))
        elif kind == "list":
            value = [plain_leaf(rng) for _ in range(int(rng.integers(0, 4)))]
        elif kind == "tuple":
            value = tuple(plain_leaf(rng)
                          for _ in range(int(rng.integers(0, 4))))
        elif kind == "dict" and depth < 2:
            value = random_params(rng, depth + 1)
        elif kind == "bool":
            value = bool(rng.integers(0, 2))
        else:
            value = None
        params[f"p{i}"] = value
    return params


def random_spec(rng, trial):
    fleet = {} if trial % 2 else {
        "classes": {"fast": {"count": 2, "delay": {"kind": "constant",
                                                   "delay": 1.0}}},
        "groups": (("fast", 0.5),)}
    return ScenarioSpec(
        name=f"random/{trial}",
        workload=str(rng.choice(["quadratic_bowl", "toy_classifier"])),
        workload_params=random_params(rng),
        optimizer=str(rng.choice(["momentum_sgd", "yellowfin"])),
        optimizer_params=random_params(rng),
        delay={"kind": "uniform", "low": 0.5, "high": 1.5,
               **random_params(rng)},
        faults=random_params(rng),
        workers=int(rng.integers(1, 9)),
        reads=int(rng.integers(0, 500)),
        updates=None if rng.random() < 0.5 else int(rng.integers(0, 50)),
        seed=None if rng.random() < 0.3 else int(rng.integers(0, 2 ** 31)),
        record_series=tuple(rng.choice(["loss", "staleness", "lr"],
                                       size=int(rng.integers(0, 3)))),
        replicates=(1, 3)[trial % 4 // 2],
        fleet=fleet)


class TestCanonicalJsonMatchesTheAsdictReference:
    @pytest.mark.parametrize("path", sorted(ROOT.glob("examples/*.json")),
                             ids=lambda p: p.name)
    def test_example_scenario_files(self, path):
        specs = load_scenarios(path)
        assert specs
        for spec in specs:
            assert spec.canonical_json() == reference_canonical_json(spec)

    def test_serve_mixed_specs(self):
        for spec in serve_mixed_specs():
            assert spec.canonical_json() == reference_canonical_json(spec)

    @pytest.mark.parametrize("trial", range(24))
    def test_random_specs(self, trial):
        spec = random_spec(np.random.default_rng(9000 + trial), trial)
        assert spec.canonical_json() == reference_canonical_json(spec)
        for override in ({"replicates": 1}, {"replicates": 3},
                         {"fleet": {}}):
            other = spec.with_overrides(override)
            assert other.canonical_json() == \
                reference_canonical_json(other)


def random_param_shapes(rng, allow_zero=True):
    n = int(rng.integers(1, 6))
    shapes = []
    for _ in range(n):
        ndim = int(rng.integers(0, 3))
        low = 0 if allow_zero else 1
        shapes.append(tuple(int(rng.integers(low, 5))
                            for _ in range(ndim)))
    return shapes


class ShapedModel(Module):
    """One parameter per shape, drawn from the seed's generator."""

    def __init__(self, shapes, seed):
        super().__init__()
        rng = np.random.default_rng(seed)
        for i, shape in enumerate(shapes):
            setattr(self, f"p{i}", Parameter(rng.normal(size=tuple(shape))))


def shaped_workload(shapes=((2,),), unused=(), shapes_of=None):
    """Workload factory over :class:`ShapedModel`: the loss sums the
    squares of every parameter but those indexed in ``unused``, and the
    seeds in ``shapes_of`` get the shapes it maps them to."""
    def build(seed):
        model = ShapedModel((shapes_of or {}).get(seed, shapes), seed)

        def loss_fn():
            terms = [(p * p).sum() for i, p in enumerate(model.parameters())
                     if i not in unused]
            total = terms[0]
            for term in terms[1:]:
                total = total + term
            return total

        return model, loss_fn
    return build


@pytest.fixture
def shaped():
    """:func:`shaped_workload`, registered for one test; its name."""
    registry.register("workload", "_shaped", shaped_workload)
    yield "_shaped"
    registry.unregister("workload", "_shaped")


class TestModelReplicateAdapterProperties:
    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_packing_keeps_values_and_rows_alias_models(self, shaped,
                                                         trial):
        rng = np.random.default_rng(3000 + trial)
        shapes = random_param_shapes(rng)
        seeds = [int(s) for s in rng.integers(0, 2 ** 31,
                                              size=int(rng.integers(1, 5)))]
        adapter = ModelReplicateAdapter(shaped, seeds, shapes=shapes)
        assert adapter.buffer.shape == (len(seeds), adapter.offsets[-1])
        for seed, model, row in zip(seeds, adapter.models, adapter.buffer):
            fresh = ShapedModel(shapes, seed).parameters()
            for i, (p, q) in enumerate(zip(model.parameters(), fresh)):
                assert p.data.shape == q.data.shape
                assert np.array_equal(p.data, q.data)
                block = row[adapter.offsets[i]:adapter.offsets[i + 1]]
                assert np.array_equal(block, q.data.reshape(-1))
                assert block.size == 0 or np.shares_memory(p.data, block)
        # a write to one row reaches that model's tensors and no other's
        before = [[p.data.copy() for p in m.parameters()]
                  for m in adapter.models]
        adapter.buffer[-1] += 1.0
        for r, (model, values) in enumerate(zip(adapter.models, before)):
            shift = 1.0 if r == len(seeds) - 1 else 0.0
            for p, v in zip(model.parameters(), values):
                assert np.array_equal(p.data, v + shift)

    @pytest.mark.parametrize("trial", range(10))
    def test_read_rows_are_per_replicate(self, shaped, trial):
        rng = np.random.default_rng(4000 + trial)
        shapes = random_param_shapes(rng)
        seeds = [int(s) for s in rng.integers(0, 2 ** 31, size=3)]
        adapter = ModelReplicateAdapter(shaped, seeds, shapes=shapes)
        adapter.buffer[1] += rng.normal(size=adapter.buffer.shape[1])
        params = adapter.buffer.copy()
        out = np.full_like(adapter.buffer, np.nan)
        losses = adapter.read(out)
        # each row reads as its model alone: one scalar workload built
        # with that row's values, its loss and gradients taken by itself
        for r, seed in enumerate(seeds):
            model, loss_fn = shaped_workload(shapes=shapes)(seed)
            for i, p in enumerate(model.parameters()):
                p.data = params[r, adapter.offsets[i]:adapter.offsets[i + 1]
                                ].reshape(p.data.shape).copy()
            loss = loss_fn()
            loss.backward()
            assert losses[r] == float(loss.data)
            grads = [p.grad.reshape(-1) for p in model.parameters()]
            assert out[r].tobytes() == np.concatenate(grads).tobytes()
        assert np.array_equal(adapter.buffer, params)

    def test_zero_size_parameters_pack(self, shaped):
        shapes = [(2,), (0,), (3, 0), (2, 2)]
        adapter = ModelReplicateAdapter(shaped, [1, 2], shapes=shapes)
        assert adapter.buffer.shape == (2, 2 + 0 + 0 + 4)
        assert adapter.offsets == [0, 2, 2, 2, 6]
        params = adapter.models[1].parameters()
        assert params[1].data.shape == (0,)
        assert params[2].data.shape == (3, 0)
        out = np.full_like(adapter.buffer, np.nan)
        adapter.read(out)
        for model, row in zip(adapter.models, out):
            first, _, _, last = model.parameters()
            assert np.array_equal(row, np.concatenate(
                [2.0 * first.data, 2.0 * last.data.reshape(-1)]))

    def test_read_zero_fills_missing_gradients(self, shaped):
        adapter = ModelReplicateAdapter(shaped, [1, 2],
                                        shapes=[(2,), (2, 2)], unused=[0])
        out = np.full_like(adapter.buffer, np.nan)
        losses = adapter.read(out)
        assert len(losses) == 2
        for model, row in zip(adapter.models, out):
            unused, used = model.parameters()
            assert unused.grad is None
            assert np.array_equal(row[:2], np.zeros(2))
            assert np.array_equal(row[2:], 2.0 * used.data.reshape(-1))

    def test_repack_after_rebind_keeps_values(self, shaped):
        adapter = ModelReplicateAdapter(shaped, [1, 2], shapes=[(3,)])
        row0 = adapter.buffer[0].copy()
        fresh = np.arange(3.0)
        (param,) = adapter.models[1].parameters()
        param.data = fresh.copy()  # rebinding breaks aliasing
        assert not adapter.flat.packed
        adapter.ensure_packed()
        assert np.array_equal(adapter.buffer[1], fresh)
        assert np.array_equal(adapter.buffer[0], row0)
        assert np.shares_memory(param.data, adapter.buffer[1])

    def test_shape_mismatch_rejected(self, shaped):
        with pytest.raises(ValueError,
                           match="replicate 2 parameter shapes differ"):
            ModelReplicateAdapter(shaped, [5, 6, 7], shapes=[(2,)],
                                  shapes_of={7: [(3,)]})

    def test_empty_inputs_rejected(self, shaped):
        with pytest.raises(ValueError):
            ModelReplicateAdapter(shaped, [], shapes=[(2,)])
        with pytest.raises(ValueError):
            ModelReplicateAdapter(shaped, [1], shapes=[])


class TestShardedServerStateProperty:
    @pytest.mark.parametrize("trial", range(8))
    def test_server_state_survives_codec_any_shard_count(self, trial):
        from repro import nn
        from repro.optim import MomentumSGD
        from repro.sim.parameter_server import ShardedParameterServer

        rng = np.random.default_rng(6000 + trial)
        hidden = int(rng.integers(2, 7))
        model = nn.Sequential(nn.Linear(3, hidden, seed=trial), nn.ReLU(),
                              nn.Linear(hidden, 2, seed=trial + 1))
        optimizer = MomentumSGD(model.parameters(), lr=0.05)
        num_shards = int(rng.integers(1, 8))
        server = ShardedParameterServer(model, optimizer,
                                        num_shards=num_shards,
                                        staleness=int(rng.integers(0, 3)),
                                        seed=trial)
        for step in range(int(rng.integers(1, 5))):
            grads = [rng.normal(size=p.data.shape)
                     for p in optimizer.params]
            server.push(grads, step=step)
        state = server.state_dict()
        wire = json.dumps(encode_state(state), allow_nan=False)
        restored_state = decode_state(json.loads(wire))

        clone_model = nn.Sequential(nn.Linear(3, hidden, seed=trial),
                                    nn.ReLU(),
                                    nn.Linear(hidden, 2, seed=trial + 1))
        clone_opt = MomentumSGD(clone_model.parameters(), lr=0.05)
        clone = ShardedParameterServer(clone_model, clone_opt,
                                       num_shards=num_shards,
                                       staleness=server.staleness,
                                       seed=trial)
        clone.load_state_dict(restored_state)
        assert clone.steps_pushed == server.steps_pushed
        assert clone.pending == server.pending
        for shard, shard_clone in zip(server.shards, clone.shards):
            assert len(shard.queue) == len(shard_clone.queue)
            for (s1, g1), (s2, g2) in zip(shard.queue,
                                          shard_clone.queue):
                assert s1 == s2
                for a, b in zip(g1, g2):
                    assert np.array_equal(a, b)
