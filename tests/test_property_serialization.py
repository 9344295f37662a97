"""Property-based tests for the state codec and the replicate store.

Seeded random generation (no external property-testing dependency)
drives many-shaped inputs through the invariants:

- ``encode_state``/``decode_state`` round-trip arbitrary nested state
  trees — random shapes, dtypes, non-finite floats, tuples, None — bit
  for bit, through a strict (``allow_nan=False``) JSON wire.
- ``ModelReplicateAdapter`` packs R models' parameters, values
  unchanged, so each model's tensors are views of its row of the
  ``(R, N)`` buffer; it handles zero-size parameters, missing
  gradients and rebound ``p.data``, and refuses seeds whose models
  differ in shape.
- ``ShardedParameterServer.state_dict`` survives the codec for random
  shard counts and queue contents.
"""

import json

import numpy as np
import pytest

from repro.fleet.workloads import ModelReplicateAdapter
from repro.nn.module import Module, Parameter
from repro.registry import registry
from repro.utils.serialization import decode_state, encode_state

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
