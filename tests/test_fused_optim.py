"""Fused update kernels: trajectory equivalence, packing semantics, and
the shared update rules every optimizer path calls."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.autograd import FlatParams, Tensor, functional as F
from repro.core import ClosedLoopYellowFin, YellowFin
from repro.optim import SGD, Adam, AdaGrad, MomentumSGD, RMSProp
from repro.optim.adam import adam_update
from repro.optim.sgd import momentum_update, sgd_update


def make_problem(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(24, 6))
    y = rng.integers(0, 3, 24)
    model = nn.Sequential(nn.Linear(6, 16, seed=0), nn.ReLU(),
                          nn.Linear(16, 3, seed=1))

    def loss_fn():
        return F.cross_entropy(model(Tensor(x)), y)

    return model, loss_fn


def run_trajectory(opt_factory, steps=25):
    model, loss_fn = make_problem()
    opt = opt_factory(model.parameters())
    losses = []
    for _ in range(steps):
        model.zero_grad()
        loss = loss_fn()
        loss.backward()
        opt.step()
        losses.append(float(loss.data))
    flat = np.concatenate([p.data.reshape(-1) for p in model.parameters()])
    return np.asarray(losses), flat, opt


ELEMENTWISE = [
    ("sgd", lambda f: (lambda p: SGD(p, lr=0.1, weight_decay=1e-3,
                                     fused=f))),
    ("momentum", lambda f: (lambda p: MomentumSGD(p, lr=0.1, momentum=0.9,
                                                  fused=f))),
    ("nesterov", lambda f: (lambda p: MomentumSGD(p, lr=0.1, momentum=0.9,
                                                  nesterov=True, fused=f))),
    ("adam", lambda f: (lambda p: Adam(p, lr=1e-2, amsgrad=True, fused=f))),
    ("adagrad", lambda f: (lambda p: AdaGrad(p, lr=0.05, fused=f))),
    ("rmsprop", lambda f: (lambda p: RMSProp(p, lr=1e-2, fused=f))),
]

GLOBAL_REDUCTION = [
    ("yellowfin", lambda f: (lambda p: YellowFin(p, window=5, beta=0.9,
                                                 fused=f))),
    ("closed_loop", lambda f: (lambda p: ClosedLoopYellowFin(
        p, staleness=0, window=5, beta=0.9, fused=f))),
]


class TestTrajectoryEquivalence:
    @pytest.mark.parametrize("name,factory", ELEMENTWISE,
                             ids=[n for n, _ in ELEMENTWISE])
    def test_elementwise_rules_bitwise_identical(self, name, factory):
        """Pure elementwise updates agree bit-for-bit with fusion."""
        _, x_ref, _ = run_trajectory(factory(False))
        _, x_fused, _ = run_trajectory(factory(True))
        np.testing.assert_array_equal(x_ref, x_fused)

    @pytest.mark.parametrize("name,factory", GLOBAL_REDUCTION,
                             ids=[n for n, _ in GLOBAL_REDUCTION])
    def test_global_reduction_rules_match_to_float_eps(self, name, factory):
        """YellowFin's global norms change summation order under fusion;
        trajectories agree to floating-point tolerance."""
        l_ref, x_ref, _ = run_trajectory(factory(False))
        l_fused, x_fused, _ = run_trajectory(factory(True))
        np.testing.assert_allclose(x_ref, x_fused, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(l_ref, l_fused, rtol=1e-9, atol=1e-12)


class TestCheckpointInterop:
    def test_fused_checkpoint_restores_into_per_tensor(self):
        """State dicts are mode-agnostic: fused state loads into a
        per-tensor optimizer and continues identically."""
        _, _, fused_opt = run_trajectory(
            lambda p: MomentumSGD(p, lr=0.1, momentum=0.9, fused=True),
            steps=10)
        state = fused_opt.state_dict()

        model, loss_fn = make_problem()
        opt = MomentumSGD(model.parameters(), lr=0.1, momentum=0.9,
                          fused=False)
        opt.load_state_dict(state)
        velocity = state["extra"]["velocity"]
        assert isinstance(velocity, list)
        for v_loaded, v_saved in zip(opt._velocity, velocity):
            np.testing.assert_array_equal(v_loaded, v_saved)

    def test_per_tensor_checkpoint_restores_into_fused(self):
        _, _, ref_opt = run_trajectory(
            lambda p: Adam(p, lr=1e-2, fused=False), steps=10)
        state = ref_opt.state_dict()

        model, loss_fn = make_problem()
        opt = Adam(model.parameters(), lr=1e-2, fused=True)
        opt.load_state_dict(state)
        np.testing.assert_array_equal(opt._m, opt._flat.gather(
            state["extra"]["m"]))


def state_bytes(opt, slots):
    """``t``, ``lr`` and every buffer of ``slots`` in ``opt``, as bytes."""
    extra = opt.state_dict()["extra"]
    return (opt.t, opt.lr,
            [[b.tobytes() for b in extra[name]] for name in slots])


# (name, factory, checkpointed per-tensor slots)
CHECKED = [
    ("momentum", lambda p, f: MomentumSGD(p, lr=0.1, momentum=0.9,
                                         fused=f), ["velocity"]),
    ("adam", lambda p, f: Adam(p, lr=1e-2, amsgrad=True, fused=f),
     ["m", "v", "vmax"]),
    ("yellowfin", lambda p, f: YellowFin(p, window=5, beta=0.9, fused=f),
     ["velocity"]),
]


def short_list(arrays):
    return arrays[:-1]


def long_list(arrays):
    return arrays + [arrays[-1].copy()]


def misshapen_entry(arrays):
    return [np.zeros((3, 3))] + arrays[1:]


def measurement(entry, corrupt):
    def apply(extra):
        tree = extra["measurements"]
        tree[entry] = corrupt(tree[entry])
    return apply


def closed_loop_entry(entry, corrupt):
    def apply(extra):
        extra[entry] = corrupt(extra[entry])
    return apply


# (name, corruption of extra, expected message): rows cut from the ring
# and the averages, 5 entries cut from every gradient vector
TUNER_CORRUPTIONS = [
    ("ring", measurement("ring", lambda a: a[:3]),
     r"extra\['measurements'\]\['ring'\] has shape \(3, 1\), "
     r"expected \(20, 1\)"),
    ("averages", measurement("averages", lambda a: a[:6]),
     r"extra\['measurements'\]\['averages'\] has shape \(6, 1\)"),
    ("g", measurement("g", lambda a: a[:, :-5]),
     r"extra\['measurements'\]\['g'\] has shape \(1, 158\), "
     r"expected \(1, 163\)"),
    ("g2", measurement("g2", lambda a: a[:, :-5]),
     r"extra\['measurements'\]\['g2'\] has shape \(1, 158\)"),
    ("iterates", closed_loop_entry(
        "iterates", lambda xs: [x[:-5] for x in xs]),
     r"extra\['iterates'\]\[0\] has shape \(158,\), expected \(163,\)"),
    ("pending", closed_loop_entry(
        "pending", lambda pending: (pending[0][:-5], pending[1])),
     r"extra\['pending'\]\[0\] has shape \(158,\), expected \(163,\)"),
]
def tuner_factory(closed_loop):
    def factory(p):
        if closed_loop:
            return ClosedLoopYellowFin(p, staleness=1, window=20, beta=0.9)
        return YellowFin(p, window=20, beta=0.9)
    return factory


# (closed loop?, key): every key a tuner's load reads
MISSING_TUNER_KEYS = [
    (closed_loop, key)
    for closed_loop in (False, True)
    for key in ("momentum", "measurements", "clipper_steps")
    + (("algorithmic_mu", "iterates", "pending") if closed_loop else ())]
# (closed loop?, name, corruption, message); YellowFin has no
# iterates or pending gradient
TUNER_CASES = [(closed_loop, name, corrupt, key)
               for closed_loop in (False, True)
               for name, corrupt, key in TUNER_CORRUPTIONS
               if closed_loop or name not in ("iterates", "pending")]


class TestCheckpointValidation:
    """A checkpoint slot is checked against the parameters before any of
    it loads: a bad list raises, naming the key and index, and leaves the
    optimizer exactly as it was."""

    @pytest.mark.parametrize("fused", [False, True],
                             ids=["per_tensor", "fused"])
    @pytest.mark.parametrize("corrupt,match", [
        (short_list, r"holds 3 arrays, expected 4"),
        (long_list, r"holds 5 arrays, expected 4"),
        (misshapen_entry, r"\[0\] has shape \(3, 3\), expected "),
    ], ids=["short", "long", "misshapen"])
    @pytest.mark.parametrize("name,factory,slots", CHECKED,
                             ids=[n for n, _, _ in CHECKED])
    def test_bad_slot_rejected_and_nothing_loaded(self, name, factory,
                                                  slots, corrupt, match,
                                                  fused):
        _, _, source = run_trajectory(lambda p: factory(p, fused),
                                      steps=10)
        state = source.state_dict()
        # the last slot: nothing before it may load either
        slot = slots[-1]
        state["extra"][slot] = corrupt(state["extra"][slot])

        _, _, opt = run_trajectory(lambda p: factory(p, fused), steps=3)
        before = state_bytes(opt, slots)
        with pytest.raises(ValueError,
                           match=rf"extra\['{slot}'\].*{match}"):
            opt.load_state_dict(state)
        assert state_bytes(opt, slots) == before

    @pytest.mark.parametrize("name,factory,slots", CHECKED,
                             ids=[n for n, _, _ in CHECKED])
    def test_missing_slot_rejected_and_nothing_loaded(self, name, factory,
                                                      slots):
        """A tree without one of the slots (another optimizer's) raises
        ``ValueError`` naming it, not a bare ``KeyError``."""
        _, _, source = run_trajectory(lambda p: factory(p, False), steps=10)
        state = source.state_dict()
        del state["extra"][slots[-1]]

        _, _, opt = run_trajectory(lambda p: factory(p, False), steps=3)
        before = state_bytes(opt, slots)
        with pytest.raises(ValueError,
                           match=rf"extra\['{slots[-1]}'\] is missing"):
            opt.load_state_dict(state)
        assert state_bytes(opt, slots) == before


    @pytest.mark.parametrize("fused", [False, True],
                             ids=["per_tensor", "fused"])
    @pytest.mark.parametrize("closed_loop,name,corrupt,key", TUNER_CASES,
                             ids=[f"{'closed_loop' if c else 'yellowfin'}"
                                  f"-{name}" for c, name, _, _ in TUNER_CASES])
    def test_bad_tuner_state_rejected_and_nothing_loaded(
            self, closed_loop, name, corrupt, key, fused):
        """The YellowFin tuner tree is checked against the window, the
        row count and the parameter count before anything loads."""
        def factory(p):
            if closed_loop:
                return ClosedLoopYellowFin(p, staleness=1, window=20,
                                           beta=0.9, fused=fused)
            return YellowFin(p, window=20, beta=0.9, fused=fused)

        _, _, source = run_trajectory(factory, steps=6)
        state = source.state_dict()
        corrupt(state["extra"])

        _, _, opt = run_trajectory(factory, steps=3)
        before = (opt.t, opt.lr, opt.momentum, tree_bytes(opt.state_dict()))
        with pytest.raises(ValueError, match=key):
            opt.load_state_dict(state)
        after = (opt.t, opt.lr, opt.momentum, tree_bytes(opt.state_dict()))
        assert after == before


    @pytest.mark.parametrize("closed_loop,key", MISSING_TUNER_KEYS,
                             ids=[f"{'closed_loop' if c else 'yellowfin'}"
                                  f"-{key}" for c, key in MISSING_TUNER_KEYS])
    def test_missing_tuner_key_rejected_and_nothing_loaded(self,
                                                           closed_loop, key):
        """A tuner tree without one of the keys the load reads raises
        ``ValueError`` naming it, not a bare ``KeyError`` after ``t``
        and ``lr`` were assigned."""
        factory = tuner_factory(closed_loop)
        _, _, source = run_trajectory(factory, steps=6)
        state = source.state_dict()
        del state["extra"][key]

        _, _, opt = run_trajectory(factory, steps=3)
        before = tuner_bytes(opt)
        with pytest.raises(ValueError, match=rf"extra\['{key}'\] is missing"):
            opt.load_state_dict(state)
        assert tuner_bytes(opt) == before

    @pytest.mark.parametrize("source,closed_loop,key", [
        (lambda p: MomentumSGD(p, lr=0.1, momentum=0.9), False,
         "measurements"),
        (tuner_factory(False), True, "algorithmic_mu"),
    ], ids=["momentum-into-yellowfin", "yellowfin-into-closed_loop"])
    def test_foreign_tree_rejected_and_nothing_loaded(self, source,
                                                      closed_loop, key):
        """Another optimizer's tree passes the slot check (both hold
        ``velocity``) and is refused by the tuner's key check."""
        _, _, other = run_trajectory(source, steps=6)
        state = other.state_dict()

        _, _, opt = run_trajectory(tuner_factory(closed_loop), steps=3)
        before = tuner_bytes(opt)
        with pytest.raises(ValueError, match=rf"extra\['{key}'\] is missing"):
            opt.load_state_dict(state)
        assert tuner_bytes(opt) == before


def tuner_bytes(opt):
    """``t``, ``lr``, the velocity slot and the oracle state of a
    YellowFin, as bytes."""
    return (state_bytes(opt, ["velocity"]),
            tree_bytes(opt.measurements.get_state()))


def tree_bytes(tree):
    """A state tree with every array as (shape, bytes), for equality."""
    if isinstance(tree, dict):
        return {k: tree_bytes(v) for k, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [tree_bytes(v) for v in tree]
    if isinstance(tree, np.ndarray):
        return tree.shape, tree.tobytes()
    return repr(tree)


class TestFlatParams:
    def test_views_alias_buffer_both_ways(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([[3.0], [4.0]], requires_grad=True)
        flat = FlatParams([a, b])
        np.testing.assert_array_equal(flat.buffer, [1.0, 2.0, 3.0, 4.0])
        flat.buffer *= 2.0
        np.testing.assert_array_equal(a.data, [2.0, 4.0])
        a.data[0] = -1.0
        assert flat.buffer[0] == -1.0

    def test_gather_rejects_wrong_count(self):
        flat = FlatParams([Tensor([1.0, 2.0], requires_grad=True),
                           Tensor([3.0], requires_grad=True)])
        for arrays in ([np.zeros(2)], [np.zeros(2), np.zeros(1),
                                       np.zeros(1)]):
            with pytest.raises(ValueError, match="for 2 parameters"):
                flat.gather(arrays)

    def test_gather_handles_missing_grads(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        flat = FlatParams([a, b])
        a.grad = np.array([5.0, 6.0])
        b.grad = None
        out = flat.gather_grads()
        np.testing.assert_array_equal(out, [5.0, 6.0, 0.0])

    def test_repack_after_data_rebinding(self):
        """load_state_dict-style rebinding is detected and healed, keeping
        the rebound values."""
        model, _ = make_problem()
        params = model.parameters()
        flat = FlatParams(params)
        assert flat.packed
        params[0].data = np.full_like(params[0].data, 7.0)
        assert not flat.packed
        flat.ensure_packed()
        assert flat.packed
        np.testing.assert_array_equal(flat.view(0),
                                      np.full(params[0].size, 7.0))

    def test_fused_optimizer_survives_load_state_dict(self):
        """A model checkpoint restore mid-training must not desync the
        fused buffer from the parameters."""
        model, loss_fn = make_problem()
        snapshot = model.state_dict()
        opt = SGD(model.parameters(), lr=0.1, fused=True)
        for _ in range(3):
            model.zero_grad()
            loss = loss_fn()
            loss.backward()
            opt.step()
        model.load_state_dict(snapshot)  # rebinds every p.data
        model.zero_grad()
        loss = loss_fn()
        loss.backward()
        opt.step()  # must repack, not clobber the restored values
        ref = snapshot[next(iter(snapshot))]
        assert np.isfinite(float(loss.data))
        for p in model.parameters():
            assert p.data.base is opt._flat.buffer or \
                np.shares_memory(p.data, opt._flat.buffer)

    def test_empty_and_integer_rejected(self):
        with pytest.raises(ValueError):
            FlatParams([])
        int_tensor = Tensor(np.array([1, 2, 3]))
        int_tensor.requires_grad = True
        with pytest.raises(TypeError):
            FlatParams([int_tensor])

    def test_fused_flag_validation(self):
        model, _ = make_problem()
        opt = SGD(model.parameters(), lr=0.1, fused=True)
        assert opt.fused and opt._flat is not None
        assert opt._flat.size == model.num_parameters()


# magnitudes from 1e-300 to 1e300, either sign, and both zeros
ENTRY = st.one_of(st.sampled_from([0.0, -0.0]),
                  st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300))


class TestSharedRules:
    """The update rules of :mod:`repro.optim` serve the per-tensor, fused
    and replicate-row paths alike: one call on an ``(R, N)`` matrix with
    ``(R, 1)`` hyperparameter columns is ``R`` calls on its rows."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_row_matrix_equals_rows_one_by_one(self, data):
        rows, size = data.draw(st.integers(1, 4)), data.draw(
            st.integers(1, 6))

        def draw(shape):
            count = int(np.prod(shape))
            return np.array(data.draw(st.lists(
                ENTRY, min_size=count, max_size=count))).reshape(shape)

        x, g = draw((rows, size)), draw((rows, size))
        state = [draw((rows, size)) for _ in range(3)]
        lr, mu = draw((rows, 1)), draw((rows, 1))
        wd = data.draw(st.one_of(st.just(0.0), st.floats(1e-300, 1e300)))
        nesterov, amsgrad = data.draw(st.booleans()), data.draw(
            st.booleans())
        b1, b2 = data.draw(st.floats(-0.99, 0.99)), data.draw(
            st.floats(0.0, 0.999))
        t = data.draw(st.integers(1, 50))
        rules = [
            (0, lambda x, g, s, lr, mu: sgd_update(x, g, lr, wd)),
            (1, lambda x, g, s, lr, mu: momentum_update(
                x, g, s[0], mu, lr, nesterov, wd)),
            (3, lambda x, g, s, lr, mu: adam_update(
                x, g, *s, lr, b1, b2, 1e-8, t, amsgrad)),
        ]
        g_bytes = g.tobytes()
        with np.errstate(all="ignore"):
            for slots, rule in rules:
                whole = [a.copy() for a in [x] + state[:slots]]
                rule(whole[0], g, whole[1:], lr, mu)
                by_row = [a.copy() for a in [x] + state[:slots]]
                for r in range(rows):
                    rule(by_row[0][r], g[r], [s[r] for s in by_row[1:]],
                         float(lr[r, 0]), float(mu[r, 0]))
                assert [a.tobytes() for a in whole] == \
                    [a.tobytes() for a in by_row]
        assert g.tobytes() == g_bytes  # the gradient is only read
