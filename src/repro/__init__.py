"""repro: reproduction of "YellowFin and the Art of Momentum Tuning"
(Zhang & Mitliagkas, MLSYS 2019).

Quickstart
----------
>>> import numpy as np
>>> from repro import YellowFin, nn
>>> from repro.autograd import Tensor, functional as F
>>> model = nn.Sequential(nn.Linear(4, 16, seed=0), nn.ReLU(),
...                       nn.Linear(16, 2, seed=1))
>>> opt = YellowFin(model.parameters())
>>> x, y = np.random.randn(32, 4), np.random.randint(0, 2, 32)
>>> for _ in range(10):
...     model.zero_grad()
...     loss = F.cross_entropy(model(Tensor(x)), y)
...     loss.backward()
...     opt.step()

Package layout
--------------
- ``repro.run`` — the unified execution API: ``run(spec,
  backend="auto")`` over serial / parallel / fleet / mp backends.
- ``repro.registry`` — the typed component registry behind every
  pluggable family (optimizers, workloads, delay/fault models,
  sharding policies, fleet topologies, backends, serve policies).
- ``repro.core`` — YellowFin, closed-loop YellowFin, measurement oracles.
- ``repro.autograd`` / ``repro.nn`` — the NumPy deep-learning substrate.
- ``repro.optim`` — SGD / momentum SGD / Adam / AdaGrad / RMSProp baselines.
- ``repro.analysis`` — momentum-operator theory (Lemmas 3/5/6), speedups.
- ``repro.data`` / ``repro.models`` — the paper's workloads at laptop scale.
- ``repro.sim`` — trainers plus the sharded parameter-server runtime.
- ``repro.cluster`` — event-driven cluster simulation: delay models,
  fault injection, bit-for-bit checkpoint/restore.
- ``repro.xp`` — declarative scenario specs/matrices, process pools,
  the content-addressed result cache, baseline gating.
- ``repro.vec`` — batched multi-replicate optimizer kernels.
- ``repro.fleet`` — the batched engine over replicates × workers, plus
  fleet topologies.
- ``repro.mp`` — real multi-process parameter server (opt-in backend).
- ``repro.obs`` — scoped tracing, metrics, and profiling across all
  backends (``run(..., obs=True)``, ``python -m repro trace``).
- ``repro.serve`` — the multi-tenant tuning service: HTTP+JSON daemon
  with a typed client, cross-tenant batching, quotas, and a
  pre-forked autoscaled worker pool (``python -m repro serve``).
- ``repro.tuning`` — grid search and multi-seed experiment harness.
- ``repro.bench`` — timers and ``BENCH_*.json`` perf records.

Command line: ``python -m repro run|list|diff|bench|trace|serve``
(installed as the ``repro`` console script).
"""

from repro import analysis, autograd, bench, cluster, core, data, models, \
    nn, obs, optim, registry, sim, tuning, utils
from repro import run, xp, vec  # noqa: E402 — after the substrate
from repro.core import ClosedLoopYellowFin, YellowFin
from repro.optim import Adam, AdaGrad, MomentumSGD, RMSProp, SGD

__version__ = "1.2.0"

__all__ = [
    "analysis", "autograd", "bench", "cluster", "core", "data", "models",
    "nn", "obs", "optim", "registry", "run", "sim", "tuning", "utils",
    "vec", "xp",
    "YellowFin", "ClosedLoopYellowFin",
    "SGD", "MomentumSGD", "Adam", "AdaGrad", "RMSProp",
]
