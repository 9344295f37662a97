"""The batched cluster engine: replicates × workers on one event loop.

The paper's cluster results live on two axes: hundreds of
parameter-server clients whose timing — not their number of models —
creates staleness, and seeds whose spread turns a curve into a claim.
The serial event-driven runtime pays a Python-level constant per worker
event for one model.  This package batches both axes for the
**fleet-eligible** scenario class: ``R`` models that differ only in
seed live in one ``(R, N)`` buffer stepped by the batched kernels of
:mod:`repro.vec` (looked up by the registered scalar factory they
mirror, :data:`repro.xp.factories.VEC_KERNELS`), under one schedule of
delay samples, fault draws, and staleness bookkeeping shared by every
row.

Layout
------
- :mod:`repro.fleet.engine` — the :class:`~repro.fleet.engine.
  FleetEngine` (round mode for the constant-delay round-robin
  protocol, event mode for the general eligible class), its
  divergence exception, and the one eligibility predicate
  :func:`~repro.fleet.engine.supports_fleet`.
- :mod:`repro.fleet.workloads` — deferred snapshot/flush evaluators
  (vectorized ``quadratic_bowl``, keyed in
  :data:`~repro.fleet.workloads.FLEET_TWINS` by the scalar factory it
  mirrors; the eager per-seed
  :class:`~repro.fleet.workloads.ModelReplicateAdapter`, one
  :class:`~repro.autograd.flat.FlatParams` over every seed's model, for
  everything else).
- :mod:`repro.fleet.topology` — heterogeneous fleet declarations
  (worker classes, correlated fault groups, cost/energy accounting)
  and the :func:`~repro.fleet.topology.expand_fleet` spec expansion.
- :mod:`repro.fleet.runner` — :func:`~repro.fleet.runner.run_engine`,
  the one engine-run/fallback site, and :func:`~repro.fleet.runner.
  execute_fleet`, the ``fleet`` execution backend's entry (registered
  in :mod:`repro.run.backends`) and the ``replicates > 1`` branch of
  :func:`repro.run.execute_spec`.

Contract
--------
Every row's record is **bit-identical** to the serial scalar path for
every eligible spec (enforced by ``tests/test_fleet_equivalence.py``
and ``tests/test_vec_equivalence.py``); batching buys scale, never
different numbers.
"""

from repro.fleet.engine import (FleetDiverged, FleetEngine,
                                supports_fleet)
from repro.fleet.runner import execute_fleet
from repro.fleet.topology import (FleetClass, FleetTopology,
                                  build_topology, expand_fleet,
                                  fleet_accounting)
from repro.fleet.workloads import (ModelReplicateAdapter,
                                   QuadraticBowlFleet,
                                   build_fleet_evaluator)

__all__ = [
    "FleetEngine", "FleetDiverged", "supports_fleet",
    "execute_fleet",
    "FleetClass", "FleetTopology", "build_topology", "expand_fleet",
    "fleet_accounting",
    "ModelReplicateAdapter", "QuadraticBowlFleet",
    "build_fleet_evaluator",
]
