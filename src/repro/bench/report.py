"""JSON perf records: the ``BENCH_*.json`` files benchmark scripts emit.

Every record captures *what* was measured (metrics), *under which knobs*
(params), and *on what* (environment), so that future PRs can diff perf
against the committed trajectory instead of folklore.
"""

from __future__ import annotations

import json
import math
import os
import platform
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

# Directory BENCH_*.json files land in unless a reporter says otherwise;
# unset, records go to the system temporary directory, so only an
# explicit REPRO_BENCH_DIR (``make bench-baseline``) rewrites the
# committed baselines.
BENCH_DIR_ENV = "REPRO_BENCH_DIR"


# Scale knob the benchmark suite honors; recorded with every record so
# baseline diffs can tell a scaled-down smoke run from a full run.
BENCH_SCALE_ENV = "REPRO_BENCH_SCALE"


def environment_info() -> dict:
    """Software/hardware fingerprint attached to every record.

    Besides the interpreter/platform identity this includes the bench
    scale (``$REPRO_BENCH_SCALE``), so two records taken at different
    scales can never be silently compared as like-for-like.
    """
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "bench_scale": float(os.environ.get(BENCH_SCALE_ENV, "1.0")),
    }


def replicate_statistics(replicate_metrics: Sequence[Dict[str, float]]
                         ) -> Dict[str, float]:
    """Aggregate per-replicate metric dicts into mean/std/CI fields.

    For every metric ``m`` present in the replicate dicts the output
    carries ``m`` (the sample mean — the value baseline gates judge),
    ``m_std`` (sample standard deviation, ``ddof=1``), and ``m_ci95``
    (the 95% normal-approximation confidence half-width,
    ``1.96 · std / sqrt(R)``), plus a ``replicates`` count.  With a
    single replicate the std/CI fields are omitted (no spread to
    estimate) and the means are the values themselves.

    Parameters
    ----------
    replicate_metrics : sequence of dict
        One scalar-metric dict per replicate (all with the same keys).

    Returns
    -------
    dict
        The aggregated metric dict, ready for a BENCH record or a
        replicated :class:`~repro.xp.runner.ScenarioResult`.
    """
    if not replicate_metrics:
        raise ValueError("need at least one replicate metric dict")
    n = len(replicate_metrics)
    out: Dict[str, float] = {}
    for key in replicate_metrics[0]:
        values = [float(m[key]) for m in replicate_metrics]
        mean = sum(values) / n
        out[key] = mean
        if n > 1:
            if any(math.isnan(v) for v in values):
                std = float("nan")
            else:
                var = sum((v - mean) ** 2 for v in values) / (n - 1)
                std = math.sqrt(var)
            out[f"{key}_std"] = std
            out[f"{key}_ci95"] = 1.96 * std / math.sqrt(n)
    out["replicates"] = float(n)
    return out


@dataclass
class BenchRecord:
    """One benchmark result destined for ``BENCH_<name>.json``.

    Attributes
    ----------
    name : str
        Record key; the file is named ``BENCH_<name>.json``.
    metrics : dict
        Measured quantities (timings in seconds, speedups, counts).
    params : dict
        The knobs the measurement was taken under (sizes, step counts,
        flags).
    env : dict
        Interpreter/platform fingerprint (see :func:`environment_info`).
    unix_time : float
        Record creation time (seconds since epoch).
    """

    name: str
    metrics: Dict[str, float] = field(default_factory=dict)
    params: Dict[str, object] = field(default_factory=dict)
    env: Dict[str, str] = field(default_factory=environment_info)
    unix_time: float = field(default_factory=time.time)

    def as_dict(self) -> dict:
        return {"name": self.name, "metrics": self.metrics,
                "params": self.params, "env": self.env,
                "unix_time": self.unix_time}

    @property
    def filename(self) -> str:
        return f"BENCH_{self.name}.json"


class BenchReporter:
    """Collects :class:`BenchRecord` objects and writes them to disk.

    Parameters
    ----------
    out_dir : str, optional
        Target directory.  Defaults to ``$REPRO_BENCH_DIR`` when set,
        else :func:`tempfile.gettempdir`.
    """

    def __init__(self, out_dir: Optional[str] = None):
        self.out_dir = (out_dir or os.environ.get(BENCH_DIR_ENV)
                        or tempfile.gettempdir())
        self.records: Dict[str, BenchRecord] = {}

    def record(self, name: str, metrics: Dict[str, float],
               params: Optional[Dict[str, object]] = None,
               seed: Optional[int] = None) -> BenchRecord:
        """Create (or replace) the record for ``name``.

        Parameters
        ----------
        name : str
            Record key (file becomes ``BENCH_<name>.json``).
        metrics : dict
            Measured quantities.
        params : dict, optional
            The knobs the measurement was taken under.
        seed : int, optional
            Base seed of the measured run; stamped into the record's
            environment so baseline diffs can explain drift that is
            really a seed change.
        """
        rec = BenchRecord(name=name, metrics=dict(metrics),
                          params=dict(params or {}))
        if seed is not None:
            rec.env["seed"] = int(seed)
        self.records[name] = rec
        return rec

    def record_replicates(self, name: str,
                          replicate_metrics: Sequence[Dict[str, float]],
                          params: Optional[Dict[str, object]] = None,
                          seed: Optional[int] = None) -> BenchRecord:
        """Create the record for ``name`` from per-replicate metrics.

        Aggregates with :func:`replicate_statistics`, so the record
        carries ``m`` / ``m_std`` / ``m_ci95`` per metric plus the
        replicate count — the statistical BENCH-record shape the
        CI-aware baseline gate understands.

        Parameters
        ----------
        name : str
            Record key (file becomes ``BENCH_<name>.json``).
        replicate_metrics : sequence of dict
            One scalar-metric dict per replicate.
        params : dict, optional
            The knobs the measurement was taken under.
        seed : int, optional
            Base seed of the measured run.
        """
        return self.record(name, replicate_statistics(replicate_metrics),
                           params=params, seed=seed)

    def write(self, name: Optional[str] = None) -> list:
        """Write one record (or all of them) as ``BENCH_<name>.json``.

        Returns
        -------
        list of str
            Paths written.
        """
        names = [name] if name is not None else list(self.records)
        paths = []
        os.makedirs(self.out_dir, exist_ok=True)
        for n in names:
            rec = self.records[n]
            path = os.path.join(self.out_dir, rec.filename)
            with open(path, "w") as fh:
                json.dump(rec.as_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            paths.append(path)
        return paths


def load_record(path: str) -> BenchRecord:
    """Read a ``BENCH_*.json`` file back into a :class:`BenchRecord`."""
    with open(path) as fh:
        raw = json.load(fh)
    return BenchRecord(name=raw["name"], metrics=raw["metrics"],
                       params=raw.get("params", {}), env=raw.get("env", {}),
                       unix_time=raw.get("unix_time", 0.0))
