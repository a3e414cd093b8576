"""Predefined design spaces for the CLI, CI smoke runs, and benchmarks.

Each factory returns a ready-to-run :class:`~repro.batch.design_space.
DesignSpace`:

* :func:`quickstart_space` — a small task-graph sweep (WCET × period
  grid) that finishes in seconds even serially; the CI smoke target.
* :func:`rox08_space` — WCET/period headroom grid around the paper's
  evaluation system (section 6); heavier, a handful of points.
* :func:`synth_space` — builder-mode sweep over the synthetic gateway
  generator's structural knobs (signal count × frame count), i.e. the
  frame-packing axis of the design space.
* :func:`bench_space` — a mid-cost pipeline system sized so that one
  point costs tens of milliseconds: large enough for process fan-out to
  win, small enough that a 64-point sweep stays interactive.
"""

from __future__ import annotations

from typing import Optional

from .._errors import ModelError
from ..analysis.spnp import SPNPScheduler
from ..analysis.spp import SPPScheduler
from ..eventmodels.standard import periodic, periodic_with_jitter
from ..system.model import System
from .design_space import Axis, DesignSpace, period_axis, wcet_axis


def pipeline_system(n_chains: int = 3, depth: int = 2,
                    base_period: float = 100.0, load: float = 0.09,
                    name: str = "pipeline") -> System:
    """``n_chains`` source→…→sink chains of length *depth* crossing a
    shared CPU and a shared bus — a parametric stand-in for a gateway
    pipeline with non-harmonic periods and accumulating jitter.

    *load* is the per-stage WCET as a fraction of the chain period
    (later stages are up-weighted), so total utilisation grows with
    ``n_chains * depth * load``; keep headroom if the surrounding sweep
    scales WCETs up or periods down.
    """
    if n_chains < 1 or depth < 1:
        raise ModelError("pipeline needs n_chains >= 1 and depth >= 1")
    system = System(name)
    system.add_resource("cpu", SPPScheduler())
    system.add_resource("bus", SPNPScheduler())
    for chain in range(n_chains):
        period = base_period * (1.0 + 0.37 * chain)
        src = f"src{chain}"
        system.add_source(src, periodic_with_jitter(
            period, 0.1 * period, name=src))
        upstream = src
        for stage in range(depth):
            task = f"t{chain}_{stage}"
            resource = "cpu" if stage % 2 == 0 else "bus"
            wcet = load * period * (1.0 + 0.5 * stage)
            system.add_task(task, resource, (0.5 * wcet, wcet),
                            [upstream], priority=chain * depth + stage + 1)
            upstream = task
    return system


def quickstart_space(cache_tag: str = "quickstart") -> DesignSpace:
    """16-point WCET × period grid over a 3-chain pipeline."""
    return DesignSpace(
        cache_tag,
        axes=[
            wcet_axis((0.6, 0.8, 1.0, 1.2)),
            period_axis((0.9, 1.0, 1.1, 1.25)),
        ],
        base=pipeline_system(n_chains=3, depth=2),
        job_kind="analyze",
    )


def rox08_space(variant: str = "hem") -> DesignSpace:
    """Headroom grid around the paper's section-6 evaluation system."""
    from ..examples_lib.rox08 import build_system
    return DesignSpace(
        f"rox08-{variant}",
        axes=[
            wcet_axis((0.9, 1.0, 1.1)),
            period_axis((1.0, 1.2)),
        ],
        base=build_system(variant),
        job_kind="analyze",
    )


def synth_space(variant: str = "hem") -> DesignSpace:
    """Structural sweep: signal count × frame count (packing density).

    Builder mode — every point regenerates the synthetic gateway with a
    different packing layout, the knob no dict transform can turn.
    """
    from ..examples_lib.synth import synth_system

    def build(n_signals: int, n_frames: int) -> System:
        return synth_system(n_signals, n_frames, variant)

    return DesignSpace(
        f"synth-{variant}",
        axes=[
            Axis("n_signals", values=(4, 6, 8)),
            Axis("n_frames", values=(1, 2)),
        ],
        builder=build,
        job_kind="analyze",
    )


def bench_space(side: int = 8, n_chains: int = 5, depth: int = 3,
                timeout: Optional[float] = None) -> DesignSpace:
    """``side × side`` WCET × period grid over a heavier pipeline.

    Default 64 points; each point costs tens of milliseconds of real
    fixed-point work, which is the regime where process fan-out pays.
    """
    wcet_levels = tuple(0.5 + 0.1 * i for i in range(side))
    period_levels = tuple(0.85 + 0.05 * i for i in range(side))
    return DesignSpace(
        "bench",
        axes=[
            wcet_axis(wcet_levels),
            period_axis(period_levels),
        ],
        base=pipeline_system(n_chains=n_chains, depth=depth, load=0.035,
                             name="bench_pipeline"),
        job_kind="analyze",
        timeout=timeout,
    )


#: CLI name → factory (no-argument call).
NAMED_SPACES = {
    "quickstart": quickstart_space,
    "rox08": rox08_space,
    "synth": synth_space,
    "bench": bench_space,
}
