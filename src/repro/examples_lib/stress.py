"""Deliberately pathological example systems for the resilience suite.

Two builders that make the global fixed-point engine fail in the two
interesting ways:

* :func:`build_overloaded` — a three-CPU pipeline whose middle stage is
  overloaded (utilisation > 1).  Strict analysis raises
  :class:`~repro._errors.NotSchedulableError`; degraded analysis
  quarantines the hot CPU, widens its output to the sporadic envelope
  ``sporadic(c_min)``, and still bounds the healthy neighbours.

* :func:`build_oscillating` — a two-CPU priority-inversion feedback loop
  whose response-time jitter grows a little every global iteration
  without ever closing a busy window: the iteration never converges, yet
  no local analysis fails.  Strict analysis exhausts the iteration
  budget (or is aborted early by the
  :class:`~repro.resilience.guards.DivergenceGuard`); degraded analysis
  freezes the diverging resource and converges for the rest.

The loop in :func:`build_oscillating` works through the *scheduler*, not
the stream graph (which stays acyclic): T_a (low priority) feeds T_b on
the second CPU, T_b feeds T_c (high priority) back onto the first CPU.
T_a's response jitter becomes activation jitter of T_c, whose bursts then
lengthen T_a's busy window — a feedback gain slightly above 1, tuned so
the residual grows monotonically but slowly (geometric escape would hit
the busy-window blowup guard instead of the iteration limit).
"""

from __future__ import annotations

from ..analysis.spp import SPPScheduler
from ..eventmodels.standard import periodic
from ..system.model import System

#: Tasks of the overloaded example whose resources stay healthy.
OVERLOADED_HEALTHY_TASKS = ("T_in", "T_down")

#: The overloaded resource of :func:`build_overloaded`.
OVERLOADED_RESOURCE = "CPU_HOT"

#: The resource :func:`build_oscillating` drives into divergence.
OSCILLATING_RESOURCE = "CPU1"


def build_overloaded() -> System:
    """Pipeline with an overloaded middle stage.

    ``S_in -> T_in (CPU_IN) -> T_hot (CPU_HOT, overloaded) ->
    T_down (CPU_DOWN)`` plus an independent ``S_side -> T_side`` on
    CPU_IN.  CPU_HOT's utilisation is 1.2, so its local analysis raises;
    everything else is lightly loaded.  ``T_hot``'s ``c_min`` of 110
    makes the degraded widening ``sporadic(110)`` — slower than the
    true input rate of 1/100, hence conservative for ``T_down``.
    """
    system = System("stress-overloaded")
    system.add_source("S_in", periodic(100.0, "S_in"))
    system.add_source("S_side", periodic(400.0, "S_side"))

    system.add_resource("CPU_IN", SPPScheduler())
    system.add_resource(OVERLOADED_RESOURCE, SPPScheduler())
    system.add_resource("CPU_DOWN", SPPScheduler())

    system.add_task("T_in", "CPU_IN", (8.0, 10.0), ["S_in"], priority=1)
    system.add_task("T_side", "CPU_IN", (20.0, 25.0), ["S_side"],
                    priority=2)
    # 120 / 100 = 1.2 long-run utilisation: overloaded.
    system.add_task("T_hot", OVERLOADED_RESOURCE, (110.0, 120.0),
                    ["T_in"], priority=1)
    system.add_task("T_down", "CPU_DOWN", (15.0, 20.0), ["T_hot"],
                    priority=1)
    return system


def build_oscillating(gain_c: float = 46.0,
                      period: float = 100.0) -> System:
    """Two-CPU jitter feedback loop with gain slightly above one.

    ``S1 -> T_a (CPU1, low prio) -> T_b (CPU2) -> T_c (CPU1, high
    prio)``.  Utilisation stays well below one on both CPUs — every
    *local* analysis succeeds every iteration — but each global
    iteration feeds T_a's grown response jitter around the loop back
    into T_c's activation, lengthening T_a's next busy window.  The
    response residual therefore grows monotonically and the global
    iteration never converges.

    ``gain_c`` is T_c's execution time; the default 46 (against
    ``period`` 100) puts the loop gain just above 1.  Values of 45 and
    below never push T_a's busy window plus T_c's jitter across the
    first η⁺ threshold, so the loop stays contractive and the system
    converges (``gain_c=30`` is the control case in the tests); values
    of 50 and up grow so fast that T_c's busy window stops closing and,
    without the divergence guard, the run escapes into
    :class:`~repro._errors.NotSchedulableError` instead of exercising
    the iteration limit.
    """
    system = System("stress-oscillating")
    system.add_source("S1", periodic(period, "S1"))

    system.add_resource(OSCILLATING_RESOURCE, SPPScheduler())
    system.add_resource("CPU2", SPPScheduler())

    system.add_task("T_a", OSCILLATING_RESOURCE, (10.0, 10.0), ["S1"],
                    priority=2)
    system.add_task("T_b", "CPU2", (30.0, 30.0), ["T_a"], priority=1)
    system.add_task("T_c", OSCILLATING_RESOURCE, (gain_c, gain_c),
                    ["T_b"], priority=1)
    return system
