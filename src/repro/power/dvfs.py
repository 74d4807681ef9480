"""Voltage/frequency scaling as a sweep axis.

The paper's introduction lists supply-voltage scaling among the
circuit-level techniques its tool should help evaluate (Section 1), and
its EDP metric exists precisely to judge such energy-vs-performance
tradeoffs (Section 3.1).  A DVFS point is just a machine configuration:
:func:`operating_point` sets the supply voltage and the clock that
voltage sustains, and the rest of the pipeline prices it like any other
point.  The power models re-price every access at the new voltage, and
the timeline stretches the same work over the slower clock.  The disk
is simulated over that longer run, so a slower CPU keeps the platter
powered longer, which is why DVFS can *lose* system energy on
disk-heavy workloads::

    SweepCampaign(benchmark="mtrt").run("vdd", vdds, transform=operating_point)

Operating points follow the classic alpha-power delay model: frequency
at voltage V relative to (V0, f0) is ``f0 * (V/V0 - Vt/V0)^a / (1 - Vt/V0)^a``.
"""

from __future__ import annotations

import dataclasses

from repro.config.system import SystemConfig
from repro.config.technology import Technology

ALPHA = 1.6
"""Velocity-saturation exponent of the alpha-power delay model."""

THRESHOLD_V = 0.55
"""Device threshold voltage at the 0.35 um design point."""


def scaled_frequency_hz(vdd: float, base: Technology) -> float:
    """Maximum clock at ``vdd``, alpha-power scaled from the base point."""
    if vdd <= THRESHOLD_V:
        raise ValueError(f"Vdd {vdd} V is at or below threshold")
    numerator = (vdd - THRESHOLD_V) ** ALPHA / vdd
    denominator = (base.vdd - THRESHOLD_V) ** ALPHA / base.vdd
    # The ratio first, so it is exactly 1.0 at the base voltage.
    return base.clock_hz * (numerator / denominator)


def operating_point(config: SystemConfig, vdd: float) -> SystemConfig:
    """``config`` at supply ``vdd`` and the clock it sustains there,
    alpha-power scaled from the config's own (vdd, clock).

    A campaign transform: at the config's own voltage it returns an
    equal config, so the base point of a DVFS sweep is the base run.
    """
    technology = config.technology
    return dataclasses.replace(
        config,
        technology=dataclasses.replace(
            technology, vdd=vdd, clock_hz=scaled_frequency_hz(vdd, technology)
        ),
    )
