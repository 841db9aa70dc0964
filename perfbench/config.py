"""Fixed rates and latency limits of the benchmark workloads.

The busy rates are about half of each workload's ``max_rate_rps`` as
measured on the commit that defined the benchmark (2-CPU x86-64 host,
numpy kernel backend, OpenBLAS pinned to one thread).  They are constants
on purpose: a later change is judged at the same offered load, never at a
rate recomputed from its own speed.
"""

from __future__ import annotations

from dataclasses import dataclass

#: A tail percentile is reported only with this many samples beyond it.
TAIL_Q = 99.0


@dataclass(frozen=True)
class Rates:
    """Offered rates (requests/s) and the p99 latency limit of a workload.

    ``light`` is evenly spaced, far below capacity, so requests are
    scored alone; ``busy`` and the search steps are Poisson arrivals.
    The ``max_rate_rps`` search climbs the rungs ``search_start *
    ratio**k`` and stops at the first step whose p99 misses
    ``limit_ms`` or whose backlog grows.
    """

    light: float
    busy: float
    search_start: float
    limit_ms: float
    ratio: float = 1.1
    max_steps: int = 6


#: Share of ``--seconds`` given to each phase; a phase whose p99 is
#: reported never has fewer requests than the p99 needs.
LIGHT_SHARE = 0.15
BUSY_SHARE = 0.15
STEP_SHARE = 0.03


RATES = {
    "http-window": Rates(
        light=30.0, busy=110.0, search_start=200.0, limit_ms=100.0, ratio=1.07,
        max_steps=8,
    ),
    "fleet-batch": Rates(
        light=20.0, busy=6000.0, search_start=11000.0, limit_ms=50.0,
        ratio=1.05, max_steps=10,
    ),
}

#: Share of attack windows in every request stream.
ATTACK_SHARE = 0.05
#: Window sessions the fleet-batch stream spreads its requests over.
FLEET_SESSIONS = 2000
