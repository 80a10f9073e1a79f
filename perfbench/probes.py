"""Listeners on the engine's public event bus (``TaskEnd``, cache, surveil)."""

from __future__ import annotations

import time
from typing import List, Tuple

from repro.engine.listener import CacheHit, CacheMiss, EngineListener, TaskEnd
from repro.surveil.events import SiteScreened


class EngineProbe(EngineListener):
    """Records task walls, cache hits/misses and finished site screens."""

    def __init__(self) -> None:
        #: (event time, task wall seconds, partition, task start) per
        #: finished task; times in ``perf_counter`` seconds.  The start is
        #: stamped where the task ran, as wall-clock epoch, and converted.
        self.tasks: List[Tuple[float, float, int, float]] = []
        self._epoch = time.time() - time.perf_counter()
        self.cache_hits = 0
        self.cache_misses = 0
        #: (round, site, tests used, cases found, individuals screened).
        self.sites: List[Tuple[int, int, int, int, int]] = []

    def on_event(self, event) -> None:
        if isinstance(event, TaskEnd):
            self.tasks.append((event.time, event.wall_s, event.partition,
                               event.t0_wall - self._epoch))
        elif isinstance(event, CacheHit):
            self.cache_hits += 1
        elif isinstance(event, CacheMiss):
            self.cache_misses += 1
        elif isinstance(event, SiteScreened):
            self.sites.append((event.round_index, event.site_index, event.tests_used,
                               event.cases_found, event.n_screened))

    def clear(self) -> None:
        self.tasks.clear()
        self.sites.clear()
        self.cache_hits = self.cache_misses = 0
