"""Wall-clock timing helpers behind ``QueryStats.elapsed_seconds``."""

from __future__ import annotations

import time
from typing import Optional


class Timer:
    """Context-manager stopwatch measuring elapsed wall-clock seconds."""

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def start(self) -> "Timer":
        """Begin (or restart) the measurement."""
        self._start = time.perf_counter()
        return self

    def stop(self) -> float:
        """Stop the measurement and return the elapsed seconds."""
        if self._start is None:
            raise RuntimeError("Timer.stop() called before start()")
        self.elapsed += time.perf_counter() - self._start
        self._start = None
        return self.elapsed

    def reset(self) -> None:
        """Zero the accumulated time."""
        self._start = None
        self.elapsed = 0.0
