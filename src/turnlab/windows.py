"""Finite sequence windows, the universal analysis input."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path as FilePath
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class SequenceWindow:
    """A finite prefix (x_0, ..., x_{N-1}) of a vector-valued sequence.

    Values are stored as a read-only (N, d) float array, scalar sequences
    at d = 1. A read-only array that owns its data is adopted; anything
    else (writable, a view) is copied. ``bounds``, the read-only (d, 2)
    per-axis [min, max] taken column by column, is the window's extent and
    its finiteness test: a NaN or an inf shows in its column's min or max.
    """

    values: np.ndarray
    dim: int = field(init=False)
    horizon: int = field(init=False)
    bounds: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.values, dtype=float)
        if a.flags.writeable or not a.flags.owndata:
            a = a.copy()
            a.setflags(write=False)
        if a.ndim == 1:
            a = a[:, None]
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError("window needs shape (N, d) with N, d >= 1")
        bounds = np.array([(col.min(), col.max()) for col in a.T])
        if not np.isfinite(bounds).all():
            raise ValueError("window entries must be finite (no NaN/inf)")
        bounds.setflags(write=False)
        object.__setattr__(self, "values", a)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "horizon", int(a.shape[0]))
        object.__setattr__(self, "dim", int(a.shape[1]))

    def scalars(self) -> np.ndarray:
        """The (N,) view for one-dimensional windows."""
        if self.dim != 1:
            raise ValueError(f"scalar access on a {self.dim}-dimensional window")
        return self.values[:, 0]

    def map(self, h: Callable[[np.ndarray], np.ndarray]) -> "SequenceWindow":
        """Apply a pointwise map; h takes (..., d) arrays, batched on axis 0."""
        out = np.array(h(self.values), dtype=float)  # a fresh copy, handed over
        if out.shape[0] != self.horizon:
            raise ValueError("map must preserve the number of points")
        out.setflags(write=False)
        return SequenceWindow(out)

    @classmethod
    def from_text(cls, path: str | FilePath) -> "SequenceWindow":
        """Load a window from plain text: one point per line,
        whitespace-separated coordinates."""
        try:
            data = np.loadtxt(path, dtype=float, ndmin=2)
        except Exception as exc:  # noqa: BLE001 - report the file cleanly
            raise ValueError(f"unreadable sequence file {path}: {exc}") from exc
        if data.size == 0:
            raise ValueError(f"sequence file {path} holds no points")
        data.setflags(write=False)
        return cls(data)
