"""Finite-horizon models of ideals on the nonnegative integers.

An ideal is a family of "small" index sets, closed under subsets and
finite unions. At horizon N everything is decided on {0, ..., N-1} with
explicit thresholds:

* ``fin`` -- small means the maximum element sits below a cofinite
  cutoff (default 64).
* ``density`` -- small means the empirical upper density at the horizon
  is below a smallness threshold (default 0.01). This renders the ideal
  of asymptotic-density-zero sets.
* ``finite_trace`` -- small means the intersection with a fixed parity
  class S holds at most ``cutoff`` elements. With S = evens this renders
  "sets containing finitely many even integers"; the whole odd class is
  then small. These models are deliberately not translation invariant.

Each kind is one rule: a set is small when it holds at most ``budget``
of the ``counted`` indices. Those of a window [start, stop) form one
slice, ``counted_slice``, and are counted by arithmetic: ``start:stop``
under density, ``max(start, cutoff):stop`` under fin and ``start +
(p - start) % 2 : stop : 2`` under finite_trace, p the parity of S. The
mask ``counted(indices)`` is for arbitrary index sets only.

Maximal ideals have no computable membership oracle and are rejected at
parse time.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from turnlab.geometry import distinct
from turnlab.report import Report

_KINDS = ("fin", "density", "finite_trace")
_TRACES = ("evens", "odds")

DEFAULT_DENSITY_THRESHOLD = 0.01
DEFAULT_COFINITE_CUTOFF = 64


def _clamped_cutoff(cutoff: int, n: int) -> int:
    """The cofinite cutoff at horizon n, clamped to n // 2 (at least 1)."""
    return min(cutoff, max(1, n // 2))


class IdealSpecError(ValueError):
    """Raised for unusable ideal specifications."""


@dataclass(frozen=True)
class IdealModel:
    """Membership oracle for one ideal at a fixed horizon.

    All classification happens on index sets inside [0, horizon). The
    parameters are part of every verdict downstream code emits.
    """

    kind: str
    horizon: int
    threshold: float = DEFAULT_DENSITY_THRESHOLD
    cutoff: int = DEFAULT_COFINITE_CUTOFF
    trace: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise IdealSpecError(f"unknown ideal kind {self.kind!r}")
        if self.horizon < 2:
            raise IdealSpecError("horizon must be at least 2")
        if self.kind == "density":
            if not 0.0 < self.threshold < 1.0:
                raise IdealSpecError("density threshold must lie in (0, 1)")
        else:
            if not 0 <= self.cutoff < self.horizon:
                raise IdealSpecError(
                    f"cofinite cutoff {self.cutoff} must lie in [0, horizon)"
                )
        if self.kind == "finite_trace":
            if self.trace not in _TRACES:
                raise IdealSpecError(
                    f"finite_trace needs a trace class in {_TRACES}, got {self.trace!r}"
                )
            # The trace class must keep growing inside the horizon,
            # otherwise smallness degenerates to a property of a fixed
            # finite set and the model is meaningless.
            n = self.horizon
            full, half = (len(range(m)[self.counted_slice(0, m)]) for m in (n, n // 2))
            if full <= self.cutoff:
                raise IdealSpecError(
                    "trace class has too few elements below the horizon; "
                    "the full index set would be classified small"
                )
            if full <= half:
                raise IdealSpecError("trace class does not grow with the horizon")

    # -- helpers ---------------------------------------------------------

    def counted(self, indices: np.ndarray) -> np.ndarray:
        """Mask of the indices that count toward positivity: all of them
        for ``density``, those at or past the cutoff for ``fin``, and the
        trace class S (the indices of one parity) for ``finite_trace``.
        For arbitrary index sets; a window's are one ``counted_slice``."""
        if self.kind == "fin":
            return indices >= self.cutoff
        if self.kind == "finite_trace":
            return indices % 2 == (0 if self.trace == "evens" else 1)
        return np.ones(np.shape(indices), dtype=bool)

    def counted_slice(self, start: int, stop: int) -> slice:
        """The ``counted`` indices of [start, stop) as one slice, whose
        length is ``len(range(stop)[slice])``."""
        if self.kind == "fin":
            return slice(max(start, self.cutoff), stop)
        if self.kind == "finite_trace":
            parity = 0 if self.trace == "evens" else 1
            return slice(start + (parity - start) % 2, stop, 2)
        return slice(start, stop)

    def budget(self, fraction: float | None = None) -> int:
        """Largest number of counted indices a small set may hold.

        For ``density``: the largest c with c / horizon < fraction, the
        float comparison of the smallness test itself. ``fraction``
        defaults to the smallness threshold; cluster positivity passes
        theta. ``fin`` forgives no counted index, ``finite_trace``
        forgives ``cutoff`` of them.
        """
        if self.kind == "fin":
            return 0
        if self.kind == "finite_trace":
            return self.cutoff
        f = self.threshold if fraction is None else fraction
        c = min(self.horizon, max(-1, math.ceil(f * self.horizon)))
        while c >= 0 and c / self.horizon >= f:
            c -= 1
        return c

    def at_horizon(self, n: int) -> "IdealModel":
        """Same ideal family re-rendered at horizon ``n``.

        The cofinite cutoff is clamped to n // 2 so the model stays
        proper on short windows; the clamp is visible in ``describe``.
        """
        if n == self.horizon:
            return self
        cutoff = self.cutoff if self.kind == "density" else _clamped_cutoff(self.cutoff, n)
        return dataclasses.replace(self, horizon=n, cutoff=cutoff)

    def describe(self) -> dict:
        out = {"kind": self.kind, "horizon": self.horizon}
        if self.kind == "density":
            out["threshold"] = self.threshold
        else:
            out["cutoff"] = self.cutoff
        if self.kind == "finite_trace":
            out["trace"] = self.trace
        return out


def as_index_set(indices: Iterable[int] | np.ndarray, horizon: int) -> np.ndarray:
    """Validate and normalize an index set: sorted, distinct, in [0, horizon).
    An input already strictly ascending is returned without a sort."""
    a = np.asarray(indices, dtype=np.int64).ravel()
    if a.size == 0:
        return a
    if not (a[1:] > a[:-1]).all():
        a = distinct(a)
    if a[0] < 0 or a[-1] >= horizon:
        raise ValueError(
            f"index set must lie in [0, {horizon}); got range [{a[0]}, {a[-1]}]"
        )
    return a


def upper_density(indices: Iterable[int] | np.ndarray, n: int, horizon: int | None = None) -> float:
    """|{a in A : a < n}| / n, the empirical upper density at n."""
    if horizon is None:
        horizon = int(n)
    if not 1 <= n <= horizon:
        raise ValueError(f"n must lie in [1, {horizon}], got {n}")
    a = as_index_set(indices, horizon)
    count = int(np.searchsorted(a, n, side="left"))
    return count / n


def is_small(indices: Iterable[int] | np.ndarray, model: IdealModel) -> bool:
    """Membership oracle: does the index set belong to the ideal?"""
    return int(model.counted(as_index_set(indices, model.horizon)).sum()) <= model.budget()


def is_positive(indices: Iterable[int] | np.ndarray, model: IdealModel) -> bool:
    return not is_small(indices, model)


def is_dual(indices: Iterable[int] | np.ndarray, model: IdealModel) -> bool:
    """True when the complement in [0, horizon) is small (dual-filter membership)."""
    a = as_index_set(indices, model.horizon)
    comp = np.setdiff1d(np.arange(model.horizon, dtype=np.int64), a, assume_unique=True)
    return is_small(comp, model)


def _shifted_model(model: IdealModel, shift: int) -> IdealModel:
    # "Finite" has no canonical cutoff, so membership of a shifted set in
    # the fin family is tested against the cutoff translated along with
    # it. Density and trace-count smallness need no adjustment.
    if model.kind == "fin" and shift > 0:
        return dataclasses.replace(model, cutoff=min(model.horizon - 1, model.cutoff + shift))
    return model


@dataclass(frozen=True)
class InvarianceReport(Report):
    model: dict
    shifts: tuple[int, ...]
    invariant: bool
    witness: dict | None


def check_translation_invariance(
    model: IdealModel, shifts: Sequence[int] = (1, -1, 7, -7)
) -> InvarianceReport:
    """Exact translation-invariance check.

    A small set holds at most ``budget()`` counted indices, so for a
    shift k the worst small set is every uncounted index plus the first
    ``budget()`` counted indices whose in-range image the shifted model
    counts. Small sets stay small under k exactly when that set's clipped
    image does; otherwise it is the witness, for the first failing shift.
    """
    for k in shifts:
        if k == 0:
            raise ValueError("shifts must be nonzero")
        if abs(k) >= model.horizon / 2:
            raise ValueError(f"|shift| must stay below horizon/2, got {k}")
    idx = np.arange(model.horizon, dtype=np.int64)
    counted = model.counted(idx)
    witness = None
    for k in shifts:
        target = _shifted_model(model, k)
        image = idx + k
        hits = (image >= 0) & (image < model.horizon) & target.counted(image)
        worst = ~counted
        worst[np.flatnonzero(counted & hits)[: model.budget()]] = True
        if int((worst & hits).sum()) > target.budget():
            members = np.flatnonzero(worst)
            witness = {
                "shift": int(k),
                "set_size": int(members.size),
                "set_head": members[:12].tolist(),
            }
            break
    return InvarianceReport(
        model=model.describe(),
        shifts=tuple(int(k) for k in shifts),
        invariant=witness is None,
        witness=witness,
    )


def parse_ideal_spec(spec: str, horizon: int) -> IdealModel:
    """Build an IdealModel from a CLI string.

    Accepted forms: ``fin``, ``fin:<cutoff>``, ``density``,
    ``density:<threshold>``, ``finite-trace:evens``, ``finite-trace:odds``
    and ``finite-trace:auto`` (the trace class under which the alternating
    counterexample path is optimal, i.e. evens).
    """
    text = spec.strip().lower()
    if text in ("maximal", "ultrafilter") or text.startswith("maximal"):
        raise IdealSpecError(
            "maximal ideals are rejected: membership depends on an "
            "ultrafilter choice and admits no computable oracle"
        )
    head, _, arg = text.partition(":")
    if head == "fin":
        cutoff = int(arg) if arg else DEFAULT_COFINITE_CUTOFF
        return IdealModel("fin", horizon, cutoff=_clamped_cutoff(cutoff, horizon))
    if head == "density":
        threshold = float(arg) if arg else DEFAULT_DENSITY_THRESHOLD
        return IdealModel("density", horizon, threshold=threshold)
    if head in ("finite-trace", "finite_trace"):
        trace = arg or "auto"
        if trace == "auto":
            # The parity class whose complement is wholly small must be
            # the even one for the alternating path (deviations at odd
            # indices) to come out optimal.
            trace = "evens"
        return IdealModel(
            "finite_trace",
            horizon,
            cutoff=_clamped_cutoff(DEFAULT_COFINITE_CUTOFF, horizon),
            trace=trace,
        )
    raise IdealSpecError(f"unknown ideal spec {spec!r}")


def burn_in(n: int) -> int:
    """Indices excluded from density statistics: the first ceil(sqrt(n)),
    capped so at least three quarters of a short window survive."""
    return min(int(math.ceil(math.sqrt(n))), n // 4)
