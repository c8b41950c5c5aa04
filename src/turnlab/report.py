"""One rendering rule for every result that leaves the library as JSON.

``plain`` turns a value into JSON-ready Python: dict keys become
strings, tuples and arrays become lists (a 0-d array a scalar), NumPy
scalars become ``bool``/``int``/``float``, non-finite floats become the
strings ``"inf"``, ``"-inf"`` and ``"nan"``, and a ``Report`` renders
through its ``to_dict``. ``Report`` is the base of the result
dataclasses: its ``to_dict`` renders every field with ``plain``.
"""

from __future__ import annotations

import dataclasses

import numpy as np


def plain(obj):
    if isinstance(obj, Report):
        return obj.to_dict()
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return plain(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


class Report:
    def to_dict(self) -> dict:
        # fields one by one: dataclasses.asdict would deep-copy the arrays
        return {f.name: plain(getattr(self, f.name)) for f in dataclasses.fields(self)}
