"""Construction-time checks of numeric options.

Every runner, system and config refuses a bad number where it is built,
with the field named, instead of running with it: ``max_iter=2.5`` would
run three iterations and report 2.5, a NaN compute time or latency puts
NaN timestamps into the engine.
"""

from __future__ import annotations

import math


def check_number(
    name: str, value: object, least: float = 0, *, integer: bool = False, strict: bool = False
) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is finite and
    ``>= least`` (``> least`` when ``strict``).  ``integer`` also refuses
    anything but an ``int``, ``bool`` included: ``max_iter=True`` is not
    "one"."""
    if integer and (isinstance(value, bool) or not isinstance(value, int)):
        ok = False
    else:
        ok = (least < value if strict else least <= value) and value < math.inf
    if not ok:
        kind = "an int" if integer else "finite and"
        raise ValueError(f"{name} must be {kind} {'>' if strict else '>='} {least}, got {value!r}")
