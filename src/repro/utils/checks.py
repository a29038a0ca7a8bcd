"""Construction-time checks of numeric options.

Every runner, system and config refuses a bad number where it is built,
with the field named, instead of running with it: ``max_iter=2.5`` would
run three iterations and report 2.5, a NaN compute time or latency puts
NaN timestamps into the engine.
"""

from __future__ import annotations

import math
import numbers
import operator


def _is_int(value: object) -> bool:
    # ``bool`` is ``Integral``, ``np.bool_`` is not; NumPy's integers are.
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_number(
    name: str, value: object, least: float = 0, *, integer: bool = False, strict: bool = False
):
    """Return ``value`` unless it is not finite and ``>= least`` (``> least``
    when ``strict``): then raise ``ValueError`` naming ``name``.
    ``integer`` also refuses anything but an integer — a NumPy one too —
    and returns it as an ``int``; ``bool`` is refused: ``max_iter=True``
    is not "one"."""
    if integer and not _is_int(value):
        ok = False
    else:
        ok = (least < value if strict else least <= value) and value < math.inf
    if not ok:
        kind = "an int" if integer else "finite and"
        raise ValueError(f"{name} must be {kind} {'>' if strict else '>='} {least}, got {value!r}")
    return operator.index(value) if integer else value


def check_seed(value: object) -> int:
    """A run's seed as an ``int`` in ``[0, 2**32)``, the range the RNG
    streams key on: anything outside it would alias a seed inside it
    (``2**32`` runs seed 0), and ``2.5`` is no seed."""
    if not (_is_int(value) and 0 <= value < 2**32):
        raise ValueError(f"seed must be an int in [0, 2**32), got {value!r}")
    return operator.index(value)
