"""The bound of each bounded input, stated once: the config loader, the
parameter dataclasses and the channel builders check a value against the
same rule object.  A numeric test takes only a real number, not a boolean,
that float() can represent, and NaN fails every bound.  Standard library only.
"""

from __future__ import annotations

import math
from numbers import Real
from typing import Callable, NamedTuple


class Rule(NamedTuple):
    """What a value must be, as errors state it, and its test.  A float in
    [lo, hi] follows the rule without the test; NaN bounds admit none."""

    what: str
    test: Callable[[object], bool]
    lo: float = math.nan
    hi: float = math.nan


def check(field: str, rule: Rule, value) -> None:
    """Raise ValueError("<field>: expected <rule>, got <value!r>") unless value follows rule."""
    if not (type(value) is float and rule.lo <= value <= rule.hi or rule.test(value)):
        raise ValueError(f"{field}: expected {rule.what}, got {value!r}")


class CheckedFields:
    """Base of a dataclass that checks each field named in its ``RULES``
    ({field: rule}) when made; a float inside [lo, hi] costs two comparisons."""

    RULES: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._ROWS = tuple((name, rule.lo, rule.hi, rule) for name, rule in cls.RULES.items())

    def __post_init__(self):
        for name, lo, hi, rule in self._ROWS:
            value = getattr(self, name)
            if not (type(value) is float and lo <= value <= hi):
                check(name, rule, value)


def number(v) -> bool:
    """A real number, not a boolean, that float() can represent: an integer
    from 2**1024 up compares below infinity but overflows float()."""
    if type(v) not in (int, float) and (isinstance(v, bool) or not isinstance(v, Real)):
        return False
    try:
        float(v)
    except OverflowError:
        return False
    return True


def _range(what: str, lo, hi, lo_open=False, hi_open=False) -> Rule:
    """Numbers from lo to hi, either end open; an open end's float bound
    moves one float inward, where floats test the same."""
    def test(v) -> bool:
        return number(v) and (lo < v if lo_open else lo <= v) and (v < hi if hi_open else v <= hi)
    return Rule(what, test, math.nextafter(lo, math.inf) if lo_open else lo,
                math.nextafter(hi, -math.inf) if hi_open else hi)


def closed(lo, hi) -> Rule:
    return _range(f"a number in [{lo}, {hi}]", lo, hi)


def above(lo) -> Rule:  # infinity passes
    return _range(f"a number > {lo}", lo, math.inf, lo_open=True)


def integer_from(lo: int) -> Rule:
    return Rule(f"an integer >= {lo}", lambda v: isinstance(v, int) and number(v) and v >= lo)


def optional(rule: Rule) -> Rule:
    return Rule(f"{rule.what} or null", lambda v: v is None or rule.test(v), rule.lo, rule.hi)


FINITE = _range("a finite number", -math.inf, math.inf, True, True)
FINITE_NONNEGATIVE = _range("a finite number >= 0", 0, math.inf, hi_open=True)
POSITIVE_FINITE = _range("a positive finite number", 0, math.inf, True, True)
PROBABILITY = closed(0, 1)
STAGE_EFFICIENCY = _range("a number in (0, 1]", 0, 1, lo_open=True)  # a rate-chain stage
# a white-noise rate costs a Bell state its own value of fidelity, which a
# depolarizing channel reaches only up to 3/4 (mixing fully to I/4)
WHITE_NOISE_RATE = closed(0, 0.75)
