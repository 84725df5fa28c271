"""Coefficient field descriptions and exact scalar arithmetic.

Three kinds of field are supported: the rationals, a prime field F_p, and an
"algebraically closed" flag wrapping one of the former.  The flag does not
change any coefficient arithmetic (there is no general algebraic-closure
arithmetic here); it is consulted only by the factor-counting helpers, which
may then count points over the closure instead of irreducible factors over
the base.

Scalars are plain Python objects: int or Fraction in characteristic zero,
canonical residues 0 <= x < p in characteristic p.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateInput
from .exactmath import is_prime


_FIELD_NAME = re.compile(r"(?:Q|F([1-9][0-9]*))(bar)?")


@dataclass(frozen=True)
class FieldSpec:
    """A coefficient field: characteristic plus an algebraically-closed flag."""

    char: int
    closed: bool = False

    def __post_init__(self):
        if self.char != 0 and not is_prime(self.char):
            raise DegenerateInput(f"field characteristic must be 0 or prime, got {self.char}")

    # constructors

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec(0)

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec(p)

    def closure(self) -> "FieldSpec":
        return FieldSpec(self.char, True)

    @staticmethod
    def parse(text: str) -> "FieldSpec":
        """Parse "Q", "F7", "Qbar", "F7bar".

        p is written in ASCII digits without a leading zero, so F0, F07 and
        non-ASCII digits are unrecognized; a p that is not prime (F1, F4), or
        is too large for `is_prime` to decide, is rejected by the constructor.
        """
        match = _FIELD_NAME.fullmatch(text.strip())
        if match is None:
            raise DegenerateInput(f"unrecognized field {text!r}; expected Q, Fp, Qbar or Fpbar")
        p, bar = match.groups()
        return FieldSpec(int(p) if p else 0, bar is not None)

    def __eq__(self, other) -> bool:
        # the pieces of one job share one FieldSpec, so identity settles
        # most comparisons; the dataclass hash still reads the fields
        if self is other:
            return True
        if type(other) is not FieldSpec:
            return NotImplemented
        return self.char == other.char and self.closed == other.closed

    def __str__(self) -> str:
        name = "Q" if self.char == 0 else f"F{self.char}"
        return name + ("bar" if self.closed else "")

    # scalar arithmetic

    def canon(self, x):
        """Canonical form of a scalar: residue in [0, p) or int/Fraction."""
        if self.char:
            return x % self.char
        if isinstance(x, Fraction) and x.denominator == 1:
            return int(x)
        return x

    def from_int(self, k: int):
        return k % self.char if self.char else k

    def add(self, x, y):
        return (x + y) % self.char if self.char else self.canon(x + y)

    def mul(self, x, y):
        return (x * y) % self.char if self.char else self.canon(x * y)

    def pow(self, x, k: int):
        return pow(x, k, self.char) if self.char else self.canon(x**k)

    def neg(self, x):
        return (-x) % self.char if self.char else -x

    def is_zero(self, x) -> bool:
        return (x % self.char == 0) if self.char else x == 0
