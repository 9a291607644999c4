"""Formal series in partition-indexed variables, up to three families.

A ``PSeries`` stores a map from keys (one partition per family) to
``LambdaSeries`` coefficients.  Keys are truncated by per-family weight caps.
Every sum hands its terms c*a*b p_key to ``_sum``, one ``series.combine``
per key: ``_fold`` sums c*A*B over whole series (``+``, ``-``, ``*`` and
each slice of ``log``, which runs ``dense.graded_log`` by weight slice); the
PDE residual sums its terms directly, with the cut-and-join operator of
``partitions.cut_join_terms``.
"""
from __future__ import annotations

from collections.abc import Iterable
from itertools import chain

from .dense import graded_log
from .errors import UsageError
from .partitions import Partition, add_parts
from .series import LambdaSeries, combine

Key = tuple[Partition, ...]
Term = tuple[Key, object, LambdaSeries, LambdaSeries | None]   # c*a*b p_key


def empty_key(fams: int) -> Key:
    return ((),) * fams


def key_weight(key: Key) -> int:
    return sum(sum(mu) for mu in key)


class PSeries:
    __slots__ = ("fams", "caps", "co")

    def __init__(self, fams: int, caps: tuple[int, ...],
                 co: dict[Key, LambdaSeries] | None = None):
        if fams not in (1, 2, 3):
            raise UsageError("1 to 3 families supported")
        if len(caps) != fams or any(c < 0 for c in caps):
            raise UsageError("need one nonnegative weight cap per family")
        self.fams = fams
        self.caps = tuple(caps)
        self.co = {}
        if co:
            for k, s in co.items():
                if self._fits(k) and not s.is_exact_zero():
                    self.co[k] = s

    # -- helpers ------------------------------------------------------------
    def _fits(self, key: Key) -> bool:
        return all(sum(mu) <= cap for mu, cap in zip(key, self.caps))

    def _like(self, co: dict[Key, LambdaSeries]) -> "PSeries":
        return PSeries(self.fams, self.caps, co)

    def _sum(self, terms: Iterable[Term]) -> "PSeries":
        """The sum of c*a*b p_key over (key, c, a, b), b None for 1: keys beyond
        the caps drop out, and each key's terms go to one ``combine``."""
        groups: dict[Key, list] = {}
        for key, c, a, b in terms:
            if self._fits(key):
                groups.setdefault(key, []).append((c, a, b))
        return self._like({key: combine(t) for key, t in groups.items()})

    def _fold(self, terms: Iterable[tuple[object, "PSeries", "PSeries | None"]]) -> "PSeries":
        """The sum of c*A*B over (c, A, B), B None for 1, as one ``_sum``."""
        return self._sum(chain.from_iterable(self._terms(*t) for t in terms))

    def _terms(self, c, a: "PSeries", b: "PSeries | None" = None) -> Iterable[Term]:
        """c*a*b as ``_sum`` terms, b None for 1."""
        self.check_compatible(a)
        if b is None:
            return ((k, c, s, None) for k, s in a.co.items())
        self.check_compatible(b)
        return ((tuple(add_parts(x, *y) for x, y in zip(k1, k2)), c, s1, s2)
                for k1, s1 in a.co.items() for k2, s2 in b.co.items())

    def coeff(self, key: Key) -> LambdaSeries:
        return self.co.get(tuple(tuple(m) for m in key), LambdaSeries.zero())

    def check_compatible(self, other: "PSeries"):
        if self.fams != other.fams or self.caps != other.caps:
            raise UsageError("family count / degree cap mismatch")

    # -- ring operations ---------------------------------------------------
    def __add__(self, other: "PSeries") -> "PSeries":
        return self._fold([(1, self, None), (1, other, None)])

    def __sub__(self, other: "PSeries") -> "PSeries":
        return self._fold([(1, self, None), (-1, other, None)])

    def __mul__(self, other: "PSeries") -> "PSeries":
        return self._fold([(1, self, other)])

    # -- grading -----------------------------------------------------------------
    def _slices(self) -> list["PSeries"]:
        """The weight slices 0..sum(caps): slice w holds the keys of total weight w."""
        co: list[dict[Key, LambdaSeries]] = [{} for _ in range(sum(self.caps) + 1)]
        for k, s in self.co.items():
            co[key_weight(k)][k] = s
        return [self._like(c) for c in co]

    def _join(self, slices: list["PSeries"]) -> "PSeries":
        return self._like({k: s for piece in slices for k, s in piece.co.items()})

    def log(self) -> "PSeries":
        """log of a series with constant (empty-key) term 1."""
        ek = empty_key(self.fams)
        one = self.co.get(ek)
        if one is None or one != LambdaSeries.one(one.trunc):
            raise UsageError("log requires constant term exactly 1")
        return self._join(graded_log(self._slices(), self._fold))

    # -- predicates ---------------------------------------------------------------
    def is_zero_through_windows(self) -> bool:
        return all(s.is_zero_through() for s in self.co.values())

    def __repr__(self):
        lines = [f"PSeries(fams={self.fams}, caps={self.caps})"]
        for k in sorted(self.co):
            lines.append(f"  {k}: {self.co[k]!r}")
        return "\n".join(lines)
