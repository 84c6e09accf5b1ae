"""GF(2) linear algebra on bit-packed vectors.

Substrate for random linear network coding (the paper's related-work
alternative [Gkantsidis & Rodriguez, INFOCOM 2005]): a coded block is a
linear combination of the file's ``k`` blocks over GF(2), represented by
its coefficient vector — a ``k``-bit Python int, so vector addition is
XOR and the whole basis machinery runs on machine words.

:class:`Gf2Basis` maintains a row-reduced basis incrementally:

* ``insert`` — O(k) reductions; reports whether the vector was innovative;
* ``residue`` / ``contains`` / ``is_subspace_of`` — reduction, membership
  and span-subset tests;
* ``random_member`` — a uniformly random non-zero vector of the span
  (what a network-coding node actually transmits).

Rows are append-only: ``insert`` only ever adds a row with a new pivot and
never rewrites a stored one, so the first ``r`` rows in insertion order
(:meth:`Gf2Basis.ordered_rows`) span exactly what the basis spanned when
its rank was ``r``. The coding engine's incremental destination scan
relies on this (see ``docs/THEORY.md``).
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from itertools import islice

from ..core.errors import ConfigError

__all__ = ["Gf2Basis", "random_vector"]


def random_vector(k: int, rng: random.Random) -> int:
    """A uniformly random non-zero k-bit vector."""
    if k < 1:
        raise ConfigError(f"need at least one dimension, got k={k}")
    while True:
        v = rng.getrandbits(k)
        if v:
            return v


class Gf2Basis:
    """An incrementally maintained basis of a subspace of GF(2)^k.

    Rows are kept reduced so that each stored vector has a distinct pivot
    (highest set bit) and no stored vector's pivot appears in another row
    (row echelon, pivot-descending order).
    """

    __slots__ = ("k", "_rows")

    def __init__(self, k: int, vectors: Iterable[int] = ()) -> None:
        if k < 1:
            raise ConfigError(f"need at least one dimension, got k={k}")
        self.k = k
        # pivot -> row with that pivot (row's highest bit == pivot)
        self._rows: dict[int, int] = {}
        for v in vectors:
            self.insert(v)

    @classmethod
    def full(cls, k: int) -> "Gf2Basis":
        """The complete space (the server's basis: all unit vectors)."""
        basis = cls(k)
        basis._rows = {b: 1 << b for b in range(k)}
        return basis

    @property
    def rank(self) -> int:
        """Dimension of the span."""
        return len(self._rows)

    def is_full(self) -> bool:
        """Whether the span is all of GF(2)^k (file decodable)."""
        return len(self._rows) == self.k

    def residue(self, vector: int) -> int:
        """Reduce ``vector`` against the basis; 0 iff in the span.

        No range check: the hot-path form of :meth:`contains`.
        """
        rows = self._rows
        while vector:
            pivot = vector.bit_length() - 1
            row = rows.get(pivot)
            if row is None:
                return vector
            vector ^= row
        return 0

    def contains(self, vector: int) -> bool:
        """Whether ``vector`` lies in the span (0 always does)."""
        self._check(vector)
        return self.residue(vector) == 0

    def insert(self, vector: int) -> bool:
        """Add ``vector`` to the span; True iff it was innovative."""
        self._check(vector)
        residue = self.residue(vector)
        if residue == 0:
            return False
        self._rows[residue.bit_length() - 1] = residue
        return True

    def is_subspace_of(self, other: "Gf2Basis") -> bool:
        """Whether every vector of this span lies in ``other``'s span."""
        if self.k != other.k:
            raise ConfigError("bases live in different dimensions")
        return all(other.residue(row) == 0 for row in self._rows.values())

    def has_innovative_for(self, other: "Gf2Basis") -> bool:
        """Whether this span contains a vector outside ``other``'s span."""
        return not self.is_subspace_of(other)

    def random_member(self, rng: random.Random) -> int:
        """A uniformly random non-zero member of the span.

        XOR of a uniformly random non-empty subset of basis rows —
        uniform over the ``2^rank - 1`` non-zero span members because
        reduced rows are linearly independent.
        """
        rows = list(self._rows.values())
        if not rows:
            raise ConfigError("the zero subspace has no non-zero members")
        while True:
            out = 0
            any_bit = 0
            coefficients = rng.getrandbits(len(rows))
            for i, row in enumerate(rows):
                if coefficients >> i & 1:
                    out ^= row
                    any_bit = 1
            if any_bit and out:
                return out

    def capture_rows(self) -> list[list[int]]:
        """``[pivot, row]`` pairs in dict insertion order (checkpointing).

        The insertion order matters: :meth:`random_member` iterates rows
        in it when assigning coefficient bits, so a restored basis must
        reproduce the order — not just the span — to keep the draw
        sequence byte-identical. (``basis_rows`` is the canonical
        pivot-descending view and loses exactly this information.)
        """
        return [[pivot, row] for pivot, row in self._rows.items()]

    @classmethod
    def restore_rows(cls, k: int, rows: Iterable[Iterable[int]]) -> "Gf2Basis":
        """Rebuild a basis from :meth:`capture_rows` output verbatim."""
        basis = cls(k)
        basis._rows = {pivot: row for pivot, row in rows}
        return basis

    def ordered_rows(self, count: int) -> list[int]:
        """The first ``count`` rows in insertion order.

        Rows are append-only, so this prefix spans exactly what the basis
        spanned when its rank was ``count``.
        """
        return list(islice(self._rows.values(), count))

    @classmethod
    def from_rows(cls, k: int, rows: Iterable[int]) -> "Gf2Basis":
        """A basis holding independent echelon ``rows`` verbatim,
        re-ordered pivot-descending.

        ``rows`` must have distinct pivots (any :meth:`ordered_rows`
        output does). The result equals ``Gf2Basis(k, rows)`` fed in
        pivot-descending order — each row then reduces to itself — and
        that order is the one :meth:`random_member` assigns coefficient
        bits in.
        """
        basis = cls(k)
        basis._rows = {
            row.bit_length() - 1: row for row in sorted(rows, reverse=True)
        }
        return basis

    def basis_rows(self) -> list[int]:
        """The reduced basis rows, pivot-descending."""
        return [self._rows[p] for p in sorted(self._rows, reverse=True)]

    def _check(self, vector: int) -> None:
        if vector < 0 or vector >> self.k:
            raise ConfigError(
                f"vector {vector:#x} outside GF(2)^{self.k}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gf2Basis(k={self.k}, rank={self.rank})"
