"""Tests for the GF(2) linear algebra substrate."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.gf2 import Gf2Basis, random_vector
from repro.core.errors import ConfigError


class TestBasics:
    def test_empty_basis(self):
        b = Gf2Basis(4)
        assert b.rank == 0
        assert not b.is_full()
        assert b.contains(0)
        assert not b.contains(0b1)

    def test_insert_independent(self):
        b = Gf2Basis(4)
        assert b.insert(0b0011)
        assert b.insert(0b0101)
        assert b.rank == 2

    def test_insert_dependent(self):
        b = Gf2Basis(4)
        b.insert(0b0011)
        b.insert(0b0101)
        assert not b.insert(0b0110)  # = 0011 ^ 0101
        assert b.rank == 2

    def test_contains_span(self):
        b = Gf2Basis(4, [0b0011, 0b0101])
        assert b.contains(0b0110)
        assert not b.contains(0b1000)

    def test_full_basis(self):
        b = Gf2Basis.full(5)
        assert b.is_full() and b.rank == 5
        assert b.contains(0b10110)

    def test_becomes_full(self):
        b = Gf2Basis(3)
        for v in (0b001, 0b011, 0b111):
            b.insert(v)
        assert b.is_full()

    def test_rejects_bad_vectors(self):
        with pytest.raises(ConfigError):
            Gf2Basis(0)
        b = Gf2Basis(3)
        with pytest.raises(ConfigError):
            b.insert(0b1000)
        with pytest.raises(ConfigError):
            b.contains(-1)

    def test_basis_rows_reduced(self):
        b = Gf2Basis(6, [0b110011, 0b011010, 0b000111])
        rows = b.basis_rows()
        pivots = [r.bit_length() - 1 for r in rows]
        assert pivots == sorted(pivots, reverse=True)
        assert len(set(pivots)) == len(pivots)


class TestSubspace:
    def test_subspace_relations(self):
        small = Gf2Basis(4, [0b0011])
        big = Gf2Basis(4, [0b0011, 0b0101])
        assert small.is_subspace_of(big)
        assert not big.is_subspace_of(small)
        assert big.has_innovative_for(small)
        assert not small.has_innovative_for(big)

    def test_equal_spans(self):
        a = Gf2Basis(4, [0b0011, 0b0101])
        b = Gf2Basis(4, [0b0110, 0b0101])
        assert a.is_subspace_of(b) and b.is_subspace_of(a)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            Gf2Basis(3).is_subspace_of(Gf2Basis(4))


class TestRandomMembers:
    def test_member_always_in_span(self, rng):
        b = Gf2Basis(8, [0b00001111, 0b11110000, 0b10101010])
        for _ in range(100):
            assert b.contains(b.random_member(rng))

    def test_zero_span_rejected(self, rng):
        with pytest.raises(ConfigError):
            Gf2Basis(4).random_member(rng)

    def test_covers_span(self):
        rng = random.Random(0)
        b = Gf2Basis(3, [0b001, 0b010])
        seen = {b.random_member(rng) for _ in range(200)}
        assert seen == {0b001, 0b010, 0b011}

    def test_random_vector_nonzero(self, rng):
        for _ in range(50):
            assert random_vector(5, rng)
        with pytest.raises(ConfigError):
            random_vector(0, rng)

    @given(
        st.lists(st.integers(min_value=1, max_value=(1 << 16) - 1), max_size=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_rank_matches_numpy_gf2(self, vectors):
        import numpy as np

        b = Gf2Basis(16, vectors)
        if vectors:
            matrix = np.array(
                [[(v >> i) & 1 for i in range(16)] for v in vectors], dtype=int
            )
            # GF(2) rank via elimination in numpy.
            m = matrix.copy() % 2
            rank = 0
            for col in range(16):
                pivot_rows = [r for r in range(rank, len(m)) if m[r][col]]
                if not pivot_rows:
                    continue
                pr = pivot_rows[0]
                m[[rank, pr]] = m[[pr, rank]]
                for r in range(len(m)):
                    if r != rank and m[r][col]:
                        m[r] = (m[r] + m[rank]) % 2
                rank += 1
            assert b.rank == rank
        else:
            assert b.rank == 0


class TestAppendOnlyRows:
    @given(
        st.lists(st.integers(min_value=1, max_value=(1 << 12) - 1), max_size=24),
    )
    @settings(max_examples=40, deadline=None)
    def test_prefix_spans_the_basis_at_that_rank(self, vectors):
        basis = Gf2Basis(12)
        history = []  # basis_rows() at each rank, in order
        for v in vectors:
            if basis.insert(v):
                history.append(Gf2Basis(12, basis.basis_rows()))
        for rank, then in enumerate(history, start=1):
            prefix = Gf2Basis(12, basis.ordered_rows(rank))
            assert prefix.rank == rank
            assert prefix.is_subspace_of(then) and then.is_subspace_of(prefix)

    @given(
        st.lists(st.integers(min_value=1, max_value=(1 << 12) - 1), max_size=24),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_from_rows_matches_pivot_descending_insertion(self, vectors, seed):
        basis = Gf2Basis(12, vectors)
        rows = basis.ordered_rows(basis.rank)
        rebuilt = Gf2Basis.from_rows(12, rows)
        inserted = Gf2Basis(12, basis.basis_rows())
        assert rebuilt.capture_rows() == inserted.capture_rows()
        if rows:
            a, b = random.Random(seed), random.Random(seed)
            draws = [rebuilt.random_member(a) for _ in range(5)]
            assert draws == [inserted.random_member(b) for _ in range(5)]
