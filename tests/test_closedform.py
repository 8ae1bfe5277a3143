"""Exact spectral tables for spheres, products and equators."""

import math

import pytest

from mhs.closedform import (SpectrumTable, clifford_jacobi, equator_jacobi,
                            harmonic_dim, sphere_spectrum)
from mhs.errors import InvalidParameterError


def test_sphere_spectrum_s2():
    table = sphere_spectrum(2, 3)
    assert table.entries == ((0, 1), (2, 3), (6, 5), (12, 7))


def test_sphere_spectrum_circle():
    table = sphere_spectrum(1, 3)
    assert table.entries == ((0, 1), (1, 2), (4, 2), (9, 2))


@pytest.mark.parametrize("m", [2, 3, 5, 9])
def test_first_nonzero_eigenvalue_is_dimension(m):
    table = sphere_spectrum(m, 2)
    assert table.entries[1] == (m, m + 1)


def test_harmonic_dim_brute_force():
    # dim of degree-j harmonics on S^2 by counting monomial constraints:
    # homogeneous degree-j polynomials in 3 variables minus degree j-2
    for j in range(6):
        homog = (j + 1) * (j + 2) // 2
        lower = (j - 1) * j // 2 if j >= 2 else 0
        assert harmonic_dim(2, j) == homog - lower


def test_spectrum_table_invariants():
    with pytest.raises(InvalidParameterError):
        SpectrumTable(entries=((1.0, 2), (1.0, 3)), cutoff=5.0)
    with pytest.raises(InvalidParameterError):
        SpectrumTable(entries=((0.0, 0),), cutoff=1.0)


def test_clifford_jacobi_21():
    table, index, nullity = clifford_jacobi(2, 1)
    assert index == 5 and nullity == 4
    assert float(table.entries[0][0]) == -4.0
    assert table.entries[0][1] == 1


def test_clifford_jacobi_flat_torus_cross_check():
    # for (n,k) = (2,1) the spectrum equals 2(p^2+q^2) - 4 over integer
    # lattice modes; compare multiplicities of everything below 20
    from collections import Counter
    modes = Counter()
    for p in range(-10, 11):
        for q in range(-10, 11):
            ev = 2 * (p * p + q * q) - 4
            if ev < 20:
                modes[ev] += 1
    table, _, _ = clifford_jacobi(2, 1, cutoff=20)
    assert sorted(modes.items()) == [(float(e), m) for e, m in table.entries]


def test_index_tables_exhaustive():
    for n in range(2, 13):
        _, index, nullity = equator_jacobi(n)
        assert index == 1
        assert nullity == n + 1
        for k in range(1, n):
            _, index, nullity = clifford_jacobi(n, k)
            assert index == n + 3
            assert nullity == (k + 1) * (n - k + 1)


def test_clifford_index_composition():
    # index splits as 1 (ground) + (k+1) + (n-k+1) coordinate modes
    table, index, _ = clifford_jacobi(4, 2)
    assert index == 7 == 1 + 3 + 3
    _, index_10_3, _ = clifford_jacobi(10, 3)
    assert index_10_3 == 13


def test_equator_jacobi_values():
    table, index, nullity = equator_jacobi(2)
    assert index == 1 and nullity == 3
    assert table.entries[0] == (-2, 1)
    assert equator_jacobi(5)[1] == 1


def test_completeness_below_cutoff():
    table, _, _ = clifford_jacobi(3, 1, cutoff=30)
    # brute-force re-enumeration over generous degree bounds
    from fractions import Fraction
    vals = {}
    for j in range(0, 20):
        for i in range(0, 20):
            ev = (Fraction(j * (j + 0), 1) * 3 + Fraction(i * (i + 1), 1)
                  * Fraction(3, 2) - 6)
            if ev < 30:
                vals[ev] = vals.get(ev, 0) + \
                    harmonic_dim(1, j) * harmonic_dim(2, i)
    assert sorted(vals.items()) == list(table.entries)


def test_parameter_validation():
    with pytest.raises(InvalidParameterError):
        clifford_jacobi(1, 1)
    with pytest.raises(InvalidParameterError):
        clifford_jacobi(3, 3)
    with pytest.raises(InvalidParameterError):
        equator_jacobi(1)
    with pytest.raises(InvalidParameterError):
        sphere_spectrum(0, 3)


@pytest.mark.parametrize("cutoff", [0, -5, math.nan, math.inf])
def test_cutoff_validated(cutoff):
    # a cutoff at or below 0 drops the values the counts read: 0 gave
    # the Clifford nullity 0 (true 4), -5 the equator index 0 (true 1)
    for table in (lambda: clifford_jacobi(2, 1, cutoff),
                  lambda: equator_jacobi(2, cutoff)):
        with pytest.raises(InvalidParameterError, match="cutoff"):
            table()
    assert clifford_jacobi(2, 1, 0.5)[1:] == (5, 4)
    assert equator_jacobi(2, 0.5)[1:] == (1, 3)
