import pytest
from hypothesis import given
from hypothesis import strategies as st

from hilbertfn.pascal import (
    hf_principal,
    hf_two_generators,
    pascal_F,
    pascal_table,
)


def test_pascal_F_values():
    assert pascal_F(4, 3) == 20
    assert all(pascal_F(1, b) == 1 for b in range(10))
    assert pascal_F(3, -2) == 0


def test_pascal_table_matches_closed_form():
    table = pascal_table(8, 7)
    assert table[4][4] == 70
    assert all(table[a - 1][0] == 1 for a in range(1, 9))
    assert table[7][7] == 3432
    for a in range(1, 9):
        for b in range(8):
            assert table[a - 1][b] == pascal_F(a, b)


@pytest.mark.parametrize("a", range(1, 11))
def test_all_pascal_forms_agree(a):
    table = pascal_table(10, 30)
    assert table[a - 1] == [pascal_F(a, b) for b in range(31)]


@given(st.integers(1, 30), st.integers(0, 60))
def test_pascal_symmetry(a, b):
    assert pascal_F(a, b) == pascal_F(b + 1, a - 1)


def test_hf_principal():
    assert hf_principal(3, 5, 5) == 20
    assert hf_principal(3, 3, 6) == 18
    assert hf_principal(7, 2, 0) == 1


def test_hf_principal_free_below_degree():
    for d in (1, 3, 6):
        for b in range(d):
            assert hf_principal(4, d, b) == pascal_F(4, b)


def test_hf_two_generators():
    assert hf_two_generators(3, 3, 3, 5, 5) == 10
    assert hf_two_generators(3, 2, 3, 5, 4) == 6
    assert hf_two_generators(5, 2, 4, 6, 0) == 1


def test_hf_two_generators_rejects_bad_degrees():
    with pytest.raises(ValueError):
        hf_two_generators(3, 2, 3, 2, 5)  # d_lcm < max
    with pytest.raises(ValueError):
        hf_two_generators(3, 2, 3, 6, 5)  # d_lcm > d_u + d_v
    with pytest.raises(ValueError):
        pascal_F(0, 1)  # no variables
    with pytest.raises(ValueError):
        pascal_table(0, 3)
    with pytest.raises(ValueError):
        hf_principal(3, 0, 2)  # generator of degree 0
    with pytest.raises(ValueError):
        hf_two_generators(0, 1, 1, 2, 3)
