import numpy as np
import pytest

import lazystates as lz


class TestPositivity:
    """Every generator returns a physical state or raises."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: lz.werner(2.0),
            lambda: lz.product_state(np.diag([1.5, -0.5]), np.diag([0.5, 0.5])),
        ],
        ids=["werner", "product"],
    )
    def test_unphysical_parameters_raise(self, make):
        with pytest.raises(lz.InvalidStateError, match="positivity violation"):
            make()

    @pytest.mark.parametrize("p", [-1 / 3, 1.0])
    def test_werner_accepts_its_physical_range_ends(self, p):
        assert lz.werner(p).is_physical
