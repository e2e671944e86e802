"""Unit tests for ASCII heatmap rendering."""

import numpy as np
import pytest

from repro.analysis.heatmap import RAMP, render_bitmask, render_heatmap
from repro.core.bitmask import Bitmask


class TestRenderHeatmap:
    def test_shape_preserved_for_small_input(self):
        text = render_heatmap(np.eye(5))
        assert len(text.splitlines()) == 5
        assert all(len(line) == 5 for line in text.splitlines())

    def test_extremes_use_ramp_ends(self):
        text = render_heatmap(np.array([[0.0, 1.0]]))
        assert text[0] == RAMP[0]
        assert text[1] == RAMP[-1]

    def test_downsampling_caps_size(self):
        text = render_heatmap(np.random.default_rng(0).random((100, 100)))
        lines = text.splitlines()
        assert len(lines) <= 40

    def test_axis_label_appended(self):
        text = render_heatmap(np.eye(3), axis_label="iterations")
        assert "iterations" in text.splitlines()[-1]

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            render_heatmap(np.zeros(5))

    def test_constant_matrix_stable(self):
        text = render_heatmap(np.full((3, 3), 7.0))
        assert len(text.splitlines()) == 3

    def test_diagonal_structure_visible(self):
        """A similarity matrix renders with the densest ramp chars on the
        diagonal."""
        n = 10
        matrix = np.fromfunction(
            lambda i, j: 1.0 / (1.0 + np.abs(i - j)), (n, n)
        )
        lines = render_heatmap(matrix).splitlines()
        for i in range(n):
            assert lines[i][i] == RAMP[-1]


class TestRenderBitmask:
    def test_characters(self):
        mask = Bitmask(np.array([[1, 0], [0, 1]], dtype=bool))
        assert render_bitmask(mask) == "#.\n.#"

    def test_downsamples(self, rng):
        mask = Bitmask.random(200, 200, 0.5, rng)
        lines = render_bitmask(mask).splitlines()
        assert len(lines) <= 64
