"""Extremal families and domain geometry."""

from __future__ import annotations

import numpy as np
import pytest

from bohrad import (
    DomainParams,
    ExtremalParams,
    ParameterError,
    SubordinationExtremal,
    boundary_points,
    harmonic_extremal,
    mobius_extremal,
    subordination_extremal,
    taylor_mobius,
)
from conftest import mobius_moduli


class TestDomainParams:
    def test_unit_disk_at_zero(self):
        dom = DomainParams(0.0)
        assert dom.center == 0.0
        assert dom.radius == 1.0

    def test_half_parameter(self):
        dom = DomainParams(0.5)
        assert dom.center == pytest.approx(-1.0)
        assert dom.radius == pytest.approx(2.0)

    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.35, 0.6, 0.9])
    def test_rightmost_point_pinned_at_one(self, gamma):
        dom = DomainParams(gamma)
        assert dom.center + dom.radius == pytest.approx(1.0, abs=1e-12)

    def test_parameter_range(self):
        with pytest.raises(ParameterError):
            DomainParams(1.0)
        with pytest.raises(ParameterError):
            DomainParams(-0.2)


class TestExtremalParams:
    def test_open_interval_for_a(self):
        with pytest.raises(ParameterError):
            ExtremalParams(0.0)
        with pytest.raises(ParameterError):
            ExtremalParams(1.0)
        assert ExtremalParams(0.5).a == 0.5

    def test_gamma_and_k_ranges(self):
        with pytest.raises(ParameterError):
            ExtremalParams(0.5, gamma=1.0)
        with pytest.raises(ParameterError):
            ExtremalParams(0.5, k=1.5)


class TestMobiusExtremal:
    @pytest.mark.parametrize("a", [0.3, 0.7, 0.95])
    @pytest.mark.parametrize("gamma", [0.0, 0.4, 0.8])
    def test_moduli_match_division_route(self, a, gamma):
        stream = mobius_extremal(ExtremalParams(a, gamma))
        division = taylor_mobius(a - gamma, -(1 - gamma), 1 - a * gamma, -a * (1 - gamma), 40)
        for n in range(41):
            assert stream.at(n) == pytest.approx(abs(division[n]), abs=1e-13)

    @pytest.mark.parametrize("a", [0.3, 0.7, 0.95])
    @pytest.mark.parametrize("gamma", [0.0, 0.4, 0.8])
    def test_moduli_match_elementary_formula(self, a, gamma):
        stream = mobius_extremal(ExtremalParams(a, gamma))
        want = mobius_moduli(a, gamma, 30)
        for n, value in enumerate(want):
            assert stream.at(n) == pytest.approx(value, rel=1e-13, abs=1e-15)

    def test_head_bound_attained_at_first_coefficient(self):
        for a, gamma in ((0.4, 0.0), (0.6, 0.3), (0.9, 0.7)):
            stream = mobius_extremal(ExtremalParams(a, gamma))
            bound = (1 - stream.at(0) ** 2) / (1 + gamma)
            assert stream.at(1) == pytest.approx(bound, abs=1e-13)
            assert all(stream.at(n) <= bound + 1e-13 for n in range(1, 40))

    def test_order_hint_recorded_without_truncating(self):
        stream = mobius_extremal(ExtremalParams(0.5, 0.2), order=5)
        assert stream.order_hint == 5
        # the stream stays geometric past the hint
        q = 0.5 * (1 - 0.2) / (1 - 0.5 * 0.2)
        assert stream.at(7) == pytest.approx(stream.at(6) * q, rel=1e-13)


class TestHarmonicExtremal:
    def test_conjugate_part_scales_by_dilatation(self):
        fmap = harmonic_extremal(ExtremalParams(0.7, 0.2, k=0.6))
        assert fmap.k == 0.6
        assert fmap.g.at(0) == 0.0
        for n in range(1, 12):
            assert fmap.g.at(n) == pytest.approx(0.6 * fmap.h.at(n), rel=1e-14)

    def test_k_zero_reduces_to_analytic(self):
        fmap = harmonic_extremal(ExtremalParams(0.7, 0.2, k=0.0))
        analytic = mobius_extremal(ExtremalParams(0.7, 0.2))
        for n in range(8):
            assert fmap.h.at(n) == analytic.at(n)
            assert fmap.g.at(n) == 0.0


class TestSubordinationExtremal:
    def test_all_ones_analytic_part(self):
        witness = subordination_extremal(0.5)
        assert witness.distance == 0.5
        assert witness.psi_prime_at_0 == 1.0
        for n in range(6):
            assert witness.fmap.h.at(n) == 1.0
        assert witness.fmap.g.at(0) == 0.0
        for n in range(1, 6):
            assert witness.fmap.g.at(n) == 0.5

    def test_distance_window(self):
        fmap = subordination_extremal(0.0).fmap
        SubordinationExtremal(fmap, 0.5, 1.0)
        SubordinationExtremal(fmap, 1.0, 1.0)
        with pytest.raises(ParameterError):
            SubordinationExtremal(fmap, 0.4, 1.0)
        with pytest.raises(ParameterError):
            SubordinationExtremal(fmap, 1.1, 1.0)


class TestBoundaryPoints:
    def test_unit_circle_cardinal_points(self):
        pts = boundary_points(0.0, 4)
        want = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        assert pts == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.75])
    def test_points_lie_on_circle_and_start_right(self, gamma):
        pts = boundary_points(gamma, 48)
        assert pts.shape == (48, 2)
        assert pts[0] == pytest.approx([1.0, 0.0], abs=1e-12)
        center = -gamma / (1 - gamma)
        radius = 1 / (1 - gamma)
        dists = np.hypot(pts[:, 0] - center, pts[:, 1])
        assert dists == pytest.approx(np.full(48, radius), abs=1e-12)

    def test_counterclockwise_orientation(self):
        pts = boundary_points(0.4, 12)
        # first step should move upward from the rightmost point
        assert pts[1, 1] > 0.0

    def test_count_validown(self):
        with pytest.raises(ParameterError):
            boundary_points(0.0, 0)
