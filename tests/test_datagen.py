"""Synthetic instance generator: pricing rules, profiles, determinism."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargeplan.datagen import (
    ARCHETYPES,
    GenParams,
    archetype_of,
    assignment_costs,
    flow_profile,
    generate_instance,
    pairwise_distances,
    sample_alpha,
    travel_delays,
    with_range_limit,
)
from chargeplan.io import instance_from_dict, instance_to_dict
from chargeplan.model import FORBIDDEN


class TestAssignmentCosts:
    def test_priced_within_range(self):
        dist = np.array([[0.0, 2.0], [2.0, 0.0]])
        cost = assignment_costs(dist, price_per_km=0.2, range_km=3.0)
        assert cost[0, 1] == pytest.approx(0.4)
        assert cost[1, 0] == pytest.approx(0.4)

    def test_forbidden_at_and_beyond_range(self):
        dist = np.array([[0.0, 3.5, 3.0], [3.5, 0.0, 1.0], [3.0, 1.0, 0.0]])
        cost = assignment_costs(dist, price_per_km=0.2, range_km=3.0)
        assert cost[0, 1] == FORBIDDEN  # beyond
        assert cost[0, 2] == FORBIDDEN  # exactly at the limit counts as out
        assert cost[1, 2] == pytest.approx(0.2)

    def test_diagonal_always_zero(self):
        dist = np.full((3, 3), 10.0)
        cost = assignment_costs(dist, 0.2, 3.0)
        np.testing.assert_array_equal(np.diag(cost), 0.0)


class TestTravelDelays:
    def test_rounds_to_nearest_slot(self):
        # 15-minute slots at 30 km/h: 10 km is 20 min -> 1 slot
        dist = np.array([[0.0, 10.0], [10.0, 0.0]])
        tau = travel_delays(dist, speed_kmh=30.0, n_slots=672)
        assert tau[0, 1] == 1

    def test_clipped_to_horizon(self):
        dist = np.array([[0.0, 1e6], [1e6, 0.0]])
        tau = travel_delays(dist, speed_kmh=30.0, n_slots=4)
        assert tau[0, 1] == 3

    @pytest.mark.parametrize("km", [1e308, np.inf])
    def test_saturates_before_the_integer_cast(self, km):
        # a distance past int64's range saturates; it must not reach the
        # integer cast, which warns and returns garbage
        dist = np.array([[0.0, km], [km, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tau = travel_delays(dist, speed_kmh=30.0, n_slots=672)
        np.testing.assert_array_equal(tau, [[0, 671], [671, 0]])

    def test_diagonal_zero(self):
        tau = travel_delays(np.full((2, 2), 50.0), 30.0, 672)
        assert tau[0, 0] == 0 and tau[1, 1] == 0


class TestProfiles:
    def test_archetypes_cycle_round_robin(self):
        assert [archetype_of(i) for i in range(6)] == list(ARCHETYPES) * 2

    def test_residential_peaks_in_the_evening(self):
        profile = flow_profile("residential", 672)
        peak_slot = int(np.argmax(profile[:96]))  # Monday
        hour = (peak_slot + 0.5) * (168.0 / 672)
        assert 19.0 <= hour <= 21.0

    def test_office_quiet_on_weekends(self):
        profile = flow_profile("office", 672)
        weekday = profile[: 5 * 96].mean()
        weekend = profile[5 * 96 :].mean()
        assert weekend < 0.5 * weekday

    def test_recreational_busier_on_weekends(self):
        profile = flow_profile("recreational", 672)
        weekday = profile[: 5 * 96].mean()
        weekend = profile[5 * 96 :].mean()
        assert weekend > weekday

    def test_profiles_are_strictly_positive(self):
        for name in ARCHETYPES:
            assert np.all(flow_profile(name, 168) > 0)


class TestSampleAlpha:
    def test_values_in_unit_interval(self):
        a = sample_alpha(10.0, 90.0, seed=0, shape=(1000,))
        assert np.all((a >= 0) & (a <= 1))

    def test_mean_matches_beta_distribution(self):
        a = sample_alpha(10.0, 90.0, seed=1, shape=(100_000,))
        assert a.mean() == pytest.approx(0.1, abs=0.005)

    def test_symmetric_shape_centers_at_half(self):
        a = sample_alpha(5.0, 5.0, seed=2, shape=(50_000,))
        assert a.mean() == pytest.approx(0.5, abs=0.01)

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            sample_alpha(0.0, 1.0, seed=0, shape=(3,))


class TestGenerateInstance:
    def test_same_seed_same_instance(self):
        params = GenParams(n_locations=6, n_slots=48, seed=5)
        a = instance_to_dict(generate_instance(params))
        b = instance_to_dict(generate_instance(params))
        assert a == b

    def test_different_seeds_differ(self):
        base = GenParams(n_locations=6, n_slots=48, seed=5)
        other = GenParams(n_locations=6, n_slots=48, seed=6)
        a = generate_instance(base)
        b = generate_instance(other)
        assert not np.array_equal(a.flow, b.flow)

    def test_land_cost_decays_from_center(self):
        params = GenParams(n_locations=25, n_slots=24, seed=3)
        inst = generate_instance(params)
        center = np.array([5.0, 5.0])
        d = np.sqrt(((inst.coordinates - center) ** 2).sum(axis=1))
        expected = 500.0 * np.exp(-0.3 * d)
        np.testing.assert_allclose(inst.location_cost, expected, rtol=1e-12)

    def test_economic_fields_follow_params(self):
        params = GenParams(n_locations=5, n_slots=24, seed=1)
        inst = generate_instance(params)
        assert inst.beta == 250.0
        assert inst.base_cost == 500.0
        assert inst.budget == 20e9
        assert inst.range_limit == 3.0
        np.testing.assert_array_equal(inst.capacity_max, np.full(5, 1e7))
        np.testing.assert_array_equal(inst.recurrence, np.full(24, 520.0))

    def test_costs_match_distances(self):
        inst = generate_instance(GenParams(n_locations=8, n_slots=24, seed=2))
        rebuilt = assignment_costs(inst.distance, 0.2, 3.0)
        np.testing.assert_array_equal(inst.assign_cost, rebuilt)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            GenParams(n_locations=0)
        with pytest.raises(ValueError):
            GenParams(alpha_a=-1.0)
        with pytest.raises(ValueError):
            GenParams(speed_kmh=0.0)
        with pytest.raises(ValueError):
            GenParams(location_cost_decay=0.0)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_always_produces_a_valid_instance(self, seed):
        inst = generate_instance(GenParams(n_locations=5, n_slots=24, seed=seed))
        # PlanningInstance validation ran; spot-check the stochastic parts
        assert np.all(inst.flow >= 0)
        assert np.all((inst.alpha >= 0) & (inst.alpha <= 1))
        d = pairwise_distances(inst.coordinates)
        np.testing.assert_allclose(d, inst.distance, atol=1e-12)


class TestWithRangeLimit:
    def test_zero_range_forbids_everything(self):
        inst = generate_instance(GenParams(n_locations=6, n_slots=24, seed=0))
        restricted = with_range_limit(inst, 0.0)
        off = ~np.eye(6, dtype=bool)
        assert np.all(np.isinf(restricted.assign_cost[off]))
        assert restricted.range_limit == 0.0

    def test_wider_range_prices_more_pairs(self):
        inst = generate_instance(GenParams(n_locations=10, n_slots=24, seed=1))
        narrow = with_range_limit(inst, 1.0)
        wide = with_range_limit(inst, 8.0)
        assert np.isfinite(wide.assign_cost).sum() > np.isfinite(
            narrow.assign_cost
        ).sum()

    def test_price_inferred_from_existing_costs(self):
        inst = generate_instance(
            GenParams(n_locations=8, n_slots=24, seed=2, assign_price_per_km=1.7)
        )
        wide = with_range_limit(inst, 100.0)
        i, j = 0, 1
        assert wide.assign_cost[i, j] == pytest.approx(1.7 * inst.distance[i, j])

    def test_price_is_read_from_a_pair_at_a_finite_distance(self):
        # the first priced pair (0 -> 1) lies at an infinite distance in the
        # file, so the price comes from another pair, and that pair alone
        # stays forbidden at any range
        inst = generate_instance(GenParams(n_locations=4, n_slots=8, seed=1, range_km=6.0))
        doc = instance_to_dict(inst)
        doc["distance"][0][1] = float("inf")
        edited = instance_from_dict(json.loads(json.dumps(doc)))
        assert np.isfinite(edited.assign_cost[0, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wide = with_range_limit(edited, 100.0)
        expected = 0.2 * inst.distance
        expected[0, 1] = FORBIDDEN
        np.testing.assert_allclose(wide.assign_cost, expected, rtol=1e-12)

    def test_unpriced_instance_needs_a_price_to_admit_pairs(self):
        inst = generate_instance(GenParams(n_locations=5, n_slots=24, seed=3,
                                           range_km=0.0, assign_price_per_km=80.0))
        with pytest.raises(ValueError, match="prices no pair"):
            with_range_limit(inst, 6.0)
        # a range that still admits no pair needs no price
        assert with_range_limit(inst, 0.0).range_graph.n_edges == 0

    def test_requires_raw_distances(self):
        inst = generate_instance(GenParams(n_locations=4, n_slots=12, seed=0))
        stripped = with_range_limit(inst, 5.0)  # fine: distance present
        assert stripped.distance is not None
        from conftest import make_instance

        bare = make_instance(np.ones((2, 2)))
        with pytest.raises(ValueError, match="distance"):
            with_range_limit(bare, 5.0)

    def test_round_trip_to_same_range_is_identity(self):
        inst = generate_instance(GenParams(n_locations=6, n_slots=24, seed=4))
        again = with_range_limit(inst, inst.range_limit)
        np.testing.assert_array_equal(again.assign_cost, inst.assign_cost)
