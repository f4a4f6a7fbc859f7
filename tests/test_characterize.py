"""Tests for component characterization (Section IV)."""

import numpy as np
import pytest

from repro.aging import worst_case
from repro.core import (ActualCaseSpec, AgingApproximationLibrary,
                        ComponentCharacterization, characterize,
                        component_key)
from repro.core.specs import parse_component
from repro.rtl import Adder, Multiplier
from repro.verify import reference_characterize


@pytest.fixture(scope="module")
def adder_entry(lib):
    return characterize(Adder(12), lib,
                        scenarios=[worst_case(1), worst_case(10)],
                        precisions=range(12, 5, -1), effort="high")


class TestCharacterize:
    def test_all_points_present(self, adder_entry):
        assert adder_entry.precisions == list(range(12, 5, -1))
        assert adder_entry.scenario_labels == ["1y_worst", "10y_worst"]
        for p in adder_entry.precisions:
            assert adder_entry.fresh_ps[p] > 0
            for label in adder_entry.scenario_labels:
                assert adder_entry.aged_ps[(p, label)] > 0

    def test_aged_exceeds_fresh_everywhere(self, adder_entry):
        for p in adder_entry.precisions:
            for label in adder_entry.scenario_labels:
                assert adder_entry.aged_ps[(p, label)] > \
                    adder_entry.fresh_ps[p]

    def test_delay_nonincreasing_with_truncation(self, adder_entry):
        fresh = [adder_entry.fresh_ps[p] for p in adder_entry.precisions]
        assert all(a >= b - 1e-9 for a, b in zip(fresh, fresh[1:]))

    def test_area_shrinks_with_truncation(self, adder_entry):
        areas = [adder_entry.area_um2[p] for p in adder_entry.precisions]
        assert areas[0] > areas[-1]

    def test_ten_years_worse_than_one(self, adder_entry):
        for p in adder_entry.precisions:
            assert adder_entry.aged_ps[(p, "10y_worst")] > \
                adder_entry.aged_ps[(p, "1y_worst")]

    def test_default_precision_sweep(self, lib):
        entry = characterize(Adder(6), lib, scenarios=[worst_case(10)],
                             effort="low")
        assert max(entry.precisions) == 6
        assert min(entry.precisions) >= 1

    def test_key(self):
        assert component_key(Adder(12)) == "adder_w12"
        assert component_key(Multiplier(8, precision=6)) == "multiplier_w8"


class TestQueries:
    def test_required_precision_eq2(self, adder_entry):
        k = adder_entry.required_precision("10y_worst")
        assert k is not None
        assert adder_entry.aged_ps[(k, "10y_worst")] <= \
            adder_entry.fresh_delay_ps()
        # k is maximal: one more bit of precision would violate.
        if k + 1 in adder_entry.fresh_ps:
            assert adder_entry.aged_ps[(k + 1, "10y_worst")] > \
                adder_entry.fresh_delay_ps()

    def test_required_precision_explicit_target(self, adder_entry):
        generous = adder_entry.required_precision("10y_worst",
                                                  target_ps=1e9)
        assert generous == adder_entry.width
        assert adder_entry.required_precision("10y_worst",
                                              target_ps=0.0) is None

    def test_longer_life_needs_more_truncation(self, adder_entry):
        assert adder_entry.required_precision("10y_worst") <= \
            adder_entry.required_precision("1y_worst")

    def test_guardband_definitions(self, adder_entry):
        gb_full = adder_entry.guardband_ps("10y_worst")
        assert gb_full > 0
        k = adder_entry.required_precision("10y_worst")
        assert adder_entry.guardband_ps("10y_worst", k) == 0.0
        assert adder_entry.guardband_narrowing("10y_worst", k) == 1.0
        assert adder_entry.guardband_narrowing("10y_worst",
                                               adder_entry.width) == 0.0

    def test_unknown_scenario_raises(self, adder_entry):
        with pytest.raises(KeyError, match="not characterized"):
            adder_entry.aged_delay_ps(12, "5y_worst")

    def test_to_rows(self, adder_entry):
        rows = adder_entry.to_rows()
        assert len(rows) == len(adder_entry.precisions)
        assert {"precision", "fresh_ps", "10y_worst_ps"} <= set(rows[0])


class TestActualCase:
    def test_actual_case_between_fresh_and_worst(self, lib, rng):
        component = Adder(8)
        a, b = component.random_operands(300, rng=rng)
        entry = characterize(
            component, lib,
            scenarios=[worst_case(10),
                       ActualCaseSpec(10, "actual_nd", (a, b))],
            precisions=[8, 6], effort="high")
        assert "10y_actual_nd" in entry.scenario_labels
        for p in (8, 6):
            actual = entry.aged_ps[(p, "10y_actual_nd")]
            assert entry.fresh_ps[p] < actual
            assert actual <= entry.aged_ps[(p, "10y_worst")]

    def test_actual_case_never_demands_more_than_worst(self, lib, rng):
        component = Adder(8)
        a, b = component.random_operands(300, rng=rng)
        entry = characterize(
            component, lib,
            scenarios=[worst_case(10),
                       ActualCaseSpec(10, "actual_nd", (a, b))],
            precisions=range(8, 3, -1), effort="high")
        k_actual = entry.required_precision("10y_actual_nd")
        k_worst = entry.required_precision("10y_worst")
        if k_worst is not None:
            assert k_actual >= k_worst

    def test_spec_label(self):
        spec = ActualCaseSpec(10, "idct", (np.zeros(1), np.zeros(1)))
        assert spec.scenario_label == "10y_idct"


class TestSerialization:
    def test_roundtrip(self, adder_entry):
        data = adder_entry.to_dict()
        back = ComponentCharacterization.from_dict(data)
        assert back.key == adder_entry.key
        assert back.precisions == adder_entry.precisions
        assert back.aged_ps == adder_entry.aged_ps
        assert back.fresh_ps == adder_entry.fresh_ps

    def test_json_roundtrip_via_library(self, adder_entry, tmp_path):
        store = AgingApproximationLibrary([adder_entry])
        path = tmp_path / "lib.json"
        store.save(path)
        loaded = AgingApproximationLibrary.load(path)
        assert loaded.keys() == store.keys()
        entry = loaded.get(adder_entry.key)
        assert entry.required_precision("10y_worst") == \
            adder_entry.required_precision("10y_worst")


class TestLibraryStore:
    def test_add_get_contains(self, adder_entry):
        store = AgingApproximationLibrary()
        assert adder_entry.key not in store
        store.add(adder_entry)
        assert adder_entry.key in store
        assert store.get(Adder(12)) is adder_entry
        assert len(store) == 1

    def test_missing_lookup_returns_none(self):
        store = AgingApproximationLibrary()
        assert store.get("nonexistent_w8") is None

    def test_required_precision_delegates(self, adder_entry):
        store = AgingApproximationLibrary([adder_entry])
        assert store.required_precision("adder_w12", "10y_worst") == \
            adder_entry.required_precision("10y_worst")
        with pytest.raises(KeyError):
            store.required_precision("mac_w99", "10y_worst")

    def test_entries_sorted_by_key(self, lib, adder_entry):
        other = characterize(Adder(6), lib, scenarios=[worst_case(10)],
                             precisions=[6, 5], effort="low")
        store = AgingApproximationLibrary([adder_entry, other])
        assert store.keys() == sorted([adder_entry.key, other.key])


class TestReferenceEquivalence:
    """The production sweep (sweep synthesis, batched STA, packed stress
    extraction, worker pool) returns ``==`` tables to the serial
    from-scratch scalar reference in :mod:`repro.verify.oracles`."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("name", ["adder8", "mult8"])
    def test_tables_equal_reference(self, lib, name, jobs):
        component = parse_component(name)
        operands = component.random_operands(
            256, rng=np.random.default_rng(7))
        scenarios = [worst_case(1), worst_case(10),
                     ActualCaseSpec(10, "nd", operands)]
        precisions = [8, 7, 5]
        got = characterize(component, lib, scenarios,
                           precisions=precisions, effort="ultra",
                           jobs=jobs, cache=None)
        want = reference_characterize(component, lib, scenarios,
                                      precisions=precisions,
                                      effort="ultra")
        assert got.scenario_labels == want.scenario_labels
        assert len(got.aged_ps) == 3 * 3
        for field in ("fresh_ps", "aged_ps", "area_um2", "leakage_nw",
                      "gates", "depth"):
            assert getattr(got, field) == getattr(want, field), field

