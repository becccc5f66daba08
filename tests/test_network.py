import dataclasses
from pathlib import Path

import numpy as np
import pytest

from gridres.network import (
    Branch,
    Bus,
    NetworkModel,
    SynthSpec,
    from_json_dict,
    load_model,
    profiles_rows,
    save_model,
    synth_feeder,
    to_json_dict,
    validate,
)
from gridres.scenario import load_scenario
from util import single_bus, six_bus, two_bus

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
DOCS = ROOT / "docs" / "examples"


def bare_model(buses, branches):
    return NetworkModel(
        buses=buses, branches=branches, pv_units=[], dg_units=[],
        storage_units=[], loads=[], steps=1, dt_hours=0.25,
    )


def test_two_bus_model_is_valid():
    assert validate(two_bus()).ok


def test_disconnected_is_invalid():
    buses = [Bus("bus0", "a"), Bus("bus1", "a"), Bus("bus2", "a")]
    branches = [Branch("bus0", "bus1", "a", {"aa": 0.1 + 0.2j}, 1e6)]
    report = validate(bare_model(buses, branches))
    assert not report.ok
    assert any("radial" in p or "disconnected" in p for p in report.problems)


def test_cycle_is_invalid():
    buses = [Bus("bus0", "a"), Bus("bus1", "a"), Bus("bus2", "a")]
    branches = [
        Branch("bus0", "bus1", "a", {"aa": 0.1j}, 1e6),
        Branch("bus1", "bus2", "a", {"aa": 0.1j}, 1e6),
        Branch("bus2", "bus0", "a", {"aa": 0.1j}, 1e6),
    ]
    report = validate(bare_model(buses, branches))
    assert not report.ok


def test_branch_to_unknown_bus_is_reported():
    buses = [Bus("bus0", "a"), Bus("bus1", "a")]
    branches = [Branch("bus0", "bus9", "a", {"aa": 0.1j}, 1e6)]
    report = validate(bare_model(buses, branches))
    assert "branch bus0->bus9: unknown bus bus9" in report.problems


def test_phase_compatibility_checked():
    buses = [Bus("bus0", "a"), Bus("bus1", "abc")]  # child carries more phases
    branches = [Branch("bus0", "bus1", "abc", {p + p: 0.1j for p in "abc"}, 1e6)]
    report = validate(bare_model(buses, branches))
    assert any("phases" in p for p in report.problems)


def test_bus_phases_not_carried_by_its_branch():
    buses = [Bus("bus0", "abc"), Bus("bus1", "ab")]
    branches = [Branch("bus0", "bus1", "a", {"aa": 0.1j}, 1e6)]
    report = validate(bare_model(buses, branches))
    assert report.problems == ["bus bus1: phases ab not carried by branch bus0->bus1"]


@pytest.mark.parametrize("edit, problem", [
    (lambda m: setattr(m.pv_units[0], "capacity_va", 0.0), "pv pv1: capacity must be positive"),
    (lambda m: setattr(m.pv_units[0], "forecast_w", np.array([-1.0])),
     "pv pv1: negative forecast"),
    (lambda m: setattr(m.dg_units[0], "capacity_va", -1.0), "dg dg1: capacity must be positive"),
    (lambda m: setattr(m.storage_units[0], "energy_min_wh", 2.0e6),
     "storage es1: need 0 <= energy_min < energy_max"),
    (lambda m: setattr(m.storage_units[0], "power_w", 0.0),
     "storage es1: power rating must be positive"),
    (lambda m: setattr(m.storage_units[0], "capacity_va", 0.0),
     "storage es1: capacity must be positive"),
    (lambda m: setattr(m.storage_units[0], "initial_soc_wh", 0.1e6),
     "storage es1: initial SoC outside energy limits"),
    (lambda m: setattr(m.loads[0], "minimum_w", np.array([1.0, 2.0])),
     "load load1: profile length != 1"),
    (lambda m: setattr(m.loads[0], "minimum_w", np.array([-1.0])),
     "load load1: need 0 <= minimum <= desired at every step"),
    (lambda m: setattr(m.loads[0], "minimum_w", np.array([2.0e6])),
     "load load1: need 0 <= minimum <= desired at every step"),
    (lambda m: setattr(m.loads[0], "power_factor", 0.0),
     "load load1: power factor must be in (0, 1]"),
    (lambda m: setattr(m, "steps", 0), "horizon must have at least one step"),
    (lambda m: setattr(m, "dt_hours", 0.0), "dt_hours must be positive"),
], ids=["pv-capacity", "pv-forecast", "dg-capacity", "storage-energy", "storage-power",
        "storage-capacity", "storage-soc", "load-length", "load-minimum-negative",
        "load-minimum-above-desired", "load-power-factor", "steps", "dt-hours"])
def test_device_and_horizon_checks(edit, problem):
    model = single_bus(with_pv=True, with_storage=True)
    assert validate(model).ok
    edit(model)
    assert problem in validate(model).problems


def test_profile_length_checked():
    model = two_bus(steps=2)
    model.pv_units[0].forecast_w = np.array([1.0])
    assert not validate(model).ok


def test_radiality_matches_union_find_oracle():
    """Randomized edge sets: validate() agrees with an independent union-find."""
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        n_edges = n - 1 + int(rng.integers(-1, 2))  # sometimes too few/many
        buses = [Bus(f"bus{i}", "a") for i in range(n)]
        edges = []
        for _ in range(max(n_edges, 0)):
            a, b = rng.integers(0, n, size=2)
            if a == b:
                b = (b + 1) % n
            edges.append((int(a), int(b)))
        branches = [
            Branch(f"bus{a}", f"bus{b}", "a", {"aa": 0.1j}, 1e6) for a, b in edges
        ]
        # union-find connectivity + tree check
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        acyclic = True
        for a, b in edges:
            ra, rb = find(a), find(b)
            if ra == rb:
                acyclic = False
            parent[ra] = rb
        connected = len({find(i) for i in range(n)}) == 1
        is_tree = connected and acyclic and len(edges) == n - 1

        report = validate(bare_model(buses, branches))
        assert report.ok == is_tree, (edges, report.problems)


def test_synth_determinism():
    a = synth_feeder(SynthSpec(buses=6, seed=7))
    b = synth_feeder(SynthSpec(buses=6, seed=7))
    assert to_json_dict(a) == to_json_dict(b)
    assert profiles_rows(a) == profiles_rows(b)
    c = synth_feeder(SynthSpec(buses=6, seed=8))
    assert to_json_dict(a) != to_json_dict(c)


def test_synth_aggregates_match_exactly():
    # the low-solar-high-load shape reaches 1.0, exposing the full peak rating
    model = synth_feeder(SynthSpec(seed=3, profile="low_solar_high_load"))
    assert sum(d.capacity_va for d in model.dg_units) == 2.5e6
    assert sum(s.energy_max_wh for s in model.storage_units) == 6.0e6
    assert sum(s.power_w for s in model.storage_units) == 1.5e6
    assert sum(p.capacity_va for p in model.pv_units) == 1.77e6
    peak = max(
        sum(ld.desired_w[k] for ld in model.loads) for k in range(model.steps)
    )
    assert peak == pytest.approx(3.5e6, rel=1e-12)
    ratio = max(
        sum(ld.desired_w[k] * ld.tan_phi for ld in model.loads) for k in range(model.steps)
    )
    assert ratio == pytest.approx(1.9e6, rel=1e-9)


def test_synth_output_validates():
    for seed in (1, 2, 5):
        model = synth_feeder(SynthSpec(seed=seed, buses=9))
        assert validate(model).ok


def test_serialization_round_trip(tmp_path):
    model = synth_feeder(SynthSpec(seed=11, buses=8))
    doc = to_json_dict(model)
    clone = from_json_dict(doc, profiles_rows(model))
    assert to_json_dict(clone) == doc
    for orig, back in zip(model.pv_units, clone.pv_units):
        np.testing.assert_array_equal(orig.forecast_w, back.forecast_w)
    for orig, back in zip(model.loads, clone.loads):
        np.testing.assert_array_equal(orig.desired_w, back.desired_w)
        np.testing.assert_array_equal(orig.minimum_w, back.minimum_w)


def test_save_load_files_round_trip(tmp_path):
    from gridres.network import load_model, save_model

    model = synth_feeder(SynthSpec(seed=13, buses=7))
    save_model(model, tmp_path / "net.json", tmp_path / "profiles.csv")
    clone = load_model(tmp_path / "net.json", tmp_path / "profiles.csv")
    assert to_json_dict(clone) == to_json_dict(model)
    for orig, back in zip(model.loads, clone.loads):
        np.testing.assert_array_equal(orig.desired_w, back.desired_w)


def assert_bit_identical(a, b, where="model"):
    """`a` and `b` hold equal values of equal types down to every array bit."""
    assert type(a) is type(b), where
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), where
    elif isinstance(a, list):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_bit_identical(x, y, f"{where}[{i}]")
    elif isinstance(a, dict):
        assert list(a) == list(b), where
        for key in a:
            assert_bit_identical(a[key], b[key], f"{where}.{key}")
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_bit_identical(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    else:
        assert a == b, where


@pytest.mark.parametrize("source", ["lshl", "hsll", "cyber_event", "sixbus"])
def test_network_files_round_trip_bit_identical(tmp_path, source):
    """save_model -> load_model returns every field bit-identical, and saving
    the loaded model again writes the same bytes."""
    if source == "sixbus":
        model = load_model(DOCS / "sixbus_network.json", DOCS / "sixbus_profiles.csv")
    else:
        model = load_scenario(SCENARIOS / f"{source}.json").model
    save_model(model, tmp_path / "a.json", tmp_path / "a.csv")
    clone = load_model(tmp_path / "a.json", tmp_path / "a.csv")
    assert_bit_identical(model, clone)
    save_model(clone, tmp_path / "b.json", tmp_path / "b.csv")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_six_bus_fixture_is_valid():
    assert validate(six_bus()).ok


def test_synth_rejects_bad_specs():
    with pytest.raises(ValueError):
        synth_feeder(SynthSpec(buses=0))
    with pytest.raises(ValueError, match="divisible by 3"):
        synth_feeder(SynthSpec(n_loads=4))
