import importlib
import json
import sys
from pathlib import Path

import pytest

from gridres import cli, dispatch
from gridres.advset import AxisInfeasible
from gridres.cli import main
from gridres.lp import IterationLimitExceeded

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
DOCS = SCENARIOS.parent / "docs" / "examples"
SMALL_SYNTH = {"buses": 6, "steps": 4, "dt_hours": 0.25, "profile": "event_day",
               "initial_soc": "mid", "n_loads": 3, "n_pv": 2, "n_dg": 2, "n_storage": 1}


def small_scenario(tmp_path, name="small", **overrides) -> Path:
    doc = {
        "schema_version": 1,
        "name": name,
        "seed": 11,
        "network": {"synth": dict(SMALL_SYNTH)},
        "costs": {"dg_energy": 1.0, "pv_curtail": 0.1, "load_curtail": 10.0},
        "uncertainty": [
            {"parameter": "load_desired", "entity": "load01", "steps": [1, 3],
             "high_add_w": 150000.0}
        ],
        "axes": [
            {"kind": "dg_capacity_loss", "entity": "dg01"},
            {"kind": "load_increase", "entity": "load01", "cap_w": 300000.0},
        ],
        "timeline": [
            {"time_min": 15, "kind": "load_mask_start", "entity": "load01",
             "magnitude_w": 150000.0},
            {"time_min": 45, "kind": "load_mask_end", "entity": "load01"},
        ],
    }
    doc.update(overrides)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc, indent=2))
    return path


def read_bytes_except_manifest(out_dir: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in sorted(out_dir.iterdir())
        if p.name != "manifest.json"
    }


def test_baseline_writes_outputs_and_manifest(tmp_path):
    scenario = small_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["baseline", str(scenario), "--out", str(out)]) == 0
    for name in ("dispatch.json", "aggregate.csv", "voltage.csv", "soc.csv",
                 "manifest.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "baseline"
    assert str(scenario) in manifest["inputs"]
    assert "aggregate.csv" in manifest["outputs"]
    header = (out / "aggregate.csv").read_text().splitlines()[0]
    assert header.startswith("step,time_min,pv_mw")


def test_malformed_json_names_byte_offset(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1,, }')
    assert main(["baseline", str(bad), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "byte offset" in err


def test_missing_field_is_input_error(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"schema_version": 1, "seed": 1}))
    assert main(["baseline", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "network" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("pricing", "steepest"), ("pricing", "bland"),
                                          ("backend", "cplex"), ("max_iter", 5)])
def test_unknown_solver_option_is_input_error(tmp_path, capsys, field, value):
    scenario = small_scenario(tmp_path, solver={field: value})
    assert main(["baseline", str(scenario), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: solver:") and repr(value) in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("overrides, flags, expected", [
    ({"uncertainty": [{"parameter": "load_desired", "entity": "load99", "steps": [1, 3],
                       "high_add_w": 1.0}]}, [], "load99"),
    ({"uncertainty": [{"parameter": "load_desired", "entity": "load01", "steps": [2, 9],
                       "high_add_w": 1.0}]}, [], "outside the horizon"),
    ({"costs": {"dg_energy": "cheap"}}, [], "costs.dg_energy"),
    ({"build": {"poly_sides": 2}}, [], "build: poly_sides must be at least 3"),
    ({}, ["--poly-sides", "2"], "build: poly_sides must be at least 3"),
    ({"timeline": [{"time_min": "soon", "kind": "dg_trip", "entity": "dg01"}]}, [],
     "timeline[0].time_min"),
    ({"advset_steps": [0, "one"]}, [], "advset_steps"),
    ({"build": {"pv_power_factor_gamma": "steep"}}, [], "build.pv_power_factor_gamma"),
    ({"axes": [{"kind": "dg_capacity_loss", "entity": "dg01", "cap_w": "big"}]}, [],
     "axes[0].cap_w"),
    ({"timeline": [{"time_min": 15, "kind": "load_mask_start", "entity": "load01",
                    "magnitude_w": "lots"}]}, [], "timeline[0].magnitude_w"),
    ({"solver": 5}, [], "error: solver: expected a JSON object"),
    ({"build": 5}, [], "error: build: expected a JSON object"),
    ({"costs": 5}, [], "error: costs: expected a JSON object"),
    ({"reserve_cost_factors": [0.2]}, [], "error: reserve_cost_factors: expected a JSON object"),
    ({"network": 5}, [], "error: network: expected a JSON object"),
    ({"uncertainty": 5}, [], "error: uncertainty: expected a JSON array"),
    ({"seed": "abc"}, [], "error: seed: expected an integer"),
    ([1, 2], [], "expected a JSON object"),
    ({"axes": [{"entity": "dg01"}]}, [], "error: axes[0]: missing required field 'kind'"),
    ({"uncertainty": [{"parameter": ["load_desired"], "entity": "load01", "steps": [1, 3],
                       "high_add_w": 1.0}]}, [], "error: uncertainty[0].parameter: expected a string"),
    ({"uncertainty": [{"parameter": "load_desired", "entity": {"id": "load01"}, "steps": [1, 3],
                       "high_add_w": 1.0}]}, [], "error: uncertainty[0].entity: expected a string"),
    ({"axes": [{"kind": "dg_capacity_loss", "entity": ["dg01"]}]}, [],
     "error: axes[0].entity: expected a string"),
    ({"timeline": [{"time_min": 15, "kind": ["dg_trip"], "entity": "dg01"}]}, [],
     "error: timeline[0].kind: expected a string"),
    ({"timeline": [{"time_min": 15, "kind": "dg_trip", "entity": {"id": "dg01"}}]}, [],
     "error: timeline[0].entity: expected a string"),
    ({"seed": True}, [], "error: seed: expected an integer, got True"),
    ({"seed": 3.7}, [], "error: seed: expected an integer, got 3.7"),
    ({"build": {"poly_sides": 8.9}}, [], "error: build.poly_sides: expected an integer"),
    ({"advset_steps": [1.5]}, [], "error: advset_steps[0]: expected an integer"),
    ({"axes": [{"kind": "dg_capacity_loss", "entity": "dg01", "cap_w": True}]}, [],
     "error: axes[0].cap_w must be a number, got True"),
    ({"axes": [{"kind": "dg_capacity_loss", "entity": "dg01", "cap": 1.0e5}]}, [],
     "error: axes[0]: unknown field 'cap'"),
    ({"timeline": [{"time_min": 15, "kind": "load_mask_start", "entity": "load01",
                    "magnitde_w": 1.5e5}]}, [], "error: timeline[0]: unknown field 'magnitde_w'"),
    ({"uncertainty": [{"parameter": "load_desired", "entity": "load01", "steps": [1, 3],
                       "hi_add_w": 1.0}]}, [], "error: uncertainty[0]: unknown field 'hi_add_w'"),
    ({"uncertainty": [{"parameter": "load_desired", "entity": "load01", "steps": [1, 3],
                       "high_w": 1.0e6, "high_add_w": 1.0}]}, [],
     "error: uncertainty[0]: give at most one of high_w, high_scale, high_add_w"),
    ({"uncertainty": [{"parameter": "load_desired", "entity": "load01", "steps": [1, 3],
                       "low_foo": 1.0}]}, [], "error: uncertainty[0]: unknown field 'low_foo'"),
    ({"network": {"synth": {**SMALL_SYNTH, "profile": "nope"}}}, [],
     "error: network.synth: unknown profile 'nope'; expected one of low_solar_high_load"),
    ({"network": {"synth": {**SMALL_SYNTH, "initial_soc": "weird"}}}, [],
     "error: network.synth: unknown initial_soc 'weird'; expected one of low, mid, high, seeded"),
    ({"network": {"synth": {**SMALL_SYNTH, "buses": "six"}}}, [],
     "error: network.synth.buses: expected an integer"),
    ({"costs": {"dg_energy": -1.0}}, [], "error: costs: cost weights must be non-negative"),
    ({}, ["--seed", "-1"], "error: seed: expected a non-negative integer, got -1"),
    ({"timeline": [{"time_min": float("nan"), "kind": "dg_trip", "entity": "dg01"}]}, [],
     "error: timeline: time_min must be finite and non-negative, got nan"),
    ({"timeline": [{"time_min": -5, "kind": "dg_trip", "entity": "dg01"}]}, [],
     "error: timeline: time_min must be finite and non-negative, got -5.0"),
    ({"timeline": [{"time_min": 60, "kind": "dg_trip", "entity": "dg01"}]}, [],
     "error: timeline: time_min must fall before the end of the horizon at 60 min, got 60.0"),
    ({"costs": {"load_curtail": 10**400}}, [],
     "error: costs.load_curtail: number too large for a float"),
    ({"timeline": [{"time_min": 15, "kind": "load_mask_start", "entity": "load01",
                    "magnitude_w": float("nan")}]}, [],
     "error: timeline: magnitude_w must be finite, got nan"),
    ({"timeline": [{"time_min": 15, "kind": "dg_trip", "entity": "dg01",
                    "magnitude_w": float("nan")}]}, [],
     "error: timeline: magnitude_w must be finite, got nan"),
    ({"timeline": [{"time_min": 15, "kind": "pv_loss", "entity": "pv01",
                    "magnitude_w": float("inf")}]}, [],
     "error: timeline: magnitude_w must be finite, got inf"),
    ({"timeline": [{"time_min": 15, "kind": "dg_trip", "entity": "dg01",
                    "magnitude_w": -5.0}]}, [],
     "error: timeline: dg_trip magnitude_w must be non-negative, got -5.0"),
    ({"timeline": [{"time_min": 15, "kind": "pv_loss", "entity": "pv01",
                    "magnitude_w": -5.0}]}, [],
     "error: timeline: pv_loss magnitude_w must be non-negative, got -5.0"),
    ({"axes": [{"kind": "dg_capacity_loss", "entity": "dg01", "cap_w": -5.0}]}, [],
     "error: axes[0]: cap_w must be a non-negative number, got -5.0"),
    ({"axes": [{"kind": "dg_capacity_loss", "entity": "dg01", "cap_w": float("nan")}]}, [],
     "error: axes[0]: cap_w must be a non-negative number, got nan"),
    ({"reserve_cost_factors": {"pv": 0.2, "dg": -5.0}}, [],
     "error: reserve_cost_factors: dg must be a non-negative number, got -5.0"),
    ({"reserve_cost_factors": {"es": float("nan")}}, [],
     "error: reserve_cost_factors: es must be a non-negative number, got nan"),
    ({"reserve_cost_factors": {"pv": float("inf")}}, [],
     "error: reserve_cost_factors: pv must be finite, got inf"),
    ({"costs": {"dg_energy": float("nan")}}, [],
     "error: costs: cost weights must be non-negative and finite, got dg_energy = nan"),
    ({"build": {"pv_power_factor_gamma": float("nan")}}, [],
     "error: build: pv_power_factor_gamma must be a non-negative finite number or null, got nan"),
    ({"build": {"pv_power_factor_gamma": -0.5}}, [],
     "error: build: pv_power_factor_gamma must be a non-negative finite number or null, got -0.5"),
    ({"uncertainty": [{"parameter": "load_desired", "entity": "load01", "steps": [1, 3],
                       "high_add_w": float("inf")}]}, [],
     "error: uncertainty[0]: box entry load_desired/load01/1: lo, nom and hi must be finite"),
    ({"uncertainty": [{"parameter": "load_desired", "entity": "load01", "steps": [1, 3],
                       "high_scale": float("inf")}]}, [],
     "error: uncertainty[0]: box entry load_desired/load01/1: lo, nom and hi must be finite"),
    ({"uncertainty": [{"parameter": "dg_capacity", "entity": "dg01", "steps": [1, 3],
                       "low_w": -float("inf")}]}, [],
     "error: uncertainty[0]: box entry dg_capacity/dg01/1: lo, nom and hi must be finite"),
    ({"uncertainty": [{"parameter": "pv_forecast", "entity": "pv01", "steps": [1, 3],
                       "low_sub_w": float("inf")}]}, [],
     "error: uncertainty[0]: box entry pv_forecast/pv01/1: lo, nom and hi must be finite"),
    ({"axes": [{"kind": "dg_capacity_loss", "entity": "dg01", "cap_w": float("inf")}]}, [],
     "error: axes[0]: cap_w must be finite, got inf; null means no cap"),
], ids=["unknown-entity", "steps-past-horizon", "non-numeric-cost", "two-poly-sides",
        "two-poly-sides-flag", "non-numeric-time", "non-numeric-advset-step",
        "non-numeric-gamma", "non-numeric-cap", "non-numeric-magnitude", "solver-not-object",
        "build-not-object", "costs-not-object", "factors-not-object", "network-not-object",
        "uncertainty-not-array", "non-numeric-seed", "document-not-object",
        "axis-missing-kind", "array-parameter", "object-box-entity", "array-axis-entity",
        "array-event-kind", "object-event-entity", "boolean-seed", "fractional-seed",
        "fractional-poly-sides", "fractional-advset-step", "boolean-cap", "misspelled-cap",
        "misspelled-magnitude", "misspelled-box-bound", "two-high-bounds", "unknown-low-bound",
        "unknown-profile", "unknown-initial-soc", "string-bus-count", "negative-cost",
        "negative-seed", "nan-event-time", "negative-event-time", "event-at-horizon-end",
        "huge-integer-cost", "nan-mask-magnitude", "nan-trip-magnitude",
        "infinite-loss-magnitude", "negative-trip-magnitude", "negative-loss-magnitude",
        "negative-cap", "nan-cap", "negative-reserve-factor", "nan-reserve-factor",
        "infinite-reserve-factor", "nan-cost", "nan-gamma", "negative-gamma",
        "infinite-load-add", "infinite-load-scale", "infinite-dg-low", "infinite-pv-sub",
        "infinite-cap"])
def test_bad_box_input_is_input_error(tmp_path, capsys, overrides, flags, expected):
    if isinstance(overrides, dict):
        scenario = small_scenario(tmp_path, **overrides)
    else:  # the whole document
        scenario = tmp_path / "doc.json"
        scenario.write_text(json.dumps(overrides))
    assert main(["baseline", str(scenario), "--out", str(tmp_path / "o"), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and expected in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("value", [1001, -1])
@pytest.mark.parametrize("field", ["buses", "steps", "n_dg", "n_pv", "n_storage", "n_loads"])
def test_recipe_size_out_of_range_is_input_error(tmp_path, capsys, field, value):
    scenario = small_scenario(tmp_path, network={"synth": {**SMALL_SYNTH, field: value}})
    assert main(["validate", str(scenario)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: network.synth: {field} must be in [0, 1000], got {value}\n"


@pytest.mark.parametrize("error", [IterationLimitExceeded(7, "primal"),
                                   ArithmeticError("simplex basis became singular")],
                         ids=["iteration-limit", "arithmetic"])
def test_solver_failure_maps_to_exit_4(tmp_path, capsys, monkeypatch, error):
    def failing(lp, options=None):
        raise error

    monkeypatch.setattr(dispatch, "solve", failing)
    scenario = small_scenario(tmp_path)
    assert main(["baseline", str(scenario), "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("solver failure:") and str(error) in err
    assert len(err.strip().splitlines()) == 1


def test_feas_tol_flag_reaches_the_solver(tmp_path, capsys, monkeypatch):
    """`--feas-tol` overrides the scenario's solver tolerance; a zero
    tolerance is an input error named by its block, before any solve."""
    seen = []

    def recording(model, costs, build, solver):
        seen.append(solver.feas_tol)
        return dispatch.solve_baseline(model, costs, build, solver)

    monkeypatch.setattr(cli, "solve_baseline", recording)
    sixbus = str(DOCS / "sixbus_scenario.json")
    assert main(["baseline", sixbus, "--out", str(tmp_path / "o"), "--feas-tol", "1e-6"]) == 0
    assert seen == [1e-6] and capsys.readouterr().err == ""
    assert main(["baseline", sixbus, "--out", str(tmp_path / "z"), "--feas-tol", "0"]) == 1
    assert capsys.readouterr().err == (
        "error: solver: feas_tol must be a positive finite number, got 0.0\n")
    assert seen == [1e-6] and not (tmp_path / "z").exists()


def test_downstream_infeasibility_maps_to_exit_3(tmp_path, capsys, monkeypatch):
    """Headroom reserves make the zero-magnitude recourse LP feasible by
    construction, so only a stand-in walk reaches exit 3."""
    def failing(*args, **kwargs):
        raise AxisInfeasible("recourse LP infeasible even at zero event magnitude at step 0")

    monkeypatch.setattr(cli, "characterize_steps", failing)
    scenario = small_scenario(tmp_path)
    assert main(["advset", str(scenario), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == ("downstream infeasibility: recourse LP infeasible even "
                                       "at zero event magnitude at step 0\n")


def files_scenario(tmp_path, edit) -> Path:
    """A scenario over the small synthetic network written to files, with
    `edit` applied to the network document."""
    net = tmp_path / "net"
    assert main(["synth", str(small_scenario(tmp_path)), "--out", str(net)]) == 0
    doc = json.loads((net / "network.json").read_text())
    edit(doc)
    (net / "network.json").write_text(json.dumps(doc))
    return small_scenario(
        tmp_path, name="files", uncertainty=[], axes=[], timeline=[],
        network={"files": {"network": "net/network.json", "profiles": "net/profiles.csv"}},
    )


def test_branch_to_unknown_bus_fails_validation(tmp_path, capsys):
    scenario = files_scenario(tmp_path, lambda doc: doc["branches"][0].update(to="bus99"))
    assert main(["validate", str(scenario)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown bus bus99" in err
    assert len(err.strip().splitlines()) == 1


def test_empty_bus_list_fails_validation(tmp_path, capsys):
    scenario = files_scenario(tmp_path, lambda doc: doc.update(buses=[]))
    assert main(["validate", str(scenario)]) == 1
    err = capsys.readouterr().err
    assert err.strip() == "error: network failed validation: no buses"


@pytest.mark.parametrize("command", ["validate", "baseline"])
@pytest.mark.parametrize("edit, expected", [
    (lambda doc: doc["branches"][2].update(phases="ab"),
     "branch bus01->bus03: phases ab not those of bus bus03"),
    (lambda doc: doc["branches"][2].update(phases="aa"),
     "branch bus01->bus03: phases aa not those of bus bus03"),
    (lambda doc: doc["buses"][3].update(phases="aa"), "bus bus03: invalid phase set 'aa'"),
    (lambda doc: doc["buses"][1].update(phases="abca"), "bus bus01: invalid phase set 'abca'"),
], ids=["extra-branch-phase", "repeated-branch-phase", "repeated-bus-phase",
        "repeated-trunk-phase"])
def test_phase_layout_fails_validation(tmp_path, capsys, command, edit, expected):
    """A branch carries exactly the phases of the bus it feeds, and a bus's
    phases are distinct: anything else is one validation line, not a traceback."""
    scenario = files_scenario(tmp_path, edit)
    assert main([command, str(scenario), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: network failed validation: {expected}\n"
    assert not (tmp_path / "o").exists()


def _repeat(block, index):
    return lambda doc: doc[block].append(dict(doc[block][index]))


@pytest.mark.parametrize("command", ["validate", "baseline"])
@pytest.mark.parametrize("edit, expected", [
    (_repeat("pv", 0), "duplicate pv id pv01"),
    (_repeat("dg", 1), "duplicate dg id dg02"),
    (_repeat("storage", 0), "duplicate storage id es01"),
    (_repeat("loads", 2), "duplicate load id load03"),
    (_repeat("buses", 5), "duplicate bus id bus05; not radial: 5 branches for 7 buses"),
], ids=["pv", "dg", "storage", "load", "bus"])
def test_repeated_id_fails_validation(tmp_path, capsys, command, edit, expected):
    """The LP and every result key a device by its class and id, so a
    repeated one is one validation line, not a traceback from the LP; a
    repeated bus names no bus as disconnected."""
    scenario = files_scenario(tmp_path, edit)
    assert main([command, str(scenario), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: network failed validation: {expected}\n"


def test_device_id_may_repeat_across_classes(tmp_path, capsys):
    scenario = files_scenario(tmp_path, _set("dg", 0, "id", "pv01"))
    assert main(["validate", str(scenario)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def _nan_first_profile_value(tmp_path):
    path = tmp_path / "net" / "profiles.csv"
    lines = path.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",nan"
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("edit, profiles, expected", [
    (lambda doc: None, _nan_first_profile_value, "non-finite forecast_w"),
    (lambda doc: doc["pv"][0].update(capacity_va=float("nan")), None,
     "non-finite capacity_va"),
    (lambda doc: doc["branches"][0].update(flow_limit_va=float("inf")), None,
     "non-finite flow_limit_va"),
], ids=["nan-profile", "nan-rating", "infinite-limit"])
def test_non_finite_network_number_fails_validation(tmp_path, capsys, edit, profiles,
                                                    expected):
    scenario = files_scenario(tmp_path, edit)
    if profiles is not None:
        profiles(tmp_path)
    assert main(["baseline", str(scenario), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: network failed validation:") and expected in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("edit, expected", [
    (lambda doc: doc["storage"][0].update(capacity_va=-1.0),
     "storage es01: capacity must be positive"),
    (lambda doc: doc["base"].update(power_va=0), "base: power_va must be positive"),
    (lambda doc: doc["base"].update(voltage_ll_v=-4160.0),
     "base: voltage_ll_v must be positive"),
], ids=["storage-capacity", "base-power", "base-voltage"])
def test_non_positive_network_quantity_fails_validation(tmp_path, capsys, edit, expected):
    scenario = files_scenario(tmp_path, edit)
    assert main(["baseline", str(scenario), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: network failed validation:") and expected in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("block, index, key", [
    ("pv", 0, "capacity_va"),
    ("dg", 0, "capacity_va"),
    ("storage", 0, "initial_soc_wh"),
    ("loads", 0, "power_factor"),
    ("branches", 0, "flow_limit_va"),
    ("buses", 1, "v_max"),
    ("base", None, "power_va"),
], ids=["pv-rating", "dg-rating", "storage-soc", "power-factor", "flow-limit",
        "voltage-bound", "base-power"])
@pytest.mark.parametrize("value", ["big", None, [1.0]], ids=["string", "null", "array"])
def test_wrong_json_type_in_network_is_input_error(tmp_path, capsys, block, index, key, value):
    def edit(doc):
        obj = doc[block] if index is None else doc[block][index]
        obj[key] = value

    scenario = files_scenario(tmp_path, edit)
    assert main(["baseline", str(scenario), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: network.files:") and f"{key} must be a number" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def _profile_cells(edit):
    """A profiles edit applying `edit` to the cells of CSV line 2, the first row."""
    def apply(tmp_path):
        path = tmp_path / "net" / "profiles.csv"
        lines = path.read_text().splitlines()
        lines[1] = ",".join(edit(lines[1].split(",")))
        path.write_text("\n".join(lines) + "\n")
    return apply


def _repeat_first_profile_row(tmp_path):
    """Insert a copy of CSV line 2, with another value, as line 3."""
    path = tmp_path / "net" / "profiles.csv"
    lines = path.read_text().splitlines()
    lines.insert(2, lines[1].rsplit(",", 1)[0] + ",123456.0")
    path.write_text("\n".join(lines) + "\n")


def _set(block, index, key, value):
    return lambda doc: doc[block][index].update({key: value})


@pytest.mark.parametrize("edit, profiles, expected", [
    (_set("buses", 0, "phases", 5), None, "buses[0].phases: expected a string, got 5"),
    (_set("buses", 1, "id", 7), None, "buses[1].id: expected a string, got 7"),
    (_set("pv", 0, "bus", ["x"]), None, "pv[0].bus: expected a string, got ['x']"),
    (_set("buses", 0, "v_min", True), None, "buses[0].v_min must be a number, got True"),
    (lambda doc: doc.pop("pv"), None, "missing required field 'pv'"),
    (lambda doc: doc["horizon"].update(steps="big"), None,
     "horizon.steps: expected an integer, got 'big'"),
    (lambda doc: doc["horizon"].update(dt_hours="big"), None,
     "horizon.dt_hours must be a number, got 'big'"),
    (lambda doc: doc["branches"][0]["impedance_ohm"].update(aa=["big", 0.1]), None,
     "branches[0].impedance_ohm.aa[0] must be a number, got 'big'"),
    (lambda doc: doc["branches"][0]["impedance_ohm"].update(ba=[0.1, 0.2]), None,
     "branches[0].impedance_ohm: unknown field 'ba'"),
    (_set("storage", 0, "capacity", 1.0), None, "storage[0]: unknown field 'capacity'"),
    (lambda doc: None, _profile_cells(lambda c: ["99", *c[1:]]),
     "profiles line 2: step 99 outside [0, 4)"),
    (lambda doc: None, _profile_cells(lambda c: ["-1", *c[1:]]),
     "profiles line 2: step -1 outside [0, 4)"),
    (lambda doc: None, _profile_cells(lambda c: c[:3]), "profiles line 2: expected an integer"),
    (lambda doc: None, _profile_cells(lambda c: [*c[:2], "pv_forcast_w", c[3]]),
     "profiles line 2: unknown field 'pv_forcast_w'"),
    (lambda doc: None, _profile_cells(lambda c: [c[0], "pv99", *c[2:]]),
     "profiles line 2: pv_forecast_w for unknown entity 'pv99'"),
    (lambda doc: None, _repeat_first_profile_row,
     "profiles line 3: repeats step 0 of pv_forecast_w for pv01 (line 2)"),
], ids=["integer-phases", "integer-bus-id", "array-device-bus", "boolean-voltage-bound",
        "missing-list", "string-steps", "string-dt", "string-impedance", "unknown-phase-pair",
        "unknown-record-field", "profile-step-past-horizon", "profile-negative-step",
        "profile-three-columns", "profile-unknown-field", "profile-unknown-entity",
        "profile-repeated-row"])
def test_malformed_network_files_are_input_errors(tmp_path, capsys, edit, profiles, expected):
    scenario = files_scenario(tmp_path, edit)
    if profiles is not None:
        profiles(tmp_path)
    assert main(["validate", str(scenario)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: network.files:") and expected in err
    assert len(err.strip().splitlines()) == 1


def test_infeasible_maps_to_exit_2(tmp_path, capsys):
    scenario = small_scenario(
        tmp_path,
        uncertainty=[{"parameter": "load_desired", "entity": "load01",
                      "steps": [0, 4], "high_add_w": 9.9e7}],
    )
    assert main(["robust", str(scenario), "--out", str(tmp_path / "o")]) == 2
    assert "infeasible" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("overrides, flags", [
    ({"build": {"poly_sides": 1025}}, []),
    ({}, ["--poly-sides", "1025"]),
], ids=["field", "flag"])
def test_poly_sides_above_1024_is_input_error(tmp_path, capsys, overrides, flags):
    """The side count is bounded before any LP is built: each side is a row
    per limited branch phase or device and step."""
    scenario = small_scenario(tmp_path, **overrides)
    assert main(["validate", str(scenario), *flags]) == 1
    assert capsys.readouterr().err == "error: build: poly_sides must be at most 1024, got 1025\n"
    assert main(["validate", str(small_scenario(tmp_path)), "--poly-sides", "1024"]) == 0


def test_robust_without_box_is_input_error(tmp_path):
    scenario = small_scenario(tmp_path, uncertainty=[])
    assert main(["robust", str(scenario), "--out", str(tmp_path / "o")]) == 1


def test_validate_command(tmp_path, capsys):
    scenario = small_scenario(tmp_path)
    assert main(["validate", str(scenario)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True


def test_synth_round_trips(tmp_path):
    scenario = small_scenario(tmp_path)
    out = tmp_path / "synth"
    assert main(["synth", str(scenario), "--out", str(out)]) == 0
    from gridres.network import load_model, validate

    model = load_model(out / "network.json", out / "profiles.csv")
    assert validate(model).ok


def test_zero_width_box_matches_baseline_objective(tmp_path):
    scenario = small_scenario(
        tmp_path,
        uncertainty=[{"parameter": "load_desired", "entity": "load01",
                      "steps": [1, 3], "high_add_w": 0.0}],
    )
    out_b = tmp_path / "b"
    out_r = tmp_path / "r"
    assert main(["baseline", str(scenario), "--out", str(out_b)]) == 0
    assert main(["robust", str(scenario), "--out", str(out_r)]) == 0
    base = json.loads((out_b / "dispatch.json").read_text())["objective_value"]
    rob = json.loads((out_r / "robust.json").read_text())["objective_value"]
    assert rob == pytest.approx(base, abs=1e-7)


def test_advset_then_sampled_simulation(tmp_path):
    scenario = small_scenario(tmp_path)
    adv = tmp_path / "adv"
    assert main(["advset", str(scenario), "--out", str(adv),
                 "--project", "0", "1", "1"]) == 0
    assert (adv / "polytope.json").exists()
    assert (adv / "alpha.csv").exists()
    assert (adv / "polygon_0_1_1.csv").exists()

    sim = tmp_path / "sim"
    assert main(["simulate", str(scenario), "--out", str(sim),
                 "--robust", str(adv / "robust.json"),
                 "--polytope", str(adv / "polytope.json"),
                 "--sample", "20"]) == 0
    report = json.loads((sim / "violations.json").read_text())
    assert report["total"] == 0
    rows = (sim / "samples.csv").read_text().splitlines()
    assert len(rows) == 21  # header + one row per run


def count_calls(monkeypatch, functions) -> dict[str, int]:
    """Count the calls of each (module, function) of gridres, wrapping it the
    way perfbench's tracer does: every gridres module attribute that holds
    the function, the names other modules imported included, is patched."""
    counts = {}
    modules = [m for name, m in list(sys.modules.items())
               if name == "gridres" or name.startswith("gridres.")]
    for mod_name, fn_name in functions:
        original = getattr(importlib.import_module(f"gridres.{mod_name}"), fn_name)
        key = f"{mod_name}.{fn_name}"
        counts[key] = 0

        def wrapper(*args, _fn=original, _key=key, **kwargs):
            counts[_key] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    return counts


def test_simulate_call_counts_match_the_benchmark_contract(tmp_path, monkeypatch):
    """perfbench counts `sim.runs` and `constraints.flow_calls` by wrapping
    these two functions, and checks the runs against `violations.json`: a
    sampled simulate replays once per run and solves the flow once per step
    of each, a timeline simulate replays once."""
    scenario = small_scenario(tmp_path)
    adv = tmp_path / "adv"
    assert main(["advset", str(scenario), "--out", str(adv)]) == 0
    steps = SMALL_SYNTH["steps"]
    replay = cli.run_simulation
    calls = count_calls(monkeypatch, [("sim", "run_simulation"),
                                      ("constraints", "solve_linear_flow")])
    assert cli.run_simulation is not replay  # the name the CLI imported is counted too

    assert main(["simulate", str(scenario), "--out", str(tmp_path / "timeline")]) == 0
    assert calls == {"sim.run_simulation": 1, "constraints.solve_linear_flow": steps}

    calls.update(dict.fromkeys(calls, 0))
    out = tmp_path / "sampled"
    assert main(["simulate", str(scenario), "--out", str(out),
                 "--robust", str(adv / "robust.json"), "--polytope", str(adv / "polytope.json"),
                 "--sample", "7"]) == 0
    assert calls == {"sim.run_simulation": 7, "constraints.solve_linear_flow": 7 * steps}
    assert json.loads((out / "violations.json").read_text())["runs"] == 7


@pytest.mark.parametrize("triple, expected", [
    (["0", "0", "1"], "error: --project axes (0, 0) must differ"),
    (["0", "2", "1"], "error: --project axes (0, 2) out of range"),
    (["-1", "0", "1"], "error: --project axes (-1, 0) out of range"),
    (["0", "1", "9"], "error: --project step 9 was not characterized"),
    (["0", "1", "1", "--project", "0", "1", "2", "--project", "0", "1", "1"],
     "error: --project 0 1 1 is given twice"),
], ids=["same-axes", "axis-out-of-range", "negative-axis", "step-not-characterized",
        "repeated-triple"])
def test_bad_projection_fails_before_any_solve(tmp_path, capsys, monkeypatch, triple, expected):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking --project")

    monkeypatch.setattr("gridres.cli.solve_baseline", no_solve)
    scenario = small_scenario(tmp_path, advset_steps=[1, 2])
    out = tmp_path / "o"
    assert main(["advset", str(scenario), "--out", str(out), "--project", *triple]) == 1
    assert capsys.readouterr().err == expected + "\n"
    assert not out.exists() or not any(out.iterdir())


def test_empty_advset_steps_fails_before_any_solve(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking advset_steps")

    monkeypatch.setattr("gridres.cli.solve_baseline", no_solve)
    scenario = small_scenario(tmp_path, advset_steps=[])
    out = tmp_path / "o"
    assert main(["advset", str(scenario), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: advset_steps is empty; no step to characterize\n"
    assert not out.exists() or not any(out.iterdir())


def test_simulate_timeline(tmp_path):
    scenario = small_scenario(tmp_path)
    out = tmp_path / "sim"
    assert main(["simulate", str(scenario), "--out", str(out)]) == 0
    assert (out / "trajectory.csv").exists()
    report = json.loads((out / "violations.json").read_text())
    assert report["total"] == 0


def test_sample_without_polytope_is_input_error(tmp_path, capsys):
    scenario = small_scenario(tmp_path)
    assert main(["simulate", str(scenario), "--out", str(tmp_path / "o"),
                 "--sample", "5"]) == 1
    assert "polytope" in capsys.readouterr().err


POLY = {"step": 1, "axes": [{"kind": "dg_capacity_loss", "entity": "dg01"}],
        "alpha_w": [1000.0]}


@pytest.mark.parametrize("sample, steps, expected", [
    ("-1", {"1": POLY}, "--sample must be at least 1"),
    ("5", {}, "no steps"),
    ("5", {"4": {**POLY, "step": 4}}, "step 4 outside the horizon"),
    ("5", {"1": {**POLY, "axes": [{"kind": "dg_capacity_loss", "entity": "dg99"}]}},
     "unknown entity 'dg99'"),
    ("5", {"1": {**POLY, "alpha_w": [1000.0, 0.0]}}, "alpha_w has 2 entries for 1 axes"),
    ("5", {"1": {**POLY, "alpha_w": [float("nan")]}},
     "steps.1.alpha_w[0]: expected a finite number, got nan"),
    ("5", {"1": {**POLY, "alpha_w": [float("inf")]}},
     "steps.1.alpha_w[0]: expected a finite number, got inf"),
    ("5", {"1": {**POLY, "alpha_w": [-1000.0]}},
     "steps.1.alpha_w: expected no negative entry, got [-1000.0]"),
    ("5", {"1": {**POLY, "alpha_w": [True]}}, "steps.1.alpha_w[0] must be a number, got True"),
    ("5", {"1": {**POLY, "axes": [{"kind": "dg_capacity_loss", "entity": "dg01",
                                   "cap_w": "big"}]}},
     "steps.1.axes[0].cap_w must be a number, got 'big'"),
    ("5", {"1": {**POLY, "axes": [{"kind": "dg_capacity_loss", "entity": "dg01",
                                   "cap_w": -5.0}]}},
     "steps.1.axes[0]: cap_w must be a non-negative number, got -5.0"),
    ("5", {"1": {**POLY, "axes": [{"kind": "dg_capacity_loss", "entity": "dg01",
                                   "cap_w": float("inf")}]}},
     "steps.1.axes[0]: cap_w must be finite, got inf; null means no cap"),
    ("5", {"1": {**POLY, "alpha": [1000.0]}}, "steps.1: unknown field 'alpha'"),
    ("5", {"2": POLY}, "steps.2.step: expected 2, got 1"),
    ("5", {"1": {**POLY, "axes": [{"kind": "dg_capacity_loss", "entity": ["dg01"]}]}},
     "steps.1.axes[0].entity: expected a string, got ['dg01']"),
], ids=["negative-count", "no-steps", "step-past-horizon", "unknown-entity", "alpha-length",
        "nan-alpha", "infinite-alpha", "negative-alpha", "boolean-alpha", "string-cap",
        "negative-cap", "infinite-cap", "unknown-field", "key-not-step", "array-entity"])
def test_bad_sample_input_is_input_error(tmp_path, capsys, sample, steps, expected):
    scenario = small_scenario(tmp_path)
    polytope = tmp_path / "polytope.json"
    polytope.write_text(json.dumps({"steps": steps}))
    assert main(["simulate", str(scenario), "--out", str(tmp_path / "o"),
                 "--polytope", str(polytope), "--sample", sample]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and expected in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("flags, expected", [
    (["--polytope", "missing.json"], "error: --polytope needs --sample"),
    (["--polytope", "polytope.json"], "error: --polytope needs --sample"),
    (["--sample-seed", "3"], "error: --sample-seed needs --sample"),
    (["--robust", "missing.json", "--sample-seed", "3"], "error: --sample-seed needs --sample"),
], ids=["missing-polytope", "polytope", "sample-seed", "sample-seed-before-robust"])
def test_sample_flag_without_sample_is_input_error(tmp_path, capsys, monkeypatch, flags,
                                                   expected):
    monkeypatch.chdir(tmp_path)
    scenario = small_scenario(tmp_path)
    (tmp_path / "polytope.json").write_text(json.dumps({"steps": {"1": POLY}}))
    out = tmp_path / "o"
    assert main(["simulate", str(scenario), "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err == expected + "\n"
    assert not out.exists() or not any(out.iterdir())


def test_negative_sample_seed_is_input_error(tmp_path, capsys):
    scenario = small_scenario(tmp_path)
    polytope = tmp_path / "polytope.json"
    polytope.write_text(json.dumps({"steps": {"1": POLY}}))
    assert main(["simulate", str(scenario), "--out", str(tmp_path / "o"),
                 "--polytope", str(polytope), "--sample", "5", "--sample-seed", "-5"]) == 1
    err = capsys.readouterr().err
    assert err == "error: --sample-seed: expected a non-negative integer, got -5\n"


@pytest.mark.parametrize("robust", [False, True], ids=["solved", "read"])
@pytest.mark.parametrize("flags, expected", [
    (["--sample", "0", "--polytope", "polytope.json"], "error: --sample must be at least 1"),
    (["--sample", "5", "--sample-seed", "-5", "--polytope", "polytope.json"],
     "error: --sample-seed: expected a non-negative integer, got -5"),
    (["--sample", "5"], "error: --sample needs --polytope pointing at an advset output"),
], ids=["zero-sample", "negative-sample-seed", "sample-without-polytope"])
def test_bad_sample_flag_fails_before_any_read_or_solve(tmp_path, capsys, monkeypatch, flags,
                                                        expected, robust):
    def no_call(*args, **kwargs):
        raise AssertionError("read or solved the schedule before checking the flags")

    monkeypatch.setattr("gridres.cli.solve_robust", no_call)
    monkeypatch.setattr("gridres.cli.RobustResult.from_json_dict", no_call)
    monkeypatch.chdir(tmp_path)
    scenario = small_scenario(tmp_path)
    (tmp_path / "polytope.json").write_text(json.dumps({"steps": {"1": POLY}}))
    (tmp_path / "robust.json").write_text("{}")
    out = tmp_path / "o"
    schedule = ["--robust", "robust.json"] if robust else []
    assert main(["simulate", str(scenario), "--out", str(out), *schedule, *flags]) == 1
    assert capsys.readouterr().err == expected + "\n"
    assert not out.exists() or not any(out.iterdir())


@pytest.fixture(scope="module")
def headroom_file(tmp_path_factory):
    """The small scenario and the robust.json of its `advset` run."""
    tmp = tmp_path_factory.mktemp("headroom")
    scenario = small_scenario(tmp)
    assert main(["advset", str(scenario), "--out", str(tmp / "adv")]) == 0
    return scenario, json.loads((tmp / "adv" / "robust.json").read_text())


def _set_item(*path_and_value):
    """An edit of a JSON document that sets the item at a key path."""
    *path, key, value = path_and_value

    def edit(doc):
        for k in path:
            doc = doc[k]
        doc[key] = value
    return edit


def _delete_item(*path):
    def edit(doc):
        for k in path[:-1]:
            doc = doc[k]
        del doc[path[-1]]
    return edit


@pytest.mark.parametrize("edit, expected", [
    (_set_item("objective_value", "x"), "objective_value must be a number, got 'x'"),
    (lambda doc: doc["dispatch"]["dg_p_w"]["dg01"].pop(),
     "dispatch.dg_p_w.dg01: expected 4 values, got 3 values"),
    (_delete_item("dispatch", "dg_p_w", "dg01"),
     "dispatch.dg_p_w.dg01: expected 4 values, got no series"),
    (_delete_item("reserves", "up", "dg:dg01"),
     "reserves.up.dg:dg01: expected 4 values, got no series"),
    (_set_item("reserves", []), "reserves: expected a JSON object, got []"),
    (_set_item("dispatch", 5), "dispatch: expected a JSON object, got 5"),
    (_set_item("worst_up_w", 0, None), "worst_up_w[0] must be a number, got None"),
    (_set_item("dispatch", "soc_wh", "es01", 1, float("nan")),
     "dispatch.soc_wh.es01[1]: expected a finite number, got nan"),
    (_set_item("reserve", 0.0), "unknown field 'reserve'"),
    (_set_item("reserve_cost", 10**400), "reserve_cost: number too large for a float"),
    (_set_item("reserves", "up", "dg:dg01", 1, -1.0),
     "reserves.up.dg:dg01: expected no negative entry, got ["),
    (_set_item("reserves", "down", "load:load01", 0, -1.0e9),
     "reserves.down.load:load01: expected no negative entry, got [-1000000000.0, "),
], ids=["string-objective", "short-series", "missing-device", "missing-reserve",
        "reserves-array", "dispatch-number", "null-in-series", "nan-in-series", "unknown-field",
        "huge-integer-cost", "negative-up-reserve", "negative-down-reserve"])
def test_bad_robust_file_is_input_error(tmp_path, capsys, headroom_file, edit, expected):
    scenario, doc = headroom_file
    doc = json.loads(json.dumps(doc))
    edit(doc)
    robust = tmp_path / "robust.json"
    robust.write_text(json.dumps(doc))
    assert main(["simulate", str(scenario), "--out", str(tmp_path / "o"),
                 "--robust", str(robust)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --robust {robust}: ") and expected in err
    assert len(err.strip().splitlines()) == 1


def test_byte_identical_reruns(tmp_path):
    """Repeated seeded runs of every subcommand write identical files."""
    scenario = small_scenario(tmp_path)
    for command, extra in (
        ("baseline", []),
        ("robust", []),
        ("synth", []),
        ("advset", []),
    ):
        a = tmp_path / f"{command}_a"
        b = tmp_path / f"{command}_b"
        assert main([command, str(scenario), "--out", str(a), *extra]) == 0
        assert main([command, str(scenario), "--out", str(b), *extra]) == 0
        assert read_bytes_except_manifest(a) == read_bytes_except_manifest(b), command

    adv = tmp_path / "advset_a"
    for tag, extra in (
        ("sim", ["--robust", str(adv / "robust.json")]),
        ("samp", ["--robust", str(adv / "robust.json"),
                  "--polytope", str(adv / "polytope.json"), "--sample", "10"]),
    ):
        a = tmp_path / f"{tag}_a"
        b = tmp_path / f"{tag}_b"
        assert main(["simulate", str(scenario), "--out", str(a), *extra]) == 0
        assert main(["simulate", str(scenario), "--out", str(b), *extra]) == 0
        assert read_bytes_except_manifest(a) == read_bytes_except_manifest(b), tag


def test_seed_override_changes_synth_output(tmp_path):
    scenario = small_scenario(tmp_path)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["synth", str(scenario), "--out", str(a)]) == 0
    assert main(["synth", str(scenario), "--out", str(b), "--seed", "99"]) == 0
    assert (a / "network.json").read_bytes() != (b / "network.json").read_bytes()


def test_manifest_digest_detects_tamper(tmp_path):
    scenario = small_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["baseline", str(scenario), "--out", str(out)]) == 0
    digest_before = json.loads((out / "manifest.json").read_text())["inputs"][str(scenario)]
    text = scenario.read_text().replace('"seed": 11', '"seed": 12')
    scenario.write_text(text)
    out2 = tmp_path / "out2"
    assert main(["baseline", str(scenario), "--out", str(out2)]) == 0
    digest_after = json.loads((out2 / "manifest.json").read_text())["inputs"][str(scenario)]
    assert digest_before != digest_after


def test_dump_lp_flag(tmp_path):
    scenario = small_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["baseline", str(scenario), "--out", str(out), "--dump-lp"]) == 0
    text = (out / "problem.lp").read_text()
    assert text.startswith("\\ small-baseline\nMinimize")


def test_shipped_scenarios_load():
    for name in ("lshl.json", "hsll.json", "cyber_event.json"):
        from gridres.scenario import load_scenario

        scenario = load_scenario(SCENARIOS / name)
        assert scenario.model.steps == 12


def test_docs_sixbus_example_runs(tmp_path):
    """The documented 6-bus example loads, validates, and solves end to end."""
    docs = Path(__file__).resolve().parent.parent / "docs" / "examples"
    from gridres.network import load_model, validate

    model = load_model(docs / "sixbus_network.json", docs / "sixbus_profiles.csv")
    assert validate(model).ok

    out = tmp_path / "out"
    assert main(["robust", str(docs / "sixbus_scenario.json"), "--out", str(out)]) == 0
    assert main(["simulate", str(docs / "sixbus_scenario.json"),
                 "--out", str(tmp_path / "sim"),
                 "--robust", str(out / "robust.json")]) == 0
    report = json.loads((tmp_path / "sim" / "violations.json").read_text())
    assert report["total"] == 0


def test_unknown_axis_entity_is_input_error(tmp_path, capsys):
    scenario = small_scenario(
        tmp_path, axes=[{"kind": "dg_capacity_loss", "entity": "dg99"}]
    )
    assert main(["advset", str(scenario), "--out", str(tmp_path / "o")]) == 1
    assert "dg99" in capsys.readouterr().err


def test_duplicate_axis_is_input_error(tmp_path, capsys):
    axis = {"kind": "dg_capacity_loss", "entity": "dg01"}
    scenario = small_scenario(tmp_path, axes=[axis, axis])
    assert main(["advset", str(scenario), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: axes[1]: duplicate axis")
    assert len(err.strip().splitlines()) == 1


def test_baseline_infeasible_maps_to_exit_2(tmp_path):
    scenario = small_scenario(
        tmp_path,
        network={"synth": {"buses": 6, "steps": 4, "dt_hours": 0.25,
                           "profile": "event_day", "initial_soc": "low",
                           "peak_load_w": 2.0e7, "peak_load_var": 1.0e7,
                           "n_loads": 3, "n_pv": 2, "n_dg": 2, "n_storage": 1,
                           "trunk_limit_va": 1.0e7, "lateral_limit_va": 1.0e7}},
        uncertainty=[], timeline=[],
    )
    assert main(["baseline", str(scenario), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("flags, expected", [
    (["--seed", "abc"], "error: argument --seed: invalid int value: 'abc'"),
    (["--bogus"], "error: unrecognized arguments: --bogus"),
    (["--project", "0", "1"], "error: argument --project: expected 3 arguments"),
], ids=["bad-seed", "unknown-flag", "short-project"])
def test_malformed_command_line_is_input_error(tmp_path, capsys, flags, expected):
    scenario = small_scenario(tmp_path)
    out = tmp_path / "o"
    assert main(["advset", str(scenario), "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err == expected + "\n"
    assert not out.exists()


def test_missing_subcommand_is_input_error(capsys):
    assert main([]) == 1
    assert capsys.readouterr().err == "error: the following arguments are required: command\n"


@pytest.mark.parametrize("argv", [["--version"], ["-h"], ["baseline", "-h"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_out_naming_a_file_is_input_error(tmp_path, capsys):
    scenario = small_scenario(tmp_path)
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main(["baseline", str(scenario), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {out}: ")
    assert len(err.strip().splitlines()) == 1
    assert out.read_text() == "not a directory\n"


def test_unwritable_output_is_input_error(tmp_path, capsys):
    scenario = small_scenario(tmp_path)
    out = tmp_path / "o"
    (out / "dispatch.json").mkdir(parents=True)  # a directory where the file goes
    assert main(["baseline", str(scenario), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {out}: ") and "dispatch.json" in err
    assert len(err.strip().splitlines()) == 1
    assert not (out / "manifest.json").exists()


def test_validate_creates_no_out_directory(tmp_path, capsys):
    scenario = small_scenario(tmp_path)
    out = tmp_path / "o"
    assert main(["validate", str(scenario), "--out", str(out)]) == 0
    assert not out.exists()


def test_manifest_lists_every_output(tmp_path):
    """Each subcommand's manifest names exactly the files it wrote to --out."""
    scenario = small_scenario(tmp_path)
    adv = tmp_path / "advset"
    runs = {
        "baseline": ["--dump-lp"],
        "robust": ["--dump-lp"],
        "advset": ["--project", "0", "1", "1", "--project", "1", "0", "2"],
        "simulate": [],
        "sample": ["--robust", str(adv / "robust.json"),
                   "--polytope", str(adv / "polytope.json"), "--sample", "5"],
        "synth": [],
    }
    for tag, flags in runs.items():
        command = "simulate" if tag == "sample" else tag
        out = tmp_path / tag
        assert main([command, str(scenario), "--out", str(out), *flags]) == 0, tag
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert manifest["outputs"] == written, tag
        assert written, tag
