"""Metamorphic relations: the answers must not depend on how the input is written.

Each relation rewrites a scenario's network and profile files, and the
scenario document where it names them, into an equivalent input, reloaded
through `network.files`:

    R1  permute buses[1:], the branches, each device list and the profile rows;
    R2  swap `from` and `to` on every branch;
    R3  rename every bus and device id, in the network, the profile rows and
        the scenario's uncertainty, axes and timeline entities alike;
    R4  double `base.power_va`;
    R5  split the first branch into two half-impedance segments through a
        new bus with no devices and the phases and voltage limits of the bus
        it feeds;
    R6  split one device of each class, one that no axis, box entry or
        timeline event names, into two identical halves on its bus: its
        ratings, energies, initial state of charge and profile rows halved.

The baseline and robust objectives in physical units (the reported pu
objective times `base.power_va`) and every alpha of the scenario's `advset`
characterization must match the unchanged files' to 1e-9 relative.  The
schedules are not compared: at a degenerate optimum they move with the
simplex's choice of vertex.
"""

import json
import random
from pathlib import Path

import pytest

from gridres.advset import characterize_steps
from gridres.dispatch import solve_baseline
from gridres.network import save_model
from gridres.robust import ReserveSchedule, solve_robust
from gridres.scenario import load_scenario

ROOT = Path(__file__).resolve().parents[1]
SIXBUS = ROOT / "docs" / "examples" / "sixbus_scenario.json"
REL = 1e-9


def permute(doc: dict, network: dict, profiles: list[str], rng: random.Random) -> None:
    """R1, in place: every list reordered, the root kept first."""
    root, *rest = network["buses"]
    rng.shuffle(rest)
    network["buses"] = [root, *rest]
    for key in ("branches", "pv", "dg", "storage", "loads"):
        rng.shuffle(network[key])
    rng.shuffle(profiles)


def reverse(doc: dict, network: dict, profiles: list[str], rng: random.Random) -> None:
    """R2, in place: every branch written the other way round."""
    for br in network["branches"]:
        br["from"], br["to"] = br["to"], br["from"]


DEVICE_LISTS = ("pv", "dg", "storage", "loads")


def rename(doc: dict, network: dict, profiles: list[str], rng: random.Random) -> None:
    """R3, in place: every id replaced by a new one, drawn so that the new
    ids sort in a different order from the old."""
    old = [rec["id"] for key in ("buses", *DEVICE_LISTS) for rec in network[key]]
    new = [f"n{j:03d}" for j in range(len(old))]
    rng.shuffle(new)
    name = dict(zip(old, new))
    for key in ("buses", *DEVICE_LISTS):
        for rec in network[key]:
            rec["id"] = name[rec["id"]]
            if "bus" in rec:
                rec["bus"] = name[rec["bus"]]
    for br in network["branches"]:
        br["from"], br["to"] = name[br["from"]], name[br["to"]]
    for j, row in enumerate(profiles):
        time, entity, rest = row.split(",", 2)
        profiles[j] = ",".join((time, name[entity], rest))
    for key in ("uncertainty", "axes", "timeline"):
        for entry in doc.get(key, []):
            entry["entity"] = name[entry["entity"]]


def rebase(doc: dict, network: dict, profiles: list[str], rng: random.Random) -> None:
    """R4, in place: the base power doubled, every physical quantity kept."""
    network["base"]["power_va"] *= 2.0


def split_branch(doc: dict, network: dict, profiles: list[str], rng: random.Random) -> None:
    """R5, in place: the first branch A -> B becomes A -> M -> B, each
    segment with half its impedance and the whole of its flow limit, M a new
    bus with no devices and B's phases and voltage limits."""
    branch = network["branches"][0]
    fed = next(bus for bus in network["buses"] if bus["id"] == branch["to"])
    middle = {**fed, "id": f"{fed['id']}_split"}
    network["buses"].append(middle)
    half = {**branch, "impedance_ohm": {pair: [r / 2.0, x / 2.0]
                                        for pair, (r, x) in branch["impedance_ohm"].items()}}
    network["branches"][0] = {**half, "to": middle["id"]}
    network["branches"].append({**half, "from": middle["id"]})


# the fields of each device list that scale with a unit's size; a split unit's
# profile rows (a load's demand, a PV unit's forecast) are halved as well
HALVED = {"pv": ("capacity_va",), "dg": ("capacity_va",),
          "storage": ("capacity_va", "power_w", "energy_min_wh", "energy_max_wh",
                      "initial_soc_wh"),
          "loads": ()}


def halve(doc: dict, network: dict, profiles: list[str], rng: random.Random) -> None:
    """R6, in place: per class, the first device that the scenario's
    uncertainty, axes and timeline do not name becomes two halves, `<id>`
    and `<id>_half`, on its bus."""
    named = {entry["entity"] for key in ("uncertainty", "axes", "timeline")
             for entry in doc.get(key, [])}
    split = set()
    for key, fields in HALVED.items():
        free = [rec for rec in network[key] if rec["id"] not in named]
        if not free:
            continue
        rec = free[0]
        rec.update({field: rec[field] / 2.0 for field in fields})
        network[key].append({**rec, "id": f"{rec['id']}_half"})
        split.add(rec["id"])
    rows = []
    for row in profiles:
        time, entity, field, value = row.split(",")
        if entity in split:
            half = repr(float(value) / 2.0)
            rows += [",".join((time, entity, field, half)),
                     ",".join((time, f"{entity}_half", field, half))]
        else:
            rows.append(row)
    profiles[:] = rows


RELATIONS = {"R1": permute, "R2": reverse, "R3": rename, "R4": rebase, "R5": split_branch,
             "R6": halve}


def write_scenario(directory: Path, doc: dict, network: dict, profiles: list[str],
                   header: str) -> Path:
    """`doc` as a scenario in `directory` reading `network` and `profiles` from files."""
    directory.mkdir()
    (directory / "network.json").write_text(json.dumps(network))
    (directory / "profiles.csv").write_text("\n".join([header, *profiles]) + "\n")
    doc = {**doc, "network": {"files": {"network": "network.json", "profiles": "profiles.csv"}}}
    path = directory / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def answers(path: Path) -> tuple[float, float, dict[int, list[float]]]:
    """(baseline objective, robust objective, alpha per advset step) as the CLI
    gets them, the objectives times `base.power_va`."""
    sc = load_scenario(path)
    base = solve_baseline(sc.model, sc.costs, sc.build, sc.solver)
    robust = solve_robust(sc.model, sc.costs, sc.reserve_costs, sc.box, sc.build, sc.solver)
    reserves = ReserveSchedule.from_headroom(sc.model, base)
    polys = characterize_steps(sc.model, base, reserves, sc.axes, sc.advset_steps, sc.build,
                               sc.solver)
    s_base = sc.model.base.power_va
    return base.objective_value * s_base, robust.objective_value * s_base, {
        k: poly.alpha_w.tolist() for k, poly in polys.items()}


@pytest.fixture(scope="module", params=["cyber_event", "sixbus"])
def written(request, tmp_path_factory):
    """(scenario document, network document, profile rows, CSV header, answers):
    `cyber_event` exported with `save_model`, the six-bus example as shipped."""
    work = tmp_path_factory.mktemp(request.param)
    if request.param == "cyber_event":
        source = ROOT / "scenarios" / "cyber_event.json"
        save_model(load_scenario(source).model, work / "network.json", work / "profiles.csv")
        network_path, profiles_path = work / "network.json", work / "profiles.csv"
    else:
        source = SIXBUS
        files = json.loads(SIXBUS.read_text())["network"]["files"]
        network_path, profiles_path = SIXBUS.parent / files["network"], SIXBUS.parent / files["profiles"]
    doc = json.loads(source.read_text())
    network = json.loads(network_path.read_text())
    header, *profiles = profiles_path.read_text().splitlines()
    want = answers(write_scenario(work / "original", doc, network, profiles, header))
    return doc, network, profiles, header, want


@pytest.mark.parametrize("relation", sorted(RELATIONS))
def test_answers_invariant(written, relation, tmp_path):
    doc, network, profiles, header, want = written
    doc, network = json.loads(json.dumps(doc)), json.loads(json.dumps(network))
    profiles = list(profiles)
    RELATIONS[relation](doc, network, profiles, random.Random(2026))
    got = answers(write_scenario(tmp_path / relation, doc, network, profiles, header))
    assert got[0] == pytest.approx(want[0], rel=REL)
    assert got[1] == pytest.approx(want[1], rel=REL)
    assert got[2].keys() == want[2].keys()
    for k, alpha in want[2].items():
        assert got[2][k] == pytest.approx(alpha, rel=REL), f"step {k}"
