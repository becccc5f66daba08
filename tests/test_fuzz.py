"""Seeded field-mutation fuzz of the input files.

Each case makes one mutation to a shipped scenario, the six-bus example
scenario, its network file or its profiles CSV, and runs `gridres validate`
on the result; or to the six-bus example's `advset` outputs, robust.json and
polytope.json, and runs `gridres simulate --sample` on them.  Whatever the
mutation, the run must exit 0 or 1 with at most one line on stderr, and no
exception may escape.  Mutations of the six-bus example's scenario, network
and profiles also go through `gridres baseline`, which solves them; there the
run may exit with any documented code, 0 to 4.
"""

import copy
import json
import random
import shutil
from pathlib import Path

from gridres.cli import main

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs" / "examples"
SCENARIOS = ("lshl", "hsll", "cyber_event")
MUTATIONS = 240
RESULT_MUTATIONS = 240
BASELINE_MUTATIONS = 240
ODD_VALUES = [None, True, False, "x", [], {}, [1], -1, 0, 2.5, float("nan")]
ODD_STEPS = ["-1", "99", "x", "1.5", ""]


def _nodes(doc, path=()):
    """The path of every value below the JSON document `doc`."""
    if not isinstance(doc, (dict, list)):
        return []
    out = []
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        out.append((*path, key))
        out += _nodes(value, (*path, key))
    return out


def mutate_json(doc, rng: random.Random):
    """A copy of `doc` with one value replaced, removed or renamed, or one
    unknown field added, and a label naming the change."""
    doc = copy.deepcopy(doc)
    path = rng.choice(_nodes(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, old = path[-1], parent[path[-1]]
    kind = rng.choice(["odd", "odd", "number", "delete", "unknown", "rename"])
    if kind == "number" and isinstance(old, (int, float)) and not isinstance(old, bool):
        parent[key] = rng.choice([-old, old + 0.5, 0, 3 * old])
    elif kind == "delete":
        del parent[key]
    elif kind == "unknown" and isinstance(old, dict):
        old["unknown_field"] = 1
    elif kind == "rename" and isinstance(parent, dict):
        parent[key + "x"] = parent.pop(key)
    else:
        kind = "odd"
        parent[key] = rng.choice(ODD_VALUES)
    return doc, f"{kind} at {list(path)} (was {old!r})"


def mutate_csv(text: str, rng: random.Random):
    """`text` with one data row of the profiles CSV damaged, and a label."""
    lines = text.splitlines()
    line = rng.randrange(1, len(lines))
    cells = lines[line].split(",")
    kind = rng.choice(["step", "columns", "field", "entity", "value"])
    if kind == "step":
        cells[0] = rng.choice(ODD_STEPS)
    elif kind == "columns":
        cells = cells[:-1] if rng.random() < 0.5 else [*cells, "1"]
    elif kind == "field":
        cells[2] = cells[2].replace("forecast", "forcast").replace("desired", "desire")
    elif kind == "entity":
        cells[1] = "nobody"
    else:
        cells[3] = "abc"
    lines[line] = ",".join(cells)
    return "\n".join(lines) + "\n", f"{kind} on CSV line {line + 1}"


def mutated_scenarios(tmp_path, rng: random.Random, count: int, shipped=SCENARIOS):
    """`count` scenario files, each with one mutation to one of the `shipped`
    scenarios, the six-bus example scenario, its network file or its profiles
    CSV: (index, target, label, path) each."""
    for name in ("sixbus_network.json", "sixbus_profiles.csv", "sixbus_scenario.json"):
        shutil.copy(DOCS / name, tmp_path / name)
    scenarios = {name: json.loads((ROOT / "scenarios" / f"{name}.json").read_text())
                 for name in shipped}
    scenarios["sixbus"] = json.loads((DOCS / "sixbus_scenario.json").read_text())
    network = json.loads((DOCS / "sixbus_network.json").read_text())
    profiles = (DOCS / "sixbus_profiles.csv").read_text()
    files = {"network": "sixbus_network.json", "profiles": "sixbus_profiles.csv"}

    for i in range(count):
        target = rng.choice([*scenarios, "network", "profiles"])
        if target in scenarios:
            doc, label = mutate_json(scenarios[target], rng)
        else:
            doc = copy.deepcopy(scenarios["sixbus"])
            doc["network"]["files"] = {**files, target: f"mutated_{i}.{target}"}
            if target == "network":
                mutated, label = mutate_json(network, rng)
                (tmp_path / f"mutated_{i}.network").write_text(json.dumps(mutated))
            else:
                mutated, label = mutate_csv(profiles, rng)
                (tmp_path / f"mutated_{i}.profiles").write_text(mutated)
        scenario = tmp_path / f"scenario_{i}.json"
        scenario.write_text(json.dumps(doc))
        yield i, target, label, scenario


def test_mutated_inputs_exit_with_one_line(tmp_path, capsys):
    failures = []
    for i, target, label, scenario in mutated_scenarios(tmp_path, random.Random(2026),
                                                        MUTATIONS):
        problem = run_problem(["validate", str(scenario)], capsys)
        if problem:
            failures.append(f"#{i} {target}: {label}: {problem}")
    assert not failures, "\n".join(failures)


def test_mutated_inputs_solve_or_exit_with_one_line(tmp_path, capsys):
    failures = []
    for i, target, label, scenario in mutated_scenarios(tmp_path, random.Random(2026),
                                                        BASELINE_MUTATIONS, shipped=()):
        problem = run_problem(["baseline", str(scenario), "--out", str(tmp_path / "out")],
                              capsys, codes=range(5))
        if problem:
            failures.append(f"#{i} {target}: {label}: {problem}")
    assert not failures, "\n".join(failures)


def run_problem(argv: list[str], capsys, codes=(0, 1)) -> str | None:
    """What is wrong with running `argv`: an exit code not in `codes`, more
    than one line on stderr, or an escaping exception; None if nothing is."""
    try:
        code = main(argv)
    except Exception as exc:  # an escaping exception is what this test hunts
        code = f"{type(exc).__name__}: {exc}"
    err = capsys.readouterr().err
    if code not in codes or len(err.strip().splitlines()) > 1 or "Traceback" in err:
        return f"exit {code}, stderr {err!r}"
    return None


def test_mutated_result_files_exit_with_one_line(tmp_path, capsys):
    scenario = str(DOCS / "sixbus_scenario.json")
    adv = tmp_path / "advset"
    assert main(["advset", scenario, "--out", str(adv)]) == 0
    capsys.readouterr()
    docs = {name: json.loads((adv / f"{name}.json").read_text())
            for name in ("robust", "polytope")}
    rng = random.Random(2026)
    failures = []
    for i in range(RESULT_MUTATIONS):
        files = {name: adv / f"{name}.json" for name in docs}
        target = rng.choice(sorted(docs))
        doc, label = mutate_json(docs[target], rng)
        files[target] = tmp_path / f"mutated_{i}.json"
        files[target].write_text(json.dumps(doc))
        problem = run_problem(["simulate", scenario, "--out", str(tmp_path / "out"),
                               "--robust", str(files["robust"]),
                               "--polytope", str(files["polytope"]), "--sample", "3"], capsys)
        if problem:
            failures.append(f"#{i} {target}.json: {label}: {problem}")
    assert not failures, "\n".join(failures)
