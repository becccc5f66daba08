"""Radial feeder data model: buses, branches, DER devices, limits, profiles.

All quantities are stored in SI units (V, VA, W, Wh, ohm); conversion to per
unit happens in the constraint builder.  The first bus in the list is the
voltage reference.  Models are plain dataclasses and should be treated as
immutable once :func:`validate` has passed.

On-disk formats (see docs/formats.md):
  * network JSON: buses / branches / devices / base quantities / horizon
  * profiles CSV with header ``time,entity_id,field,value`` (time = step index)
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np

PHASES = "abc"


def _phase_key(pair: str) -> str:
    a, b = sorted(pair)
    return a + b


@dataclass
class Bus:
    id: str
    phases: str  # distinct letters of "abc"
    v_min: float = 0.95  # pu magnitude
    v_max: float = 1.05


@dataclass
class Branch:
    from_bus: str
    to_bus: str
    phases: str  # those of the bus it feeds
    impedance_ohm: dict[str, complex]  # keyed by sorted phase pair, e.g. "aa", "ab"
    flow_limit_va: float  # per phase

    @property
    def id(self) -> str:
        return f"{self.from_bus}->{self.to_bus}"

    def z(self, p: str, q: str) -> complex:
        return self.impedance_ohm.get(_phase_key(p + q), 0j)

    def other_end(self, bus_id: str) -> str:
        return self.from_bus if self.to_bus == bus_id else self.to_bus


@dataclass
class PvUnit:
    id: str
    bus: str
    capacity_va: float  # inverter rating
    forecast_w: np.ndarray  # available active power per step


@dataclass
class DgUnit:
    id: str
    bus: str
    capacity_va: float  # rated size


@dataclass
class StorageUnit:
    id: str
    bus: str
    power_w: float  # max |charge/discharge|
    energy_min_wh: float
    energy_max_wh: float
    capacity_va: float  # inverter rating
    initial_soc_wh: float


@dataclass
class LoadPoint:
    id: str
    bus: str
    desired_w: np.ndarray
    minimum_w: np.ndarray  # critically necessary part of the demand
    power_factor: float = 0.9  # reactive demand follows active through this

    @property
    def tan_phi(self) -> float:
        """Reactive over active power at the fixed power factor."""
        return math.tan(math.acos(self.power_factor))


@dataclass
class BaseQuantities:
    voltage_ll_v: float = 4160.0
    power_va: float = 1.0e6


@dataclass
class NetworkModel:
    buses: list[Bus]
    branches: list[Branch]
    pv_units: list[PvUnit]
    dg_units: list[DgUnit]
    storage_units: list[StorageUnit]
    loads: list[LoadPoint]
    steps: int
    dt_hours: float
    base: BaseQuantities = field(default_factory=BaseQuantities)

    @property
    def root(self) -> Bus:
        return self.buses[0]

    def devices(self):
        return [*self.pv_units, *self.dg_units, *self.storage_units, *self.loads]

    def tree(self) -> tuple[list[str], dict[str, Branch], dict[str, list[str]]]:
        """One breadth-first walk from the root: the buses in visit order, the
        branch feeding each reached non-root bus, and each bus's children in
        visit order.  Branches to an unknown bus are skipped, so that
        :func:`validate` can report them."""
        adj: dict[str, list[Branch]] = {b.id: [] for b in self.buses}
        for br in self.branches:
            if br.from_bus in adj and br.to_bus in adj:
                adj[br.from_bus].append(br)
                adj[br.to_bus].append(br)
        root = self.root.id
        order = [root]  # also the queue: the loop reaches buses as they are appended
        parent: dict[str, Branch] = {}
        children: dict[str, list[str]] = {bus_id: [] for bus_id in adj}
        for cur in order:
            for br in adj[cur]:
                nxt = br.other_end(cur)
                if nxt != root and nxt not in parent:
                    parent[nxt] = br
                    children[cur].append(nxt)
                    order.append(nxt)
        return order, parent, children


@dataclass
class ValidationReport:
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _non_finite_fields(obj) -> list[str]:
    """The numeric fields of dataclass `obj` that hold a NaN or an infinity."""
    return [f.name for f in fields(obj)
            if isinstance(value := getattr(obj, f.name), (int, float, np.ndarray))
            and not np.isfinite(value).all()]


def validate(model: NetworkModel) -> ValidationReport:
    """Check every structural invariant; an empty report means the model is usable."""
    if not model.buses:
        return ValidationReport(["no buses"])
    problems: list[str] = []
    bus_map = {}
    for b in model.buses:
        if b.id in bus_map:
            problems.append(f"duplicate bus id {b.id}")
        bus_map[b.id] = b
        if not b.phases or len(set(b.phases) & set(PHASES)) != len(b.phases):
            problems.append(f"bus {b.id}: invalid phase set {b.phases!r}")
        if not 0 < b.v_min < b.v_max:
            problems.append(f"bus {b.id}: voltage bounds must satisfy 0 < v_min < v_max")

    for br in model.branches:
        for end in (br.from_bus, br.to_bus):
            if end not in bus_map:
                problems.append(f"branch {br.id}: unknown bus {end}")
        if br.flow_limit_va <= 0:
            problems.append(f"branch {br.id}: flow_limit_va must be positive")
        for pair, z in br.impedance_ohm.items():
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                problems.append(f"branch {br.id}: non-finite impedance on {pair}")

    # connectivity and radiality, over the distinct bus ids
    if len(model.branches) != len(bus_map) - 1:
        problems.append(f"not radial: {len(model.branches)} branches for {len(bus_map)} buses")
    order, parent, _ = model.tree()
    missing = sorted(set(bus_map) - set(order))
    if missing:
        problems.append(f"disconnected buses: {', '.join(missing)}")
    elif len(model.branches) >= len(bus_map):
        problems.append("cycle detected (branch count >= bus count)")

    # phase compatibility down the tree: a branch carries its bus's phases
    if not problems:
        for bus_id, br in parent.items():
            bus = bus_map[bus_id]
            up = br.other_end(bus_id)
            if not set(br.phases) <= set(bus_map[up].phases):
                problems.append(f"branch {br.id}: phases {br.phases} not in upstream bus {up}")
            if not set(bus.phases) <= set(br.phases):
                problems.append(f"bus {bus_id}: phases {bus.phases} not carried by branch {br.id}")
            elif sorted(br.phases) != sorted(bus.phases):
                problems.append(f"branch {br.id}: phases {br.phases} not those of bus {bus_id}")

    for dev in model.devices():
        if dev.bus not in bus_map:
            problems.append(f"device {dev.id}: unknown bus {dev.bus}")
    # the LP and every result key a device by its class and id
    for label, units in (("pv", model.pv_units), ("dg", model.dg_units),
                         ("storage", model.storage_units), ("load", model.loads)):
        repeats = Counter(u.id for u in units)
        problems += [f"duplicate {label} id {i}" for i, n in repeats.items() if n > 1]

    for pv in model.pv_units:
        if pv.capacity_va <= 0:
            problems.append(f"pv {pv.id}: capacity must be positive")
        if len(pv.forecast_w) != model.steps:
            problems.append(f"pv {pv.id}: forecast length {len(pv.forecast_w)} != {model.steps}")
        elif np.any(np.asarray(pv.forecast_w) < 0):
            problems.append(f"pv {pv.id}: negative forecast")
    for dg in model.dg_units:
        if dg.capacity_va <= 0:
            problems.append(f"dg {dg.id}: capacity must be positive")
    for es in model.storage_units:
        if not 0 <= es.energy_min_wh < es.energy_max_wh:
            problems.append(f"storage {es.id}: need 0 <= energy_min < energy_max")
        if es.power_w <= 0:
            problems.append(f"storage {es.id}: power rating must be positive")
        if es.capacity_va <= 0:
            problems.append(f"storage {es.id}: capacity must be positive")
        if not es.energy_min_wh <= es.initial_soc_wh <= es.energy_max_wh:
            problems.append(f"storage {es.id}: initial SoC outside energy limits")
    for ld in model.loads:
        des = np.asarray(ld.desired_w)
        mn = np.asarray(ld.minimum_w)
        if len(des) != model.steps or len(mn) != model.steps:
            problems.append(f"load {ld.id}: profile length != {model.steps}")
        elif np.any(mn < -1e-9) or np.any(mn > des + 1e-9):
            problems.append(f"load {ld.id}: need 0 <= minimum <= desired at every step")
        if not 0 < ld.power_factor <= 1:
            problems.append(f"load {ld.id}: power factor must be in (0, 1]")

    if model.steps <= 0:
        problems.append("horizon must have at least one step")
    if model.dt_hours <= 0:
        problems.append("dt_hours must be positive")
    for name in ("power_va", "voltage_ll_v"):
        if getattr(model.base, name) <= 0:
            problems.append(f"base: {name} must be positive")

    # every rating, limit, time step and profile value must be finite
    labelled = [("horizon", model), ("base", model.base)]
    labelled += [(f"bus {b.id}", b) for b in model.buses]
    labelled += [(f"branch {br.id}", br) for br in model.branches]
    labelled += [(f"device {dev.id}", dev) for dev in model.devices()]
    for label, obj in labelled:
        problems += [f"{label}: non-finite {name}" for name in _non_finite_fields(obj)]

    return ValidationReport(problems)


# ---------------------------------------------------------------------------
# synthetic feeders


PROFILE_PRESETS: dict[str, dict[str, list[float]]] = {
    # morning: high but slowly declining load, solar ramping up
    "low_solar_high_load": {
        "load": [1.00, 0.99, 0.98, 0.97, 0.96, 0.95, 0.94, 0.93, 0.92, 0.91, 0.90, 0.89],
        "pv": [0.02, 0.10, 0.18, 0.28, 0.38, 0.48, 0.58, 0.66, 0.72, 0.76, 0.78, 0.80],
    },
    # midday: low load, abundant solar
    "high_solar_low_load": {
        "load": [0.30, 0.31, 0.32, 0.33, 0.34, 0.35, 0.36, 0.35, 0.34, 0.33, 0.32, 0.31],
        "pv": [0.82, 0.86, 0.90, 0.93, 0.95, 0.97, 0.98, 0.97, 0.95, 0.93, 0.90, 0.88],
    },
    # steady shoulder-period day used for event studies; load tracks the solar
    # ramp so the diesel requirement stays near the fleet total all day
    "event_day": {
        "load": [0.8484, 0.8585, 0.8687, 0.8788, 0.8889, 0.9041, 0.9142, 0.9244,
                 0.9345, 0.9395, 0.9446, 0.9496],
        "pv": [0.35, 0.37, 0.39, 0.41, 0.43, 0.46, 0.48, 0.50, 0.52, 0.53, 0.54, 0.55],
    },
}


@dataclass
class SynthSpec:
    """Recipe for a deterministic synthetic radial feeder.

    Aggregate ratings are split across the generated units so that their sums
    match the recipe exactly.  The defaults reproduce the aggregate ratings
    of a mid-size distribution feeder: 3.5 MW / 1.9 MVAR peak load, 2.5 MW of
    diesel, 1.77 MW of PV, and 1.5 MW / 6 MWh of storage.
    """

    buses: int = 10
    seed: int = 1
    peak_load_w: float = 3.5e6
    peak_load_var: float = 1.9e6
    dg_total_va: float = 2.5e6
    pv_total_va: float = 1.77e6
    storage_power_w: float = 1.5e6
    storage_energy_wh: float = 6.0e6
    n_dg: int = 3
    n_pv: int = 4
    n_storage: int = 3
    n_loads: int = 6
    steps: int = 12
    dt_hours: float = 5.0 / 60.0
    profile: str = "event_day"  # a key of PROFILE_PRESETS
    initial_soc: str = "mid"  # "low" | "mid" | "high" | "seeded"
    three_phase_buses: int = 3  # buses nearest the root carry all three phases
    # balanced mode keeps per-phase load exactly a third of the total, so
    # aggregate capacity arguments carry over phase by phase; it places the
    # generation fleet on the three-phase trunk and needs n_loads % 3 == 0
    balanced_phases: bool = True
    # per-phase conductor ratings; generous because reserve deployment is
    # network-blind and event response must not ride the line limits
    trunk_limit_va: float = 2.4e6
    lateral_limit_va: float = 1.8e6
    v_min: float = 0.95
    v_max: float = 1.05
    base_voltage_ll_v: float = 4160.0
    base_power_va: float = 1.0e6


def _split_total(total: float, n: int, rng: np.random.Generator, spread: float = 0.5) -> list[float]:
    """n positive parts summing to `total` exactly (last part closes the sum)."""
    if n == 1:
        return [total]
    weights = 1.0 + spread * rng.uniform(-1.0, 1.0, size=n)
    weights = weights / weights.sum()
    parts = [float(total * w) for w in weights[:-1]]
    parts.append(total - sum(parts))
    return parts


# the largest value of each size field of a recipe, checked before anything is built
SYNTH_SIZE_LIMITS = dict.fromkeys(("buses", "steps", "n_dg", "n_pv", "n_storage", "n_loads"),
                                  1000)


def synth_feeder(spec: SynthSpec) -> NetworkModel:
    """Build a deterministic radial feeder matching the recipe's aggregate ratings."""
    for name, limit in SYNTH_SIZE_LIMITS.items():
        if not 0 <= getattr(spec, name) <= limit:
            raise ValueError(f"{name} must be in [0, {limit}], got {getattr(spec, name)}")
    if spec.buses < 1:
        raise ValueError("need at least one bus")
    if spec.buses == 1 and spec.n_loads > 1:
        raise ValueError("single-bus feeder cannot host multiple load points")
    if spec.profile not in PROFILE_PRESETS:
        raise ValueError(f"unknown profile {spec.profile!r}; "
                         f"expected one of {', '.join(PROFILE_PRESETS)}")
    if spec.initial_soc not in ("low", "mid", "high", "seeded"):
        raise ValueError(f"unknown initial_soc {spec.initial_soc!r}; "
                         "expected one of low, mid, high, seeded")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=(0,)))

    n3 = min(spec.three_phase_buses, spec.buses)
    buses = []
    for i in range(spec.buses):
        phases = "abc" if i < n3 else PHASES[(i - n3) % 3]
        buses.append(Bus(f"bus{i:02d}", phases, spec.v_min, spec.v_max))

    z_base = spec.base_voltage_ll_v**2 / (3.0 * spec.base_power_va)
    branches = []
    for i in range(1, spec.buses):
        if i < n3:
            parent = i - 1  # three-phase trunk is a chain from the root
        else:
            parent = int(rng.integers(0, n3)) if n3 > 0 else int(rng.integers(0, i))
        child = buses[i]
        trunk = i < n3
        r_pu = float(rng.uniform(0.0008, 0.0020)) if trunk else float(rng.uniform(0.0015, 0.0040))
        z = (r_pu + 2.0j * r_pu) * z_base
        imped = {p + p: z for p in child.phases}
        limit = spec.trunk_limit_va if trunk else spec.lateral_limit_va
        branches.append(Branch(buses[parent].id, child.id, child.phases, imped, limit))

    model_buses = [b.id for b in buses]
    trunk_ids = model_buses[:n3]
    lateral_by_phase: dict[str, list[str]] = {p: [] for p in PHASES}
    for b in buses[n3:]:
        lateral_by_phase[b.phases].append(b.id)

    def pick(pool: list[str], n: int) -> list[str]:
        if n <= len(pool):
            idx = rng.choice(len(pool), size=n, replace=False)
        else:
            idx = rng.choice(len(pool), size=n, replace=True)
        return [pool[int(i)] for i in idx]

    preset = PROFILE_PRESETS[spec.profile]
    load_shape = np.asarray(preset["load"], dtype=float)
    pv_shape = np.asarray(preset["pv"], dtype=float)
    if len(load_shape) != spec.steps:
        # resample the 12-point presets onto the requested horizon
        xi = np.linspace(0.0, 1.0, spec.steps)
        x0 = np.linspace(0.0, 1.0, len(load_shape))
        load_shape = np.interp(xi, x0, load_shape)
        pv_shape = np.interp(xi, x0, pv_shape)

    pf = math.cos(math.atan(spec.peak_load_var / spec.peak_load_w))
    loads = []
    if spec.balanced_phases:
        if spec.n_loads % 3:
            raise ValueError("balanced_phases needs n_loads divisible by 3")
        per_group = spec.n_loads // 3
        third = spec.peak_load_w / 3.0
        group_totals = [third, third, spec.peak_load_w - 2.0 * third]
        i = 0
        for g, phase in enumerate(PHASES):
            hosts = lateral_by_phase[phase] or [model_buses[0]]
            for j, peak in enumerate(_split_total(group_totals[g], per_group, rng)):
                bus_id = hosts[j % len(hosts)]
                desired = peak * load_shape
                min_frac = float(rng.uniform(0.35, 0.55))
                loads.append(
                    LoadPoint(f"load{i + 1:02d}", bus_id, desired, min_frac * desired, pf)
                )
                i += 1
        device_pool = trunk_ids
    else:
        pool = model_buses[1:] if len(model_buses) > 1 else model_buses
        for i, (bus_id, peak) in enumerate(
            zip(pick(pool, spec.n_loads), _split_total(spec.peak_load_w, spec.n_loads, rng))
        ):
            desired = peak * load_shape
            min_frac = float(rng.uniform(0.35, 0.55))
            loads.append(
                LoadPoint(f"load{i + 1:02d}", bus_id, desired, min_frac * desired, pf)
            )
        device_pool = model_buses

    dg_caps = sorted(_split_total(spec.dg_total_va, spec.n_dg, rng), reverse=True)
    dgs = [
        DgUnit(f"dg{i + 1:02d}", bus_id, cap)
        for i, (bus_id, cap) in enumerate(zip(pick(device_pool, spec.n_dg), dg_caps))
    ]

    pv_caps = _split_total(spec.pv_total_va, spec.n_pv, rng)
    pvs = [
        PvUnit(f"pv{i + 1:02d}", bus_id, cap, cap * pv_shape)
        for i, (bus_id, cap) in enumerate(zip(pick(device_pool, spec.n_pv), pv_caps))
    ]

    es_powers = _split_total(spec.storage_power_w, spec.n_storage, rng)
    es_energies = _split_total(spec.storage_energy_wh, spec.n_storage, rng)
    storages = []
    for i, (bus_id, p, e) in enumerate(zip(pick(device_pool, spec.n_storage), es_powers, es_energies)):
        # the unit's energy capacity is its SoC ceiling; the floor protects
        # battery life, so the capacities sum to the recipe's aggregate
        e_min, e_max = 0.10 * e, e
        if spec.initial_soc == "low":
            soc0 = e_min
        elif spec.initial_soc == "high":
            soc0 = e_max
        elif spec.initial_soc == "mid":
            soc0 = 0.5 * (e_min + e_max)
        else:
            soc0 = float(rng.uniform(e_min + 0.1 * e, e_max - 0.1 * e))
        storages.append(
            StorageUnit(f"es{i + 1:02d}", bus_id, p, e_min, e_max, 1.25 * p, soc0)
        )

    model = NetworkModel(
        buses=buses,
        branches=branches,
        pv_units=pvs,
        dg_units=dgs,
        storage_units=storages,
        loads=loads,
        steps=spec.steps,
        dt_hours=spec.dt_hours,
        base=BaseQuantities(spec.base_voltage_ll_v, spec.base_power_va),
    )
    report = validate(model)
    if not report.ok:
        raise ValueError("synthesized feeder failed validation: " + "; ".join(report.problems))
    return model


# ---------------------------------------------------------------------------
# JSON field readers: each takes a JSON value and the path that names it in
# messages (``axes[0].cap_w``) and returns the value as the program uses it,
# or raises InputError naming that path.


class InputError(ValueError):
    """An input file is malformed; the message names the offending field."""


@contextmanager
def input_error(field: str):
    """Re-raise a ValueError or OSError from the block as an InputError
    whose message starts with `field`."""
    try:
        yield
    except (OSError, ValueError) as err:
        raise InputError(f"{field}: {err}" if field else str(err)) from err


def number(value, path: str) -> float:
    """A JSON number, never a boolean, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{path} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise InputError(f"{path}: number too large for a float") from None


def integer(value, path: str) -> int:
    """An integral JSON number (``4`` or ``4.0``), never a boolean, as an int."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{path}: expected an integer, got {value!r}")
    return value


def _exactly(kind: type, what: str):
    """A reader of a JSON value that is an instance of `kind`, as it is."""
    def read(value, path: str):
        if not isinstance(value, kind):
            raise InputError(f"{path}: expected {what}, got {value!r}")
        return value
    return read


string = _exactly(str, "a string")
boolean = _exactly(bool, "true or false")


def nullable(read):
    """The reader `read`, except that a JSON null reads as None."""
    return lambda value, path: None if value is None else read(value, path)


def array(read):
    """A reader of a JSON array whose items are each read by `read`."""
    def read_array(value, path: str) -> list:
        if not isinstance(value, list):
            raise InputError(f"{path}: expected a JSON array, got {value!r}")
        return [read(item, f"{path}[{i}]") for i, item in enumerate(value)]
    return read_array


def series(value, path: str) -> np.ndarray:
    """A JSON array of finite numbers, as a float array."""
    arr = np.array(array(number)(value, path), dtype=float)
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise InputError(f"{path}[{bad[0]}]: expected a finite number, got {value[bad[0]]!r}")
    return arr


def non_negative_series(value, path: str) -> np.ndarray:
    """A series (finite numbers) with no negative entry."""
    arr = series(value, path)
    if (arr < 0).any():
        raise InputError(f"{path}: expected no negative entry, got {arr.tolist()}")
    return arr


def mapping(read):
    """A reader of a JSON object with free keys, each value read by `read`."""
    return lambda value, path: {key: read(item, f"{path}.{key}") for key, item
                                in _exactly(dict, "a JSON object")(value, path).items()}


def record(required: dict, optional: dict | None = None):
    """A reader of a JSON object with a closed set of fields: each key of
    `required` must be present, each key of `optional` may be, and any other
    field is an error.  It returns the present fields, each through its
    reader.  The path of a document's root object is empty."""
    readers = {**required, **(optional or {})}

    def read_record(value, path: str) -> dict:
        at = f"{path}: " if path else ""
        if not isinstance(value, dict):
            raise InputError(f"{at}expected a JSON object, got {value!r}")
        for key in required:
            if key not in value:
                raise InputError(f"{at}missing required field {key!r}")
        for key in value:
            if key not in readers:
                raise InputError(f"{at}unknown field {key!r} = {value[key]!r}; "
                                 f"expected one of {', '.join(readers)}")
        return {key: readers[key](item, f"{path}.{key}" if path else key)
                for key, item in value.items()}
    return read_record


_READ_BY_TYPE = {"int": integer, "float": number, "str": string, "bool": boolean,
                 "float | None": nullable(number)}


def dataclass_record(cls):
    """A reader of a JSON object whose fields, all optional, are those of the
    dataclass `cls`, each read by its annotated type."""
    return record({}, {f.name: _READ_BY_TYPE[f.type] for f in fields(cls)})


# ---------------------------------------------------------------------------
# deterministic file emission: sorted JSON keys and repr-exact floats, so
# equal inputs give byte-identical files


def fmt(value: float) -> str:
    return repr(float(value))


def write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) if isinstance(v, float) else v for v in row])


def write_json(path, doc: dict) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# network files


@dataclass(frozen=True)
class RecordList:
    """How one list of bus or device records is laid out in the network file.
    Every string and number field is required and keeps its attribute name;
    each profile series is an attribute read from the profiles CSV."""

    key: str  # JSON key of the list
    attr: str  # NetworkModel attribute holding the records
    cls: type
    strings: tuple[str, ...]
    numbers: tuple[str, ...]
    series: tuple[tuple[str, str], ...] = ()  # (attribute, profiles CSV field)


NETWORK_LAYOUT = (
    RecordList("buses", "buses", Bus, ("id", "phases"), ("v_min", "v_max")),
    RecordList("pv", "pv_units", PvUnit, ("id", "bus"), ("capacity_va",),
               (("forecast_w", "pv_forecast_w"),)),
    RecordList("dg", "dg_units", DgUnit, ("id", "bus"), ("capacity_va",)),
    RecordList("storage", "storage_units", StorageUnit, ("id", "bus"),
               ("power_w", "energy_min_wh", "energy_max_wh", "capacity_va", "initial_soc_wh")),
    RecordList("loads", "loads", LoadPoint, ("id", "bus"), ("power_factor",),
               (("desired_w", "load_desired_w"), ("minimum_w", "load_minimum_w"))),
)
SERIES_FIELDS = tuple(name for rec in NETWORK_LAYOUT for _, name in rec.series)
PROFILES_HEADER = ["time", "entity_id", "field", "value"]
PHASE_PAIRS = ("aa", "ab", "ac", "bb", "bc", "cc")


def _impedance(value, path: str) -> complex:
    """``[r_ohm, x_ohm]`` as a complex impedance."""
    pair = array(number)(value, path)
    if len(pair) != 2:
        raise InputError(f"{path}: expected [r_ohm, x_ohm], got {value!r}")
    return complex(*pair)


_read_network = record({
    "base": record(dict.fromkeys(("voltage_ll_v", "power_va"), number)),
    "horizon": record({"steps": integer, "dt_hours": number}),
    "branches": array(record({
        "from": string, "to": string, "phases": string,
        "impedance_ohm": record({}, dict.fromkeys(PHASE_PAIRS, _impedance)),
        "flow_limit_va": number,
    })),
    **{rec.key: array(record({**dict.fromkeys(rec.strings, string),
                              **dict.fromkeys(rec.numbers, number)}))
       for rec in NETWORK_LAYOUT},
}, {"schema_version": integer})


def to_json_dict(model: NetworkModel) -> dict:
    doc = {
        "schema_version": 1,
        "base": {"voltage_ll_v": model.base.voltage_ll_v, "power_va": model.base.power_va},
        "horizon": {"steps": model.steps, "dt_hours": model.dt_hours},
        "branches": [
            {"from": br.from_bus, "to": br.to_bus, "phases": br.phases,
             "impedance_ohm": {pair: [z.real, z.imag]
                               for pair, z in sorted(br.impedance_ohm.items())},
             "flow_limit_va": br.flow_limit_va}
            for br in model.branches
        ],
    }
    for rec in NETWORK_LAYOUT:
        doc[rec.key] = [{name: getattr(u, name) for name in rec.strings + rec.numbers}
                        for u in getattr(model, rec.attr)]
    return doc


def profiles_rows(model: NetworkModel) -> list[tuple[int, str, str, float]]:
    series = [(u, attr, name) for rec in NETWORK_LAYOUT for u in getattr(model, rec.attr)
              for attr, name in rec.series]
    return [(k, u.id, name, float(getattr(u, attr)[k]))
            for k in range(model.steps) for u, attr, name in series]


def save_model(model: NetworkModel, network_path, profiles_path) -> None:
    write_json(network_path, to_json_dict(model))
    write_csv(profiles_path, PROFILES_HEADER, profiles_rows(model))


def _profile_series(profiles, steps: int, doc: dict) -> dict[tuple[str, str], np.ndarray]:
    """Every profile series of the records in `doc`, keyed by (entity, CSV
    field); a value the profiles omit is zero.  A bad row is named by its
    line in the profiles CSV, whose header is line 1."""
    series = {(d["id"], name): np.zeros(max(steps, 0))  # validate() reports steps < 1
              for rec in NETWORK_LAYOUT for d in doc[rec.key] for _, name in rec.series}
    first_line: dict[tuple[int, str, str], int] = {}
    for line, (k, ent, name, value) in enumerate(profiles, start=2):
        if name not in SERIES_FIELDS:
            raise InputError(f"profiles line {line}: unknown field {name!r}; "
                             f"expected one of {', '.join(SERIES_FIELDS)}")
        if (ent, name) not in series:
            raise InputError(f"profiles line {line}: {name} for unknown entity {ent!r}")
        if not 0 <= k < steps:
            raise InputError(f"profiles line {line}: step {k} outside [0, {steps})")
        first = first_line.setdefault((k, ent, name), line)
        if first != line:
            raise InputError(f"profiles line {line}: repeats step {k} of {name} for {ent} "
                             f"(line {first})")
        series[(ent, name)][k] = value
    return series


def from_json_dict(doc: dict, profiles: list[tuple[int, str, str, float]]) -> NetworkModel:
    doc = _read_network(doc, "")
    if doc.get("schema_version", 1) != 1:
        raise InputError(f"schema_version: expected 1, got {doc['schema_version']}")
    steps = doc["horizon"]["steps"]
    series = _profile_series(profiles, steps, doc)
    return NetworkModel(
        branches=[Branch(d["from"], d["to"], d["phases"], d["impedance_ohm"], d["flow_limit_va"])
                  for d in doc["branches"]],
        steps=steps,
        dt_hours=doc["horizon"]["dt_hours"],
        base=BaseQuantities(**doc["base"]),
        **{rec.attr: [rec.cls(**d, **{attr: series[(d["id"], name)] for attr, name in rec.series})
                      for d in doc[rec.key]]
           for rec in NETWORK_LAYOUT},
    )


def read_profiles_csv(path) -> list[tuple[int, str, str, float]]:
    rows = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != PROFILES_HEADER:
            raise InputError(f"profiles line 1: expected the header "
                             f"{','.join(PROFILES_HEADER)}, got {header}")
        for line, rec in enumerate(reader, start=2):
            try:
                k, ent, name, value = rec
                rows.append((int(k), ent, name, float(value)))
            except ValueError:
                raise InputError(f"profiles line {line}: expected an integer step, an "
                                 f"entity, a field and a number, got {rec}") from None
    return rows


def load_model(network_path, profiles_path) -> NetworkModel:
    with open(network_path) as f:
        doc = json.load(f)
    return from_json_dict(doc, read_profiles_csv(profiles_path))
