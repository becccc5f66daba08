"""Lower feeder physics and device limits into linear-program rows.

The linearized branch-flow voltage equation used throughout is, per branch
(n upstream -> m downstream), phase, and step:

    w_m = w_n - 2 (r_eff P + x_eff Q)

where w is the squared voltage magnitude (pu^2), P/Q the branch flow (pu,
n to m) and (r_eff + j x_eff) the effective per-phase impedance under the
balanced rotation approximation:

    z_eff(phi) = sum_psi  a_phi * conj(a_psi) * z(phi, psi),
    a = (1, e^{-j2pi/3}, e^{+j2pi/3}) for phases (a, b, c)

restricted to the branch's phases.  Off-diagonal coupling beyond this
rotation is out of scope.  Apparent-power circles |(P, Q)| <= S are replaced
by an inscribed regular polygon: for t = 0..sides-1 and theta_t =
pi(2t+1)/sides,

    cos(theta_t) P + sin(theta_t) Q <= S cos(pi/sides)

which is conservative (polygon inside the circle) and keeps every problem an
LP.

Variable ordering is deterministic: variable kind, then entity id (sorted),
then phase (a < b < c), then step.  Device injections are per device (not per
phase) and split equally across the phases of the hosting bus, a load's
withdrawn, by the shares the `RadialPlan` lays out for the balance rows and
the radial sweep alike.
A device's active and reactive columns are `ns.p` and `ns.q`, keyed by (class,
id, step), where the class is one of `DEVICE_CLASSES` (pv, dg, es, load); the
same (class, id) key names the device's reserves and its dispatch series.

Each device class's active-power window lives here and nowhere else:
`device_window` gives PV [0, forecast_k], diesel [0, rating], storage
[-P, P] (narrowed, given the energy entering a step, so the energy stays in
[e_min, e_max]) and load [minimum_k, desired_k], and `reserve_room` the room
a setpoint has inside a window, where a load's up-reserve sheds demand and
so lowers p.  The dispatch columns' bounds, the recourse bands
(:func:`gridres.advset.build_recourse_lp`) and the replay's room to move
(:mod:`gridres.sim`) read the window; the headroom reserves
(:meth:`gridres.robust.ReserveSchedule.from_headroom`) and the replay read
the room as well.

`build_feeder_lp` is the one place that lists the feeder's rows: it declares
a namespace, lays the feeder out once as a `RadialPlan`, and applies the
voltage-drop, power-balance and `emit_limits` rows emitted from that plan to
its LP.  The baseline and robust dispatch LPs and the
adversarial-set recourse LP are built by it and add only their own rows.
A namespace is declared for a set of steps, the whole horizon by default,
and every emitter emits rows for exactly the namespace's steps.  The
dispatch LPs use the whole horizon, the recourse LP a single step.  The SoC
recursion spans the horizon, so stored-energy columns are declared only for
the default whole horizon (a one-step horizon named as `steps=(0,)` gets
none), and its rows, the terminal-SoC row and the storage energy rows are
emitted only when the namespace declares SoC columns.

Each equality row names the column that starts basic in its position
(`Row.basic`, a hint to the simplex's crash start): a voltage-drop row the w
of its branch's downstream bus, a power-balance row its feeding branch's
flow (none at the root), a load power-factor row the load's q and a SoC row
that step's stored energy.  With the flows solved leaves-up and the voltages
root-down, these columns make the start basis triangular along the tree, so
only the root's balance rows start with their logical, fixed at zero.

`build_namespace` creates the step's :class:`gridres.lp.LinearProgram` as
`ns.lp` and declares every column straight into it with its final bounds:

    w (squared voltage)   [v_min^2, v_max^2]; the root fixed at 1
    p (device active)     the device window, in pu
    soc (stored energy)   [e_min, e_max]
    reserves              [0, inf)
    flows, reactive q     free

Emitters read a device's window back from `ns.lp.lower`/`ns.lp.upper`
rather than working it out again, and return plain
:class:`gridres.lp.Row` objects with every parameter at a number: no row
carries an uncertain term.  The robust dispatch reads its box once
(:func:`gridres.robust.tighten`) and passes the worst-case solar forecasts
to `emit_limits` as `pv_floor`.

Row-count formulas per tag (K = steps emitted, sides = polygon sides); the
voltage boxes and the dispatch windows are column bounds and emit no rows:
    voltage_drop     sum_branch |phases| * K
    power_balance    2 * sum_bus |phases| * K      (net injections folded in)
    power_factor     n_load * K  (+ 2 * n_pv * K when a PV gamma is set)
    storage          n_es * K recursion rows + n_es * K * sides inverter rows
                     (+ n_es terminal rows when the terminal-SoC flag is set)
    pv_cap           n_pv * K * sides
    dg_cap           n_dg * K * sides
    line_limits      sum_branch |phases| * K * sides
Reserve mode is a namespace with reserve columns: each device adds two band
rows per step, R+ <= room up and R- <= room down (tagged curtailment_bounds
for PV and loads, dg_cap, storage), and each storage unit two energy rows
per step.  `emit_limits` emits the line polygons drop by drop, then device
by device, and per step in this order: SoC recursion, load power factor,
band rows, storage energy rows, inverter polygon, PV gamma rows.

The feeder is laid out once per model by `RadialPlan.of`, the one tree walk
and device layout here.  The voltage-drop and line-limit rows are emitted
from its drops and the power-balance rows from its slots, in the model's
branch and bus order, and the device rows by position, a device's index in
`device_groups` order.  The replay sweeps the same plan with
`solve_linear_flow`, which takes no model and the device outputs by
position, and checks the same pu line limits that the LP's polygons enforce.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass

from .lp import LinearProgram, Rel, Row
from .network import NetworkModel

# uncertain-parameter key: (kind, entity id, step)
ParamKey = tuple[str, str, int]

P_DG_CAPACITY = "dg_capacity"
P_LOAD_DESIRED = "load_desired"
P_PV_FORECAST = "pv_forecast"
# the device class whose units each uncertain parameter describes
PARAM_CLASS = {P_DG_CAPACITY: "dg", P_LOAD_DESIRED: "load", P_PV_FORECAST: "pv"}

_ROTATION = {
    "a": 1.0 + 0.0j,
    "b": cmath.exp(-2j * math.pi / 3.0),
    "c": cmath.exp(2j * math.pi / 3.0),
}


@dataclass
class PerUnit:
    s_base: float
    z_base: float

    @classmethod
    def of(cls, model: NetworkModel) -> "PerUnit":
        s = model.base.power_va
        return cls(s, model.base.voltage_ll_v**2 / (3.0 * s))

    def power(self, watts: float) -> float:
        return watts / self.s_base

    def energy(self, wh: float) -> float:
        return wh / self.s_base  # pu-hours

    def impedance(self, ohm: complex) -> complex:
        return ohm / self.z_base


def effective_impedance_pu(branch, phase: str, pu: PerUnit) -> complex:
    """Balanced-rotation effective impedance seen by one phase of a branch."""
    z = 0.0 + 0.0j
    for psi in branch.phases:
        z += _ROTATION[phase] * _ROTATION[psi].conjugate() * pu.impedance(branch.z(phase, psi))
    return z


def polygon_rows(sides: int) -> list[tuple[float, float, float]]:
    """(cos, sin, offset_factor) triples for the inscribed polygon of a unit circle."""
    if sides < 3:
        raise ValueError("polygon needs at least 3 sides")
    off = math.cos(math.pi / sides)
    out = []
    for t in range(sides):
        theta = math.pi * (2 * t + 1) / sides
        out.append((math.cos(theta), math.sin(theta), off))
    return out


# the four device classes, in the order columns, reserves and series are declared
DEVICE_CLASSES = ("pv", "dg", "es", "load")


def device_groups(model: NetworkModel):
    """(class, units) for each of `DEVICE_CLASSES`, in that order."""
    return tuple(zip(DEVICE_CLASSES,
                     (model.pv_units, model.dg_units, model.storage_units, model.loads)))


def device_window(cls: str, u, k: int, scale: float = 1.0, e_in: float | None = None,
                  dt: float = 1.0) -> tuple[float, float]:
    """The active-power window (lo, hi) of device `u` of class `cls` at step k, W / `scale`.

    PV [0, forecast_k], diesel [0, rating], storage [-P, P] and load
    [minimum_k, desired_k].  Given `e_in`, the stored energy (Wh / `scale`)
    entering a step of `dt` hours, a storage window also keeps the energy at
    the end of the step inside [e_min, e_max].
    """
    if cls == "pv":
        return 0.0, float(u.forecast_w[k]) / scale
    if cls == "dg":
        return 0.0, u.capacity_va / scale
    if cls == "load":
        return float(u.minimum_w[k]) / scale, float(u.desired_w[k]) / scale
    lo, hi = -u.power_w / scale, u.power_w / scale
    if e_in is None:
        return lo, hi
    return (max(lo, (e_in - u.energy_max_wh / scale) / dt),
            min(hi, (e_in - u.energy_min_wh / scale) / dt))


def reserve_room(cls: str, lo, hi, p):
    """(up, down): how far a device at active power p can move inside [lo, hi].

    Up-reserve raises a generator's or a battery's output toward hi; a load's
    up-reserve sheds demand, lowering p toward lo.  Elementwise on arrays.
    """
    if cls == "load":
        return p - lo, hi - p
    return hi - p, p - lo


class VariableNamespace:
    """Index maps from model entities to the columns of `lp`, in documented order.

    `steps` are the time steps the namespace declares variables for; the
    emitters emit rows for exactly these steps.
    """

    def __init__(self, steps: tuple[int, ...]) -> None:
        self.steps = steps
        self.lp = LinearProgram()
        self.w: dict[tuple[str, str, int], int] = {}
        self.pflow: dict[tuple[str, str, int], int] = {}
        self.qflow: dict[tuple[str, str, int], int] = {}
        self.p: dict[tuple[str, str, int], int] = {}  # (class, id, k)
        self.q: dict[tuple[str, str, int], int] = {}
        self.soc: dict[tuple[str, int], int] = {}  # stored energy at END of step k
        self.r_up: dict[tuple[str, str, int], int] = {}  # (class, id, k)
        self.r_dn: dict[tuple[str, str, int], int] = {}
        self.dg_loss: dict[tuple[str, int], int] = {}  # (dg id, k), the robust LP's loss helpers


def build_namespace(
    model: NetworkModel,
    reserves: bool = False,
    steps: tuple[int, ...] | None = None,
) -> VariableNamespace:
    """Declare every LP column for `model` in deterministic order, with its bounds.

    Columns are declared into `ns.lp` for `steps` (default: the whole
    horizon); the stored-energy columns only by default, since the SoC
    recursion spans the horizon.  Squared voltages lie in [v_min^2, v_max^2]
    (the root fixed at 1), device active powers in their `device_window`,
    stored energies in [e_min, e_max]; flows and reactive powers are free.
    With `reserves`, the four up/down reserve classes are added per device
    and step, all non-negative.
    """
    whole_horizon = steps is None
    ns = VariableNamespace(tuple(range(model.steps)) if whole_horizon else tuple(steps))
    steps = ns.steps
    new = ns.lp.add_variable
    pu = PerUnit.of(model)

    root = model.root.id
    for bus in sorted(model.buses, key=lambda b: b.id):
        lo, hi = (1.0, 1.0) if bus.id == root else (bus.v_min**2, bus.v_max**2)
        for phase in bus.phases:
            for k in steps:
                ns.w[(bus.id, phase, k)] = new(f"w[{bus.id},{phase},{k}]", lo, hi)
    for br in sorted(model.branches, key=lambda b: b.id):
        for phase in br.phases:
            for k in steps:
                ns.pflow[(br.id, phase, k)] = new(f"pflow[{br.id},{phase},{k}]")
    for br in sorted(model.branches, key=lambda b: b.id):
        for phase in br.phases:
            for k in steps:
                ns.qflow[(br.id, phase, k)] = new(f"qflow[{br.id},{phase},{k}]")

    for cls, units in device_groups(model):
        for u in sorted(units, key=lambda d: d.id):
            for k in steps:
                ns.p[(cls, u.id, k)] = new(f"p{cls}[{u.id},{k}]",
                                           *device_window(cls, u, k, pu.s_base))
        for u in sorted(units, key=lambda d: d.id):
            for k in steps:
                ns.q[(cls, u.id, k)] = new(f"q{cls}[{u.id},{k}]")

    if whole_horizon:
        for es in sorted(model.storage_units, key=lambda d: d.id):
            e_min, e_max = pu.energy(es.energy_min_wh), pu.energy(es.energy_max_wh)
            for k in steps:
                ns.soc[(es.id, k)] = new(f"soc[{es.id},{k}]", e_min, e_max)

    if reserves:
        groups = device_groups(model)
        for cls, units in groups:
            for u in sorted(units, key=lambda d: d.id):
                for k in steps:
                    ns.r_up[(cls, u.id, k)] = new(f"rup_{cls}[{u.id},{k}]", 0.0)
        for cls, units in groups:
            for u in sorted(units, key=lambda d: d.id):
                for k in steps:
                    ns.r_dn[(cls, u.id, k)] = new(f"rdn_{cls}[{u.id},{k}]", 0.0)

    return ns


@dataclass(frozen=True)
class RadialPlan:
    """The feeder's one layout, laid out once per model: its devices, the
    radial sweep of :func:`solve_linear_flow`, the limits the replay checks
    against it, and the network and line-limit rows of the feeder LP.

    A device's position is its index in `devices`, in `device_groups` order.
    Each bus phase has a slot, in breadth-first bus order, the root's
    `n_root` slots first.  `leaves_up` holds each bus from the leaves up,
    with its devices' shares on each of its phases (1/|phases|, negated for
    a load) by position and, per phase of the bus, its slot and its
    children's slots of that phase in `model.tree()` order.
    :func:`gridres.network.validate` pins each branch to the phases of the
    bus it feeds, so each non-root slot has one feeding branch phase, its
    drop: drop d feeds slot n_root + d.  `drop_rows` and `balance_buses`
    keep the LP's rows in the model's branch and bus order.
    """

    s_base: float
    devices: tuple  # (class, unit) per position, in `device_groups` order
    position: dict[tuple[str, str], int]  # (class, id) -> position
    positions: dict[str, range]  # class -> its positions
    bus_phases: tuple[tuple[str, str], ...]  # (bus, phase) per slot
    voltage_limits: tuple[tuple[float, float], ...]  # (v_min, v_max) per slot
    leaves_up: tuple  # (((position, share), ...), ((slot, child slots), ...)) per bus
    drops: tuple[tuple[int, int, float, float], ...]  # (slot, upstream slot, r_eff, x_eff)
    flows: tuple[tuple[str, str], ...]  # (branch id, phase) per drop
    line_limits: tuple[float, ...]  # pu, per drop
    drop_rows: tuple[int, ...]  # drop per voltage-drop row
    balance_buses: tuple[int, ...]  # leaves_up index per bus of `model.buses`

    @property
    def n_root(self) -> int:  # how many slots the root has: 0 .. n_root - 1
        return len(self.bus_phases) - len(self.drops)

    @classmethod
    def of(cls, model: NetworkModel) -> "RadialPlan":
        pu = PerUnit.of(model)
        order, parent, children = model.tree()
        bus = {b.id: b for b in model.buses}
        groups = device_groups(model)
        devices = tuple((c, u) for c, units in groups for u in units)
        positions, start = {}, 0
        for c, units in groups:
            positions[c] = range(start, start + len(units))
            start += len(units)
        shares = {bus_id: [] for bus_id in bus}  # (position, share) per device of the bus
        for i, (c, u) in enumerate(devices):
            split = 1.0 / len(bus[u.bus].phases)
            shares[u.bus].append((i, (-1.0 if c == "load" else 1.0) * split))
        bus_phases = tuple((bus_id, phase) for bus_id in order for phase in bus[bus_id].phases)
        slot = {key: i for i, key in enumerate(bus_phases)}
        leaves_up = tuple(
            (tuple(shares[bus_id]),
             tuple((slot[(bus_id, phase)],
                    tuple(slot[(c, phase)] for c in children[bus_id] if phase in bus[c].phases))
                   for phase in bus[bus_id].phases))
            for bus_id in reversed(order))
        drops, flows, line_limits = [], [], []
        for bus_id in order[1:]:
            br = parent[bus_id]
            up = br.other_end(bus_id)
            for phase in bus[bus_id].phases:
                z = effective_impedance_pu(br, phase, pu)
                drops.append((slot[(bus_id, phase)], slot[(up, phase)], z.real, z.imag))
                flows.append((br.id, phase))
                line_limits.append(pu.power(br.flow_limit_va))
        n_root = len(bus_phases) - len(drops)
        fed = {br.id: bus_id for bus_id, br in parent.items()}  # the bus each branch feeds
        drop_rows = tuple(slot[(fed[br.id], phase)] - n_root
                          for br in model.branches for phase in br.phases)
        leaves_up_index = {bus_id: i for i, bus_id in enumerate(reversed(order))}
        return cls(pu.s_base, devices, {(c, u.id): i for i, (c, u) in enumerate(devices)},
                   positions, bus_phases,
                   tuple((bus[bus_id].v_min, bus[bus_id].v_max) for bus_id, _ in bus_phases),
                   leaves_up, tuple(drops), tuple(flows), tuple(line_limits), drop_rows,
                   tuple(leaves_up_index[b.id] for b in model.buses))


def emit_voltage_drop(plan: RadialPlan, ns: VariableNamespace) -> list[Row]:
    """One equality per branch-phase-step, in `plan.drop_rows` order:
    w_down = w_up - 2(r_eff P + x_eff Q), the ends as the tree reaches them,
    whichever way round the branch names them."""
    rows = []
    for d in plan.drop_rows:
        slot, up, r, x = plan.drops[d]
        (down, phase), (upper, _) = plan.bus_phases[slot], plan.bus_phases[up]
        br = plan.flows[d][0]
        for k in ns.steps:
            w = ns.w[(down, phase, k)]
            rows.append(Row({w: 1.0, ns.w[(upper, phase, k)]: -1.0,
                             ns.pflow[(br, phase, k)]: 2.0 * r,
                             ns.qflow[(br, phase, k)]: 2.0 * x},
                            Rel.EQ, 0.0, "voltage_drop", w))
    return rows


def emit_power_balance(plan: RadialPlan, ns: VariableNamespace) -> list[Row]:
    """Two equalities (P and Q) per bus-phase-step, bus by bus in
    `plan.balance_buses` order.

    Inflow - outflow + generation - load = 0: the feeding flow, the child
    flows of the phase and the devices' shares, in that order.
    Summed over the feeder these rows telescope to total generation = total
    load (the lossless-model identity).
    """
    n_root = plan.n_root
    rows = []
    for b in plan.balance_buses:
        shares, phase_slots = plan.leaves_up[b]
        devices = [(plan.devices[i], share) for i, share in shares]
        for slot, children in phase_slots:
            feed = plan.flows[slot - n_root] if slot >= n_root else None
            outflows = [plan.flows[child - n_root] for child in children]
            for k in ns.steps:
                for flow, power in ((ns.pflow, ns.p), (ns.qflow, ns.q)):  # the P row, the Q row
                    inflow = None if feed is None else flow[(*feed, k)]  # the basic hint
                    coeffs = {} if inflow is None else {inflow: 1.0}
                    for br, phase in outflows:
                        coeffs[flow[(br, phase, k)]] = -1.0
                    for (cls, u), share in devices:
                        coeffs[power[(cls, u.id, k)]] = share
                    rows.append(Row(coeffs, Rel.EQ, 0.0, "power_balance", inflow))
    return rows


def apparent_power_rows(
    p: int, q: int, s_max: float, poly: list[tuple[float, float, float]], tag: str
) -> list[Row]:
    """The inscribed polygon of |(p, q)| <= s_max, one row per side."""
    return [Row({p: cs, q: sn}, Rel.LE, s_max * off, tag) for cs, sn, off in poly]


@dataclass
class BuildOptions:
    poly_sides: int = 8
    pv_power_factor_gamma: float | None = None
    terminal_soc_geq_initial: bool = False

    def __post_init__(self) -> None:
        if self.poly_sides < 3:
            raise ValueError(f"poly_sides must be at least 3, got {self.poly_sides}")
        if self.poly_sides > 1024:  # a row per side, limited branch phase or device, and step
            raise ValueError(f"poly_sides must be at most 1024, got {self.poly_sides}")
        gamma = self.pv_power_factor_gamma
        if gamma is not None and not 0.0 <= gamma < math.inf:  # NaN fails too
            raise ValueError(f"pv_power_factor_gamma must be a non-negative finite number "
                             f"or null, got {gamma}")


# the tags of each class's band rows and of its apparent-power polygon
_BAND_TAG = {"pv": "curtailment_bounds", "dg": "dg_cap", "es": "storage",
             "load": "curtailment_bounds"}
_POLYGON_TAG = {"pv": "pv_cap", "dg": "dg_cap", "es": "storage"}


def emit_limits(
    model: NetworkModel,
    plan: RadialPlan,
    ns: VariableNamespace,
    options: BuildOptions,
    pv_floor: dict[tuple[str, int], float] | None = None,
) -> list[Row]:
    """Polygonized apparent-power limits, SoC dynamics, and load power factors.

    Rows are emitted for the namespace's steps: first the line-flow polygon
    of each drop of `plan`, in `plan.drop_rows` order (the model's branch,
    then phase order) with the drop's `plan.line_limits`, then device by
    device in position order.  The voltage boxes and dispatch windows are the
    column bounds of `ns.lp`.  When the namespace declares reserve columns
    (reserve mode), each window widens into two band rows, read off those
    bounds; a PV upper band whose (unit, step) is a key of `pv_floor` is
    capped at that floor (pu) rather than at the nominal forecast.  The SoC
    recursion, the terminal-SoC row and the storage energy rows need the
    namespace's SoC columns.
    """
    pv_floor = pv_floor or {}
    pu = PerUnit.of(model)
    lower, upper = ns.lp.lower, ns.lp.upper
    dt = model.dt_hours
    gamma = options.pv_power_factor_gamma
    poly = polygon_rows(options.poly_sides)
    soc, reserves = bool(ns.soc), bool(ns.r_up)

    rows = []
    for d in plan.drop_rows:  # line-flow polygons, one per drop
        br, phase = plan.flows[d]
        for k in ns.steps:
            rows += apparent_power_rows(ns.pflow[(br, phase, k)], ns.qflow[(br, phase, k)],
                                        plan.line_limits[d], poly, "line_limits")
    for cls, u in plan.devices:
        e0 = pu.energy(u.initial_soc_wh) if cls == "es" else None
        for k in ns.steps:
            p = ns.p[(cls, u.id, k)]
            q = ns.q[(cls, u.id, k)]
            if cls == "es" and soc:
                e = ns.soc[(u.id, k)]
                coeffs = {e: 1.0, p: dt}
                rhs = 0.0
                if k == 0:
                    rhs = e0
                else:
                    coeffs[ns.soc[(u.id, k - 1)]] = -1.0
                rows.append(Row(coeffs, Rel.EQ, rhs, "storage", e))
            if cls == "load":  # reactive power follows the fixed power factor
                rows.append(Row({q: 1.0, p: -u.tan_phi}, Rel.EQ, 0.0, "power_factor", q))
            if reserves:
                # p + R+ <= top and -p + R- <= -lo, swapped for a load
                top = pv_floor.get((u.id, k), upper[p]) if cls == "pv" else upper[p]
                minus_lo = 0.0 - lower[p]  # +0.0, not -0.0, for a zero lo
                sign, up_rhs, dn_rhs = 1.0, top, minus_lo
                if cls == "load":  # a load's up-reserve sheds demand
                    sign, up_rhs, dn_rhs = -1.0, minus_lo, top
                up, dn = ns.r_up[(cls, u.id, k)], ns.r_dn[(cls, u.id, k)]
                rows.append(Row({p: sign, up: 1.0}, Rel.LE, up_rhs, _BAND_TAG[cls]))
                rows.append(Row({p: -sign, dn: 1.0}, Rel.LE, dn_rhs, _BAND_TAG[cls]))
                if cls == "es" and soc:
                    rows.append(Row({e: 1.0, dn: dt}, Rel.LE, upper[e], "storage"))
                    rows.append(Row({e: -1.0, up: dt}, Rel.LE, -lower[e], "storage"))
            if cls in _POLYGON_TAG:
                rows += apparent_power_rows(p, q, pu.power(u.capacity_va), poly,
                                            _POLYGON_TAG[cls])
            if cls == "pv" and gamma is not None:
                rows.append(Row({q: 1.0, p: -gamma}, Rel.LE, 0.0, "power_factor"))
                rows.append(Row({q: -1.0, p: -gamma}, Rel.LE, 0.0, "power_factor"))
        if cls == "es" and soc and options.terminal_soc_geq_initial:
            rows.append(Row({ns.soc[(u.id, ns.steps[-1])]: 1.0}, Rel.GE, e0, "storage"))
    return rows


def apply_emissions(lp: LinearProgram, rows: list[Row]) -> None:
    """Append the emitters' rows to `lp` as they are: each already has int
    keys with one entry per column, a `Rel` and a float rhs."""
    lp.rows += tuple(rows)


def build_feeder_lp(
    model: NetworkModel,
    options: BuildOptions,
    steps: tuple[int, ...] | None = None,
    reserves: bool = False,
    pv_floor: dict[tuple[str, int], float] | None = None,
) -> VariableNamespace:
    """The feeder LP as `ns.lp`: the columns of `build_namespace`, then the
    voltage-drop, power-balance and `emit_limits` rows, in that order; in
    reserve mode with `reserves`."""
    ns = build_namespace(model, reserves, steps)
    plan = RadialPlan.of(model)
    apply_emissions(ns.lp, emit_voltage_drop(plan, ns))
    apply_emissions(ns.lp, emit_power_balance(plan, ns))
    apply_emissions(ns.lp, emit_limits(model, plan, ns, options, pv_floor))
    return ns


# ---------------------------------------------------------------------------
# direct linear power flow (used by the simulator; no optimization involved)


def solve_linear_flow(
    plan: RadialPlan, p_w: Sequence[float], q_w: Sequence[float]
) -> tuple[list[float], list[float], list[float]]:
    """Branch flows and squared voltages for fixed device outputs.

    `plan` is the model's :class:`RadialPlan`.  `p_w` and `q_w` hold each
    device's output in W and var by position, a load's as drawn, which
    enters its bus's phases by its share in `plan.leaves_up`.  Returns (fp, fq, w):
    the active and reactive flow (pu) of each feeding branch phase in
    `plan.drops` order, signed upstream to downstream, and the squared
    voltage of each slot in `plan.bus_phases` order, which follows the same
    linear drop equation as the LP rows, anchored at 1 pu^2 on the root.
    Radial sweep, exact for the linear model.
    """
    s_base = plan.s_base
    sub_p = [0.0] * len(plan.bus_phases)  # each bus phase's subtree injection
    sub_q = sub_p[:]
    for shares, phase_slots in plan.leaves_up:
        p0 = q0 = 0.0  # the injection on each phase of the bus
        for i, share in shares:
            p0 += share * (p_w[i] / s_base)
            q0 += share * (q_w[i] / s_base)
        for slot, children in phase_slots:
            p, q = p0, q0
            for child in children:
                p += sub_p[child]
                q += sub_q[child]
            sub_p[slot] = p
            sub_q[slot] = q

    fp = [-sub_p[slot] for slot, _up, _r, _x in plan.drops]  # power delivered into the subtree
    fq = [-sub_q[slot] for slot, _up, _r, _x in plan.drops]
    w = [1.0] * len(plan.bus_phases)  # the root's slots keep 1 pu^2
    for (slot, up, r, x), p, q in zip(plan.drops, fp, fq):
        w[slot] = w[up] - 2.0 * (r * p + x * q)
    return fp, fq, w
