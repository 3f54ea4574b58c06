"""Executable scenario reproductions.

Each scenario builds its operators from scratch, runs the relevant
dynamics, and returns a ScenarioReport whose checks each carry a numeric
residual and a tolerance.  Scenarios are deterministic given their
parameters; the only randomness is in Monte-Carlo sub-runs, which carry
explicit seeds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import composite, condensation, dynamics, ivec, linalg, measurement
from .config import DIM_CAP, get_hbar
from .errors import BadParameter, BadSlitGeometry, SupportViolation
from .iop import (
    ZERO_WEIGHT_FLOOR,
    Mixture,
    contract,
    contraction_from_max,
    contraction_from_mixture,
    decompose,
    entropy,
    max_iop,
    pure_iop,
    validate,
)
from .serialize import matrix_to_json


@dataclass(frozen=True)
class Check:
    description: str
    passed: bool
    residual: float
    tolerance: float


@dataclass
class ScenarioReport:
    scenario_name: str
    inputs: dict
    outputs: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario_name,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "checks": [asdict(c) for c in self.checks],
            "notes": self.notes,
            "all_pass": self.all_pass(),
        }


class _Checks:
    """Collects checks under overridable named tolerances; yes/no checks report 0.0."""

    def __init__(self, defaults: dict, overrides=None):
        overrides = dict(overrides or {})
        unknown = set(overrides) - set(defaults)
        if unknown:
            raise BadParameter(f"unknown tolerance names: {sorted(unknown)}")
        self.tols = {**defaults, **overrides}
        self.items: list = []

    def residual(self, name: str, residual: float, description=None):
        tol = float(self.tols[name])
        self.items.append(Check(description or name, bool(residual <= tol),
                                float(residual), tol))

    def holds(self, name: str, ok: bool, description=None, residual=None):
        residual = (0.0 if ok else 1.0) if residual is None else residual
        self.items.append(Check(description or name, bool(ok),
                                float(residual), 0.0))


# --- Stern-Gerlach -----------------------------------------------------------

# S basis: (up, down).  T basis: pseudo-spin-1 deflection modes ordered by
# R_z eigenvalue descending: (+1, 0, -1) = (up-deflected, straight,
# down-deflected motion of the apparatus side).

S_Z = np.diag([0.5, -0.5]).astype(complex)
R_Z = np.diag([1.0, 0.0, -1.0]).astype(complex)
R_X = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / math.sqrt(2)

STERN_TOLS = {
    "deflection_blocks_are_permutations": 1e-12,
    "interaction_unitary": 1e-12,
    "final_operator": 1e-12,
    "branch_weights": 1e-12,
    "branch_separability": 1e-12,
    "post_measurement_object": 1e-12,
    "unconditional_object": 1e-12,
    "screen_completeness": 1e-12,
    "sampled_frequencies": 0.0,  # bound computed per label; see check text
}


def _deflection_generators():
    eye3 = np.eye(3, dtype=complex)
    r_plus = math.sqrt(2) * (R_Z + eye3) @ R_X @ (R_Z + eye3) + R_Z @ (R_Z - eye3)
    r_minus = math.sqrt(2) * (R_Z - eye3) @ R_X @ (R_Z - eye3) + R_Z @ (R_Z + eye3)
    return r_plus, r_minus


def stern_gerlach_unitary() -> dynamics.UnitaryOp:
    """The phenomenological spin-apparatus interaction unitary.

    Each spin projector is paired with a deflection block that routes the
    straight apparatus mode into the deflected mode of matching sign.
    """
    r_plus, r_minus = _deflection_generators()
    eye2 = np.eye(2, dtype=complex)
    u = 0.25 * (np.kron(eye2 - 2 * S_Z, r_plus) + np.kron(eye2 + 2 * S_Z, r_minus))
    return dynamics.unitary(u)


def stern_gerlach(p_up_prior: float = 0.5, mc_samples: int = 10000,
                  seed: int = 0, tol_overrides=None) -> ScenarioReport:
    """Spin-1/2 object measured by a deflection apparatus.

    The apparatus starts in the straight mode; after the interaction the
    composite operator splits into deflection-labeled separable branches,
    with the down-deflected branch carrying the spin-up object operator.
    """
    if not 0.0 <= p_up_prior <= 1.0:
        raise BadParameter(f"p_up_prior must be in [0, 1], got {p_up_prior}")
    if mc_samples < 1:
        raise BadParameter(f"mc_samples must be positive, got {mc_samples}")
    if mc_samples > np.iinfo(np.int64).max:
        # the multinomial draw takes its count as an int64
        raise BadParameter(f"mc_samples must be at most "
                           f"{np.iinfo(np.int64).max}, got {mc_samples}")
    if seed < 0:
        raise BadParameter(f"seed must be nonnegative, got {seed}")
    ck = _Checks(STERN_TOLS, tol_overrides)
    report = ScenarioReport(
        scenario_name="stern-gerlach",
        inputs={"p_up_prior": p_up_prior, "mc_samples": mc_samples, "seed": seed},
    )

    rho_up = pure_iop([1, 0])
    rho_down = pure_iop([0, 1])
    # T basis index: 0 = up-deflected (+), 1 = straight (0), 2 = down-deflected (-)
    rho_t_plus = pure_iop([1, 0, 0])
    rho_t_zero = pure_iop([0, 1, 0])
    rho_t_minus = pure_iop([0, 0, 1])

    # Independent oracle for unitarity: the two deflection blocks, halved,
    # must be the permutations (swap +,0 fixing -) and (swap 0,- fixing +).
    r_plus, r_minus = _deflection_generators()
    swap_plus_zero = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    swap_zero_minus = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    perm_residual = max(
        linalg.frobenius_dist(r_plus / 2, swap_plus_zero),
        linalg.frobenius_dist(r_minus / 2, swap_zero_minus),
    )
    ck.residual("deflection_blocks_are_permutations", perm_residual)

    u = stern_gerlach_unitary()
    ck.residual("interaction_unitary", linalg.unitarity_defect(u.matrix))

    p_up, p_down = p_up_prior, 1.0 - p_up_prior
    rho_s1 = validate(p_up * rho_up.matrix + p_down * rho_down.matrix)
    rho_st1 = composite.compose(rho_s1, rho_t_zero)
    rho_st2 = dynamics.evolve(rho_st1, u)

    expected_final = (p_up * np.kron(rho_up.matrix, rho_t_minus.matrix)
                      + p_down * np.kron(rho_down.matrix, rho_t_plus.matrix))
    ck.residual("final_operator",
                linalg.frobenius_dist(rho_st2.matrix, expected_final))

    t_structure = condensation.CondensationStructure.from_index_blocks(
        3, {"+": [0], "0": [1], "-": [2]})
    spec = composite.CompositeSpec(dim_s=2, dim_t=3, t_structure=t_structure)
    branches = composite.branch_decompose(rho_st2, spec)

    # a label that branch_decompose omitted has weight 0
    got = {b.label: b for b in branches.branches}
    expected_weights = {"-": p_up, "+": p_down}
    ck.residual("branch_weights", max(
        abs((got[m].weight if m in got else 0.0) - expected_weights.get(m, 0.0))
        for m in {*got, *expected_weights}))
    ck.residual("branch_separability",
                max((b.residual for b in branches.branches), default=0.0))

    # Conditioning on the down-deflection label recovers the spin-up object.
    if "-" in got:
        ck.residual("post_measurement_object",
                    linalg.frobenius_dist(got["-"].rho_s.matrix, rho_up.matrix))
    else:
        ck.residual("post_measurement_object", 0.0,
                    "post_measurement_object (vacuous: no down branch)")

    rho_s_tilde = composite.unconditional_object(branches)
    ck.residual("unconditional_object",
                linalg.frobenius_dist(rho_s_tilde.matrix, rho_s1.matrix))

    # Negative control: during the interaction the apparatus condensation
    # is dissolved, so U must NOT be block-diagonal in the lifted structure.
    lifted = t_structure.lift(dim_left=2)
    ck.holds(
        "interaction_dissolves_condensation",
        not condensation.respects_condensation(u, lifted),
        "interaction_dissolves_condensation (expected non-block-diagonal)")

    # Monte-Carlo sub-run on the readout statistics.
    ms = measurement.MeasurementSystem.projective(
        {"up": rho_up.matrix, "down": rho_down.matrix},
        f={"up": 0.5, "down": -0.5})
    ck.residual("screen_completeness", measurement.completeness_defect(ms))
    exact = dict(measurement.outcome_probabilities(ms, rho_s_tilde))
    freq = dict(measurement.estimate_probabilities(ms, rho_s_tilde,
                                                   n=mc_samples, seed=seed))
    worst = 0.0
    for m, p in exact.items():
        bound = 4 * math.sqrt(max(p * (1 - p), 0.0) / mc_samples)
        worst = max(worst, abs(freq[m] - p) - bound)
    ck.residual("sampled_frequencies", worst,
                "sampled_frequencies (excess over 4-sigma binomial bound)")

    report.outputs = {
        "final_operator": matrix_to_json(rho_st2.matrix),
        "branches": branches.to_json(),
        "unconditional_object": matrix_to_json(rho_s_tilde.matrix),
        "exact_probabilities": {m: exact[m] for m in sorted(exact)},
        "sampled_frequencies": {m: freq[m] for m in sorted(freq)},
    }
    report.checks = ck.items
    return report


# --- Schroedinger-cat style condensed system --------------------------------

CAT_TOLS = {
    "probabilities_constant": 1e-9,
    "probabilities_sum": 1e-9,
    "conditioning_commutes": 1e-9,
    "component_is_contraction": 1e-9,
}

_CAT_H_PLUS = np.array([[1.0, 0.3 - 0.2j], [0.3 + 0.2j, -0.5]])
_CAT_H_MINUS = np.array([[0.2, 0.5j], [-0.5j, 0.8]])
_CAT_DT = 0.1
# each step evolves three operators and adds two label weights to the
# report; at 10 000 steps a run takes seconds and writes under 1 MB
CAT_MAX_STEPS = 10_000


def cat(p_plus: float = 0.3, steps: int = 20, tol_overrides=None) -> ScenarioReport:
    """Two condensation subspaces with internal dynamics.

    The mixture weight on each subspace is a constant of the motion while
    the dynamics stays block-diagonal, and the mixture and its conditioned
    components remain simultaneously valid descriptions throughout.
    """
    if not 0.0 <= p_plus <= 1.0:
        raise BadParameter(f"p_plus must be in [0, 1], got {p_plus}")
    if not 1 <= steps <= CAT_MAX_STEPS:
        raise BadParameter(f"steps must be in [1, {CAT_MAX_STEPS}], got {steps}")
    ck = _Checks(CAT_TOLS, tol_overrides)
    report = ScenarioReport(scenario_name="cat",
                            inputs={"p_plus": p_plus, "steps": steps})

    structure = condensation.CondensationStructure.from_index_blocks(
        4, {"+": [0, 1], "-": [2, 3]})
    h = np.zeros((4, 4), dtype=complex)
    h[:2, :2] = _CAT_H_PLUS
    h[2:, 2:] = _CAT_H_MINUS
    ham = dynamics.hamiltonian(h)
    u_step = dynamics.propagator(ham, 0.0, _CAT_DT)

    rho_plus = pure_iop([1, 1, 0, 0])
    rho_minus = pure_iop([0, 0, 1, 1j])
    rho = validate(p_plus * rho_plus.matrix + (1 - p_plus) * rho_minus.matrix)

    initial = dict(condensation.label_probabilities(rho, structure))
    prob_history = [initial]
    current = rho
    for _ in range(steps):
        current = dynamics.evolve(current, u_step)
        prob_history.append(dict(condensation.label_probabilities(current, structure)))
    drift = max(abs(step[m] - initial[m])
                for step in prob_history for m in initial)
    ck.residual("probabilities_constant", drift)
    ck.residual("probabilities_sum",
                max(abs(sum(step.values()) - 1.0) for step in prob_history))

    live_labels = [m for m, p in initial.items() if p > ZERO_WEIGHT_FLOOR]
    u_total = dynamics.propagator(ham, 0.0, steps * _CAT_DT)
    commute_residual = 0.0
    for m in live_labels:
        conditioned_then_evolved = dynamics.evolve(
            condensation.condition_on_label(rho, structure, m), u_total)
        evolved_then_conditioned = condensation.condition_on_label(
            current, structure, m)
        commute_residual = max(commute_residual, linalg.frobenius_dist(
            conditioned_then_evolved.matrix, evolved_then_conditioned.matrix))
    ck.residual("conditioning_commutes", commute_residual)

    # Multiple description: each conditioned component stays a contraction
    # of the evolving mixture, so both descriptions hold at once.
    contraction_residual = 0.0
    for m in live_labels:
        part = condensation.condition_on_label(current, structure, m)
        k = contraction_from_mixture(current, part)
        contraction_residual = max(contraction_residual, linalg.frobenius_dist(
            contract(current, k).matrix, part.matrix))
    ck.residual("component_is_contraction", contraction_residual)

    # Negative control: a cross-subspace superposition is not condensed,
    # though its label traces are still well defined.
    rho_coherent = pure_iop([1, 0, 1, 0])
    ck.holds(
        "superposition_not_condensed",
        not condensation.is_condensed_form(rho_coherent, structure),
        "superposition_not_condensed (expected non-condensed)")
    coherent_probs = dict(condensation.label_probabilities(rho_coherent, structure))

    # Label-trajectory demo: alternate condensed evolution with a brief
    # subspace-swapping pulse, and track only the dominant label.
    swap = np.zeros((4, 4), dtype=complex)
    swap[0, 2] = swap[2, 0] = swap[1, 3] = swap[3, 1] = 1.0
    swap_u = dynamics.unitary(swap)
    start_label = max(initial, key=initial.get)
    walker = condensation.condition_on_label(rho, structure, start_label)
    trajectory = [start_label]
    for _ in range(2):
        for _ in range(steps):
            walker = dynamics.evolve(walker, u_step)
        walker = dynamics.evolve(walker, swap_u)
        probs = dict(condensation.label_probabilities(walker, structure))
        trajectory.append(max(probs, key=probs.get))

    report.outputs = {
        "probabilities": [
            {m: step[m] for m in sorted(step)} for step in prob_history
        ],
        "coherent_probabilities": {m: coherent_probs[m]
                                   for m in sorted(coherent_probs)},
        "label_trajectory": trajectory,
        "final_operator": matrix_to_json(current.matrix),
    }
    report.checks = ck.items
    return report


# --- Spin-1 multiple-description example ------------------------------------

SPIN_ONE_TOLS = {
    "max_contracts_to_mixture": 1e-9,
    "mixture_contracts_to_components": 1e-10,
    "decompose_weights": 1e-12,
    "entropy_values": 1e-12,
}


def spin_one_example(tol_overrides=None) -> ScenarioReport:
    """Spin-1 system known not to be in the zero eigenspace.

    The half-half mixture of the +1 and -1 projectors describes it, as
    does the maximum operator; the mixture contracts to each projector and
    the maximum operator contracts to the mixture.
    """
    ck = _Checks(SPIN_ONE_TOLS, tol_overrides)
    report = ScenarioReport(scenario_name="spin-one", inputs={})

    # basis index: 0 = eigenvalue +1, 1 = eigenvalue 0, 2 = eigenvalue -1
    rho_plus = pure_iop([1, 0, 0])
    rho_minus = pure_iop([0, 0, 1])
    rho_zero = pure_iop([0, 1, 0])
    mixture = Mixture(weights=(0.5, 0.5), components=(rho_plus, rho_minus))
    rho_prime = mixture.combined()
    rho_max = max_iop(3)

    k_max = contraction_from_max(rho_prime)
    ck.residual("max_contracts_to_mixture", linalg.frobenius_dist(
        contract(rho_max, k_max).matrix, rho_prime.matrix))

    component_residual = 0.0
    for part in (rho_plus, rho_minus):
        k = contraction_from_mixture(rho_prime, part)
        component_residual = max(component_residual, linalg.frobenius_dist(
            contract(rho_prime, k).matrix, part.matrix))
    ck.residual("mixture_contracts_to_components", component_residual)

    pairs = decompose(mixture)
    ck.residual("decompose_weights",
                max(abs(w - 0.5) for w, _ in pairs))

    e_prime = entropy(rho_prime)
    e_max = entropy(rho_max)
    ck.residual("entropy_values", max(abs(e_prime - math.log(2)),
                                      abs(e_max - math.log(3))))

    # Negative control: the zero-eigenspace projector has support disjoint
    # from the mixture and must be rejected as a contraction target.
    try:
        contraction_from_mixture(rho_prime, rho_zero)
        rejected = False
    except SupportViolation:
        rejected = True
    ck.holds("disjoint_support_rejected", rejected,
             "disjoint_support_rejected (expected SupportViolation)")

    report.outputs = {
        "entropy_mixture": e_prime,
        "entropy_max": e_max,
        "decompose_weights": [w for w, _ in pairs],
    }
    report.notes.append(
        "Entropy of the half-half mixture is log 2 and of the maximum "
        "operator is log 3 by direct evaluation of -tr(rho log rho); some "
        "published discussion of this example states the two values "
        "transposed, which is flagged here rather than silently corrected.")
    report.checks = ck.items
    return report


# --- Two-slit passage --------------------------------------------------------

TWO_SLIT_TOLS = {
    "screen_completeness": 1e-9,
    "conditioned_passage_probability": 1e-12,
    "vector_operator_consistency": 1e-9,
    "normalization": 1e-9,
    "symmetry": 1e-9,
    "one_slit_control": 1e-9,
}

# ||I_coh - I_incoh|| below this is rounding, above it interference
INTERFERENCE_FLOOR = 1e-9
TWO_SLIT_DT = 0.5
TWO_SLIT_DEFAULT_STEPS = 40
TWO_SLIT_DEFAULT_SLITS = ((40, 44), (84, 88))


def _ring_propagator(grid_n: int, t: float) -> dynamics.UnitaryOp:
    """exp(-i t H / hbar) for nearest-neighbour hopping on the periodic grid.

    H is circulant, so the DFT diagonalizes it with eigenvalues
    -2 cos(2 pi k / n): the propagator is the circulant whose first column
    is the inverse DFT of the phases, O(n^2) with no eigensolver, and its
    unitarity defect is read from the DFT of that column.  Row i of the
    circulant, column[(i - j) % n] over j, is the window of the reversed
    column, doubled, that starts at n - 1 - i.  The absorbed flag
    dimension is decoupled and stays fixed.
    """
    k = np.arange(grid_n)
    energies = -2.0 * np.cos(2 * np.pi * k / grid_n)
    column = np.fft.ifft(np.exp(-1j * t * energies / get_hbar()))
    reversed_column = column[::-1]
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([reversed_column, reversed_column[:-1]]), grid_n)
    u = np.zeros((grid_n + 1, grid_n + 1), dtype=complex)
    u[:grid_n, :grid_n] = windows[::-1]
    u[grid_n, grid_n] = 1.0
    u.setflags(write=False)  # handed over to `unitary` without a copy
    return dynamics.unitary(u, known_defect=linalg.circulant_defect_bound(column))


def _front_reached(grid_n: int, a: int, b: int, reach: float) -> np.ndarray:
    """Masks (2, grid_n): the ring sites that a path of at most `reach` hops
    and of even (row 0) or odd (row 1) length joins to a slit site a..b-1,
    read on the line unwrapped around the slit.  An amplitude over m hops
    carries the phase i^m, so two slits interfere only along even paths."""
    hops = int(min(reach, 2 * grid_n))  # windings past two add no parity
    y = np.arange(a - hops, b + hops)
    # hops to the nearest slit site; the next nearest is one further
    m = np.maximum(0, np.maximum(a - y, y - (b - 1)))
    reached = np.zeros((2, grid_n), dtype=bool)
    reached[m % 2, y % grid_n] = True
    if b - a > 1:
        further = m < hops
        reached[(m[further] + 1) % 2, y[further] % grid_n] = True
    return reached


def _slit_screen(grid_n: int, slit_sites) -> measurement.MeasurementSystem:
    """Pass: the projector onto the slit sites.  Absorb: I - P with the rows
    of the first blocked site and of the flag swapped.  Both are partial
    permutations, held as routes."""
    dim = grid_n + 1
    blocked = np.ones(dim, dtype=bool)
    blocked[slit_sites] = False
    cols = np.flatnonzero(blocked)  # the flag, grid_n, comes last
    rows = cols.copy()
    # route one blocked mode into the absorbed flag dimension so the
    # non-passage outcome populates the sink subspace: swap its row with
    # the flag's
    rows[[0, -1]] = rows[[-1, 0]]
    return measurement.MeasurementSystem(
        dim_s=dim, labels=("pass", "abs"),
        routes=((slit_sites, slit_sites), (rows, cols)),
        f={"pass": 1.0, "abs": 0.0})


def two_slit(grid_n: int = 128, p_pass=None,
             slit_positions=TWO_SLIT_DEFAULT_SLITS,
             steps: int = TWO_SLIT_DEFAULT_STEPS,
             tol_overrides=None) -> ScenarioReport:
    """Electron on a 1-D grid passing a slit screen.

    The screen is a definitive two-outcome measurement (pass onto the slit
    sites, everything else into an absorbed flag dimension).  Conditioning
    on passage and propagating the passed component coherently produces an
    interference pattern; an incoherent one-slit-at-a-time mixture of the
    same passage does not.  The continuity of the passed component across
    the screen is a modeling assumption, not a derived property.
    """
    # the grid plus the absorbed flag dimension must fit under DIM_CAP; checked
    # before the dense (grid_n + 1)^2 propagator is allocated
    if not 16 <= grid_n < DIM_CAP:
        raise BadSlitGeometry(f"grid_n must be in [16, {DIM_CAP - 1}], got {grid_n}")
    slits = [(int(a), int(b)) for a, b in slit_positions]
    sites_seen = set()
    for a, b in slits:
        if not (0 <= a < b <= grid_n):
            raise BadSlitGeometry(f"slit range {a}:{b} outside grid")
        span = set(range(a, b))
        if span & sites_seen:
            raise BadSlitGeometry("slit ranges overlap")
        sites_seen |= span
    if not slits:
        raise BadSlitGeometry("need at least one slit")
    if p_pass is not None and not ZERO_WEIGHT_FLOOR < p_pass <= 1.0:
        raise BadParameter(f"p_pass must be in (ZERO_WEIGHT_FLOOR = "
                           f"{ZERO_WEIGHT_FLOOR:g}, 1], got {p_pass}")
    if steps < 1:
        raise BadParameter(f"steps must be positive, got {steps}")

    ck = _Checks(TWO_SLIT_TOLS, tol_overrides)
    report = ScenarioReport(
        scenario_name="two-slit",
        inputs={"grid_n": grid_n, "slits": [list(s) for s in slits],
                "steps": steps, "p_pass": p_pass},
    )
    report.notes.append(
        "The passed component is assumed to continue as a pure operator "
        "through the screen; this continuity is a modeling assumption.")

    dim = grid_n + 1
    slit_sites = sorted(sites_seen)
    screen = _slit_screen(grid_n, slit_sites)
    ck.residual("screen_completeness", measurement.completeness_defect(screen))

    # incident electron: uniform over the grid, nothing absorbed yet
    psi_in = np.zeros(dim, dtype=complex)
    psi_in[:grid_n] = 1.0 / math.sqrt(grid_n)
    psi_pass = measurement._kraus_times(screen, psi_in, 0)
    geom_p = float(np.vdot(psi_pass, psi_pass).real)
    prior_p = geom_p if p_pass is None else float(p_pass)
    # the prior in spectral form: 1 - p on the absorbed flag, p on the
    # passed vector, eigenvalues ascending
    e_abs = np.zeros(dim, dtype=complex)
    e_abs[grid_n] = 1.0
    prior_w = np.array([1 - prior_p, prior_p])
    prior_v = np.column_stack([e_abs, psi_pass / math.sqrt(geom_p)])
    order = np.argsort(prior_w, kind="stable")
    rho_prior = validate(linalg.HermEigen(prior_w[order], prior_v[:, order]))

    probs = dict(measurement.outcome_probabilities(screen, rho_prior))
    ck.residual("conditioned_passage_probability", abs(probs["pass"] - prior_p))
    rho_b = measurement.post_measurement_object(screen, rho_prior, "pass")

    u = _ring_propagator(grid_n, steps * TWO_SLIT_DT)

    # coherent route: propagate the passed information vector
    v_b = ivec.gauge_fix(psi_pass)
    out_b = u.matrix @ v_b.amplitudes
    intensity_a = np.abs(out_b[:grid_n]) ** 2
    # ||rho - |out_b><out_b| ||_F from vectors: the top eigenpair against
    # out_b plus the norm of the rest of the spectrum bounds it, and equals
    # it when that rest is zero, as it is for the conditioned pure passage
    lam, vecs = dynamics.evolve(rho_b, u).spectrum
    ck.residual("vector_operator_consistency",
                linalg.rank_one_dist(vecs[:, -1] * math.sqrt(lam[-1]), out_b)
                + float(np.linalg.norm(lam[:-1])))

    # incoherent route: one slit at a time, weighted by passage share
    weights, slit_vectors = [], []
    for a, b in slits:
        psi_s = np.zeros(dim, dtype=complex)
        psi_s[a:b] = psi_in[a:b]
        w = float(np.vdot(psi_s, psi_s).real)
        weights.append(w)
        slit_vectors.append(psi_s / math.sqrt(w))
    total_w = sum(weights)
    intensity_b = sum(
        (w / total_w) * np.abs((u.matrix @ v)[:grid_n]) ** 2
        for w, v in zip(weights, slit_vectors))

    ck.residual("normalization", max(abs(intensity_a.sum() - 1.0),
                                     abs(intensity_b.sum() - 1.0)))

    mirrored = intensity_a[::-1]
    symmetric_slits = sites_seen == {grid_n - 1 - j for j in sites_seen}
    if symmetric_slits:
        ck.residual("symmetry", float(np.max(np.abs(intensity_a - mirrored))))

    # max - min over the central window, reported but not checked: it is
    # not a law (coherent need not exceed incoherent there)
    central = slice(grid_n // 2 - grid_n // 8, grid_n // 2 + grid_n // 8)
    contrast_a = float(intensity_a[central].max() - intensity_a[central].min())
    contrast_b = float(intensity_b[central].max() - intensity_b[central].min())
    # time of flight: no wave on the ring outruns the band's top group
    # velocity, 2 sites per unit time at hbar = 1; two fronts have met
    # where they join a site by paths of even total length
    reach = 2 * steps * TWO_SLIT_DT / get_hbar()
    reached = [_front_reached(grid_n, a, b, reach) for a, b in slits]
    term = float(np.linalg.norm(intensity_a - intensity_b))
    if len(slits) == 1:
        ck.holds("interference_term", term <= INTERFERENCE_FLOOR,
                 "interference_term (one slit: coherent equals incoherent)",
                 residual=max(0.0, term - INTERFERENCE_FLOOR))
    elif (np.sum(reached, axis=0) >= 2).any():
        ck.holds("interference_term", term >= INTERFERENCE_FLOOR,
                 "interference_term (wavefronts met: coherent differs "
                 "from incoherent)",
                 residual=max(0.0, INTERFERENCE_FLOOR - term))
    else:
        ck.holds("interference_term", True,
                 "interference_term (vacuous: no two wavefronts have met)")

    # no-second-path control: with a single slit the operator route and
    # the information-vector route must give the same pattern
    a0, b0 = slits[0]
    psi_one = np.zeros(dim, dtype=complex)
    psi_one[a0:b0] = 1.0
    psi_one /= np.linalg.norm(psi_one)
    one_operator = dynamics.evolve(pure_iop(psi_one), u).diagonal()[:grid_n]
    one_vector = np.abs((u.matrix @ psi_one)[:grid_n]) ** 2
    ck.residual("one_slit_control",
                float(np.max(np.abs(one_operator - one_vector))))

    report.outputs = {
        "passage_probability": prior_p,
        "geometric_passage_probability": geom_p,
        "intensity_coherent": [float(x) for x in intensity_a],
        "intensity_incoherent": [float(x) for x in intensity_b],
        "contrast_coherent": contrast_a,
        "contrast_incoherent": contrast_b,
        "interference_term": term,
    }
    report.checks = ck.items
    return report


SCENARIOS = {
    "stern-gerlach": stern_gerlach,
    "cat": cat,
    "spin-one": spin_one_example,
    "two-slit": two_slit,
}
