"""The single validation path, checked on the package as a whole.

Each validation decision is made in `linalg` or `iop` and nowhere else:
checks read their module's tolerance constant instead of taking one as
an argument, and numpy's Hermitian eigensolvers are called from
`linalg` only.  Paths that read a known spectrum call no eigensolver on
a d x d matrix (`contract` diagonalizes only a core of the part's rank),
an operator built from a spectral form builds its matrix only when it
is read, and two-slit reads no operator matrix and no Kraus stack at
all.  Every public function and method has a caller in the library, the
benchmark or the acceptance suite, or a stated reason to exist without
one.
"""

import ast
import importlib
import inspect
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import iopsim
from iopsim import dynamics, iop, linalg, scenarios
from iopsim.composite import CompositeSpec, branch_decompose
from iopsim.condensation import (
    CondensationStructure,
    block_projected,
    condition_on_label,
    finest_respected_structure,
    is_condensed_form,
    label_probabilities,
    respects_condensation,
)
from iopsim.dynamics import UnitaryOp, evolve
from iopsim.iop import validate
from iopsim.measurement import (
    MeasurementSystem,
    completeness_defect,
    outcome_probabilities,
    post_measurement_object,
)
from iopsim.scenarios import _slit_screen, two_slit

from conftest import projectors, random_iop, random_unitary
from test_iop import holds_matrix

SRC = pathlib.Path(iopsim.__file__).parent
MODULES = [importlib.import_module(f"iopsim.{m.name}")
           for m in pkgutil.iter_modules([str(SRC)])]


def public_callables():
    for module in MODULES:
        for name, obj in vars(module).items():
            if (name.startswith("_")
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member) and (
                            attr == "__init__" or not attr.startswith("_")):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_tolerance_parameters():
    offenders = [
        qualname for qualname, fn in public_callables()
        if {"tol", "threshold"} & set(inspect.signature(fn).parameters)
    ]
    assert offenders == []


EIGENSOLVER = re.compile(
    r"\b(np|numpy|scipy)\.linalg\.eig(h|valsh)\b"
    r"|from\s+(numpy|scipy)\.linalg\s+import")


def test_eigensolver_called_from_linalg_only():
    callers = sorted(path.name for path in SRC.glob("*.py")
                     if EIGENSOLVER.search(path.read_text()))
    assert callers == ["linalg.py"]


def test_thresholds_are_module_constants():
    # a threshold written as 1e-9 inside a function is a second copy of a
    # tolerance; each one is a named module constant instead
    literals = set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        for fn in ast.walk(ast.parse(text)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in (n for stmt in fn.body for n in ast.walk(stmt)):
                if isinstance(node, ast.Constant) and isinstance(node.value, float):
                    source = ast.get_source_segment(text, node)
                    if "e" in source.lower():
                        literals.add(f"{path.name}:{node.lineno}: {source}")
    assert sorted(literals) == []


@pytest.mark.parametrize("step", [
    "evolve", "post_measurement_object", "block_projected", "condition_on_label"])
def test_spectral_results_build_their_matrix_on_first_read(step):
    rng = np.random.default_rng(7)
    rho = random_iop(rng, 6)
    c = CondensationStructure.from_index_blocks(6, {"a": [0, 2, 4], "b": [1, 3, 5]})
    ms = MeasurementSystem.projective(dict(zip(c.labels, projectors(c))))
    out = {"evolve": lambda: evolve(rho, random_unitary(rng, 6)),
           "post_measurement_object": lambda: post_measurement_object(ms, rho, "a"),
           "block_projected": lambda: block_projected(rho, c),
           "condition_on_label": lambda: condition_on_label(rho, c, "b")}[step]()
    assert not holds_matrix(out)
    label_probabilities(out, c)
    assert not holds_matrix(out)
    assert np.array_equal(out.matrix, iop._from_spectrum(*out.spectrum))
    assert holds_matrix(out)


def test_two_slit_builds_no_operator_matrix(monkeypatch):
    # its checks read the evolved operators' spectra and diagonals only
    built = []

    def counted(w, v, _build=iop._from_spectrum):
        built.append(v.shape)
        return _build(w, v)

    monkeypatch.setattr(iop, "_from_spectrum", counted)
    assert two_slit(grid_n=64, slit_positions=((20, 22), (42, 44))).all_pass()
    assert built == []


def test_two_slit_builds_no_screen_stack(monkeypatch):
    # the screen is held as routes, and two_slit reads only those: the
    # (2, d, d) stack its `kraus` would build is never built
    screens = []

    def kept(grid_n, sites, _build=scenarios._slit_screen):
        screens.append(_build(grid_n, sites))
        return screens[-1]

    monkeypatch.setattr(scenarios, "_slit_screen", kept)
    assert two_slit(grid_n=64, slit_positions=((20, 22), (42, 44))).all_pass()
    [screen] = screens
    assert screen.routes is not None and "kraus" not in vars(screen)
    assert screen.kraus.shape == (2, 65, 65)  # built on this first read
    assert "kraus" in vars(screen)


@pytest.mark.parametrize("grid_n, slits", [
    (512, ((160, 176), (336, 352))),
    (2048, ((640, 704), (1344, 1408))),
], ids=["512", "2048"])
def test_two_slit_peaks_at_two_matrices_above_entry(grid_n, slits):
    # the ring propagator is the only d x d array two_slit builds; the
    # second is room for temporaries
    matrix_bytes = (grid_n + 1) ** 2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        report = two_slit(grid_n=grid_n, slit_positions=slits, steps=160)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_pass()
    assert (peak - entry) / matrix_bytes <= 2


def test_routed_completeness_builds_no_square_array():
    # the screen's defect is one bincount over its cols: a few length-d
    # vectors are the largest arrays built, far below one d x d matrix
    grid_n = 512
    vector_bytes = (grid_n + 1) * np.dtype(complex).itemsize
    ms = _slit_screen(grid_n, range(160, 176))
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        assert completeness_defect(ms) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - entry) / vector_bytes <= 4
    assert "kraus" not in vars(ms)


def _condensed_chain_start(seed):
    """A d = 128 structure of 8 groups of 16, a unitary it keeps decoupled,
    and a full-rank operator."""
    rng = np.random.default_rng(seed)
    c = CondensationStructure.from_index_blocks(
        128, {b: range(16 * b, 16 * b + 16) for b in range(8)})
    u = np.zeros((128, 128), dtype=complex)
    for g in c.blocks:
        u[g[0]:g[-1] + 1, g[0]:g[-1] + 1] = random_unitary(rng, 16).matrix
    return c, dynamics.unitary(u), random_iop(rng, 128)


def test_block_spectra_check_each_block_gram(monkeypatch):
    # block_projected and condition_on_label scatter each group's
    # eigenvectors onto its own rows: the r x r Gram of each block bounds
    # the defect of the whole, so no 128-row Gram is formed
    c, _, rho = _condensed_chain_start(17)
    shapes = []

    def counted(v, _defect=linalg.unitarity_defect):
        shapes.append(v.shape)
        return _defect(v)

    monkeypatch.setattr(linalg, "unitarity_defect", counted)
    whole = block_projected(rho, c)
    part = condition_on_label(rho, c, 3)
    assert shapes == [(16, 16)] * 9
    for out in (whole, part):
        v = out.spectrum.eigenvectors
        assert linalg.measured_bound(out.isometry_defect, *v.shape) >= counted(v)


@pytest.fixture
def eigensolver_shapes(monkeypatch):
    """Shapes of the matrices numpy's Hermitian eigensolvers are called on."""
    shapes = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted(a, *args, _solver=solver, **kwargs):
            shapes.append(np.shape(a))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return shapes


def test_two_slit_diagonalizes_at_most_a_two_by_two_block(eigensolver_shapes):
    # the ring propagator comes from the DFT and the prior is a rank-2
    # spectral form: only the conditioned r x r block is diagonalized
    assert two_slit(grid_n=64, slit_positions=((20, 22), (42, 44))).all_pass()
    assert len(eigensolver_shapes) <= 1
    assert all(max(shape) <= 2 for shape in eigensolver_shapes)


def test_outcome_probabilities_runs_no_eigensolver(eigensolver_shapes):
    rho = validate(np.diag([0.5, 0.3, 0.2]).astype(complex))
    eigensolver_shapes.clear()
    ms = MeasurementSystem.projective(
        {m: np.diag(np.eye(3)[m]) for m in range(3)})
    outcome_probabilities(ms, rho)
    assert eigensolver_shapes == []


def test_index_partitions_run_no_eigensolver(eigensolver_shapes):
    # a structure is its index groups: building, lifting, coarsening and
    # testing it index the operator or unitary; conditioning on a label
    # diagonalizes only that label's block, and branch_decompose only
    # validates its two partial traces per branch
    rng = np.random.default_rng(11)
    u = np.eye(128, dtype=complex)
    u[:32, :32] = random_unitary(rng, 32).matrix  # couples blocks 0 and 1
    u = UnitaryOp(dim=128, matrix=u)
    rho = random_iop(rng, 128)
    t_structure = CondensationStructure.from_index_blocks(
        16, {m: range(4 * m, 4 * m + 4) for m in range(4)})
    spec = CompositeSpec(dim_s=8, dim_t=16, t_structure=t_structure)
    eigensolver_shapes.clear()

    c = CondensationStructure.from_index_blocks(
        128, {b: range(16 * b, 16 * b + 16) for b in range(8)})
    assert c.lift(2).dim == 256
    assert len(finest_respected_structure(u, c).labels) == 7
    label_probabilities(rho, c)
    assert respects_condensation(u, c) is False
    assert is_condensed_form(rho, c) is False
    assert eigensolver_shapes == []

    condition_on_label(rho, c, 3)
    assert eigensolver_shapes == [(16, 16)]
    eigensolver_shapes.clear()

    assert len(branch_decompose(rho, spec).branches) == 4
    assert eigensolver_shapes == [(8, 8), (16, 16)] * 4


def test_contract_diagonalizes_only_the_part_rank(eigensolver_shapes):
    # the mixture is d = 128 with 8 label blocks of 16: contracting it to
    # one label's part diagonalizes a 16 x 16 core and never builds the
    # whole's matrix
    rng = np.random.default_rng(13)
    c = CondensationStructure.from_index_blocks(
        128, {b: range(16 * b, 16 * b + 16) for b in range(8)})
    rho = random_iop(rng, 128)
    whole = block_projected(rho, c)
    part = condition_on_label(rho, c, 5)
    eigensolver_shapes.clear()
    back = iop.contract(whole, iop.contraction_from_mixture(whole, part))
    assert eigensolver_shapes and all(max(s) <= 16 for s in eigensolver_shapes)
    assert not holds_matrix(whole)
    assert linalg.frobenius_dist(back.matrix, part.matrix) <= 1e-10


def test_evolve_chain_checks_the_isometry_at_most_once(monkeypatch):
    # U was checked by `unitary` and rho by `validate`: a 50-step chain at
    # d = 128 carries the isometry defect as a bound and forms no Gram
    # product, apart from measuring once the eigh-validated rho's own
    rng = np.random.default_rng(19)
    u = random_unitary(rng, 128)
    rho = random_iop(rng, 128)
    calls = []

    def counted(v, _defect=linalg.unitarity_defect):
        calls.append(v.shape)
        return _defect(v)

    monkeypatch.setattr(linalg, "unitarity_defect", counted)
    for _ in range(50):
        rho = evolve(rho, u)
    assert len(calls) <= 1
    assert rho.isometry_defect <= linalg.UNITARITY_TOL


def test_cli_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = ("import sys, iopsim.cli, iopsim.scenarios; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


REPO = SRC.parent.parent
# where a public name counts as used: the library itself, the benchmark
# and the acceptance suite (with the conftest helpers it imports)
CALLER_FILES = [*sorted((REPO / "bench").glob("*.py")),
                REPO / "tests/test_acceptance.py", REPO / "tests/conftest.py"]
NO_CALLER_NEEDED = {
    "dynamics.motion_residual": "the motion residual that claim (b)'s check needs",
    "iop.Contraction.from_matrix": "dense test oracle for the factored contraction",
    "iop.Contraction.k": "dense test oracle for the factored contraction",
}


def _references(path):
    """(name, line) of every ast.Name and ast.Attribute in `path`.

    A name counts whatever object it is read from: `np.kron` reads `kron`.
    """
    refs = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
    return refs


def _public_definitions(path):
    """(qualname, def node) of the public functions and methods in `path`."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (*defs, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if isinstance(node, defs):
            yield f"{path.stem}.{node.name}", node
            continue
        for member in node.body:
            if isinstance(member, defs) and not member.name.startswith("_"):
                yield f"{path.stem}.{node.name}.{member.name}", member


def test_every_public_name_has_a_caller():
    outside = {name for path in CALLER_FILES for name, _ in _references(path)}
    src_refs = {path: _references(path) for path in SRC.glob("*.py")}
    callerless = []
    for path in sorted(SRC.glob("*.py")):
        for qualname, node in _public_definitions(path):
            called = node.name in outside or any(
                name == node.name and not (
                    where == path and node.lineno <= line <= node.end_lineno)
                for where, refs in src_refs.items() for name, line in refs)
            if not called and qualname not in NO_CALLER_NEEDED:
                callerless.append(qualname)
    assert callerless == []
