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
one, and every private one has a caller in the library.
"""

import ast
import builtins
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
from iopsim import dynamics, iop, ivec, linalg, measurement, scenarios
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
from iopsim.errors import (BadParameter, DimensionMismatch, IopsimError,
                           NotHermitian)
from iopsim.iop import validate
from iopsim.measurement import (
    MeasurementSystem,
    completeness_defect,
    outcome_probabilities,
    post_measurement_object,
)
from iopsim.scenarios import _slit_screen, two_slit

from conftest import projectors, random_hermitian, random_iop, random_unitary
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


def test_library_raises_no_bare_builtin_exception():
    # the library raises its own IopsimErrors (a malformed argument's
    # BadParameter is also a ValueError), so a caller catches them as one
    # family; of the built-ins only SystemExit, which ends the CLI
    bare = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            cls = getattr(builtins, getattr(exc, "id", ""), None)
            if (isinstance(cls, type) and issubclass(cls, BaseException)
                    and cls is not SystemExit):
                bare.append(f"{path.name}:{node.lineno}: {cls.__name__}")
    assert bare == []


def _two_labels(f):
    return MeasurementSystem(dim_s=2, labels=("a", "b"),
                             kraus=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), f=f)


# (call, error) pairs: numpy's own exceptions escape the raise statements
# the test above reads, so each degenerate input is called
DEGENERATE_INPUTS = {
    "empty-spectrum": (
        lambda: validate(linalg.HermEigen(np.zeros(0), np.zeros((3, 0)))),
        DimensionMismatch),
    "empty-matrix": (lambda: validate(np.zeros((0, 0))), DimensionMismatch),
    "max-iop-past-cap": (lambda: iop.max_iop(10 ** 6), DimensionMismatch),
    "pure-iop-past-cap": (lambda: iop.pure_iop(np.ones(5000)), DimensionMismatch),
    "f-lacks-a-label": (lambda: _two_labels({"a": 1.0}), BadParameter),
    "f-value-nan": (lambda: _two_labels({"a": 1.0, "b": np.nan}), BadParameter),
    "f-value-text": (lambda: _two_labels({"a": 1.0, "b": "up"}), BadParameter),
    "f-value-complex": (lambda: _two_labels({"a": 1.0, "b": 1j}), BadParameter),
    "observable-without-f": (lambda: measurement.observable(_two_labels({})),
                             BadParameter),
    "projective-of-nothing": (lambda: MeasurementSystem.projective({}), BadParameter),
    "count-past-int64": (lambda: measurement.estimate_probabilities(
        _two_labels({}), iop.max_iop(2), n=2 ** 63, seed=0), BadParameter),
    "negative-seed": (lambda: measurement.estimate_probabilities(
        _two_labels({}), iop.max_iop(2), n=10, seed=-1), BadParameter),
    "unitary-wrong-size": (
        lambda: evolve(iop.max_iop(3), UnitaryOp(matrix=np.eye(4))),
        DimensionMismatch),
    "unitary-not-square": (lambda: UnitaryOp(matrix=np.ones((2, 3))),
                           DimensionMismatch),
    "hamiltonian-not-hermitian": (
        lambda: dynamics.HamiltonianOp(np.array([[0.0, 1.0], [0.0, 0.0]])),
        NotHermitian),
    # what numpy cannot read as numbers
    "matrix-text": (lambda: validate("abc"), BadParameter),
    "matrix-ragged": (lambda: validate([[1, 0], [0]]), BadParameter),
    "spectrum-text": (lambda: validate(linalg.HermEigen("a", [[1]])), BadParameter),
    "eigenvectors-ragged": (
        lambda: validate(linalg.HermEigen([1.0], [[1, 0], [0]])), BadParameter),
    "pure-iop-text": (lambda: iop.pure_iop("ab"), BadParameter),
    "gauge-fix-text": (lambda: ivec.gauge_fix("ab"), BadParameter),
    "unitary-text": (lambda: dynamics.unitary("ab"), BadParameter),
    "unitary-ragged": (lambda: dynamics.unitary([[1], [0, 1]]), BadParameter),
    "hamiltonian-text": (lambda: dynamics.HamiltonianOp("ab"), BadParameter),
    "mixture-weight-text": (
        lambda: iop.Mixture(weights=("a",), components=(iop.max_iop(2),)),
        BadParameter),
    # sample counts and seeds are integers, not floats that round down
    "count-fractional": (lambda: measurement.estimate_probabilities(
        _two_labels({}), iop.max_iop(2), n=2.5, seed=0), BadParameter),
    "seed-fractional": (lambda: measurement.estimate_probabilities(
        _two_labels({}), iop.max_iop(2), n=10, seed=1.5), BadParameter),
    "mc-samples-fractional": (lambda: scenarios.stern_gerlach(mc_samples=2.5),
                              BadParameter),
    "stern-gerlach-seed-fractional": (lambda: scenarios.stern_gerlach(seed=1.5),
                                      BadParameter),
}


@pytest.mark.parametrize("case", DEGENERATE_INPUTS)
def test_degenerate_inputs_raise_typed_errors(case):
    call, error = DEGENERATE_INPUTS[case]
    assert issubclass(error, IopsimError)
    with pytest.raises(error):
        call()


def test_propagator_checks_and_diagonalizes_once(monkeypatch):
    # HamiltonianOp checked H when it was built: propagator diagonalizes
    # it once and checks its hermiticity no second time
    h = dynamics.HamiltonianOp(random_hermitian(np.random.default_rng(5), 4))
    calls = []
    for name in ("eigh", "hermitian"):
        def counted(a, _name=name, _fn=getattr(linalg, name)):
            calls.append(_name)
            return _fn(a)
        monkeypatch.setattr(linalg, name, counted)
    dynamics.propagator(h, 0.0, 0.7)
    assert calls == ["eigh"]


def test_readme_names_every_tolerance_constant():
    # README's Conventions list the tolerances; a constant added or
    # deleted here must be added or deleted there too
    named = re.compile(r"[A-Z_]+_(?:TOL|FLOOR|RTOL|ATOL)")
    defined = {target.id
               for path in SRC.glob("*.py")
               for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.Assign)
               for target in node.targets
               if isinstance(target, ast.Name) and named.fullmatch(target.id)}
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    assert set(re.findall(rf"\b{named.pattern}\b", readme)) == defined


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


def test_two_slit_propagates_its_check_vectors_in_one_batch(monkeypatch):
    # the passed vector, each slit's vector and the one-slit control are
    # the columns of one product; the two evolves make the other two
    shapes = []

    def counted(u, v, _product=dynamics._product):
        shapes.append(v.shape)
        return _product(u, v)

    monkeypatch.setattr(dynamics, "_product", counted)
    assert two_slit(grid_n=64, slit_positions=((20, 22), (42, 44))).all_pass()
    assert len(shapes) == 3 and (65, 4) in shapes


def test_two_slit_sorts_and_hashes_no_route(monkeypatch):
    # the screen's routes are checked for repeats by bincount
    def refused(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", refused)
    assert two_slit(grid_n=64, slit_positions=((20, 22), (42, 44))).all_pass()


def test_screen_checks_its_pass_route_once(monkeypatch):
    # the slit sites are one index array, the pass route's rows and its
    # cols, checked and stored once: three index arrays are bincounted
    # (the sites, then the absorbed route's rows and cols), not four
    sizes = []

    def counted(a, *args, _bincount=np.bincount, **kwargs):
        sizes.append(a.size)
        return _bincount(a, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", counted)
    ms = _slit_screen(64, range(20, 24))
    rows, cols = ms.routes[0]
    assert rows is cols and np.array_equal(rows, range(20, 24))
    assert sizes == [4, 61, 61]


def test_routed_label_gathers_one_label():
    # K^0 V on a routed family of 8 labels fills one label's d x r output,
    # not the (8, d, r) stack of every label
    d, r = 512, 8
    groups = np.arange(d).reshape(8, -1)
    ms = MeasurementSystem(dim_s=d, labels=tuple(range(8)),
                           routes=tuple((g, g) for g in groups), f={})
    v = np.ones((d, r), dtype=complex)
    label_bytes = d * r * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        out = measurement._kraus_times(ms, v, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (d, r) and np.array_equal(out[:64], v[:64])
    assert not out[64:].any()
    assert peak - entry <= 2 * label_bytes


@pytest.mark.parametrize("grid_n, slits", [
    (512, ((160, 176), (336, 352))),
    (2048, ((640, 704), (1344, 1408))),
], ids=["512", "2048"])
def test_two_slit_peaks_at_40_vectors_above_entry(grid_n, slits):
    # no d x d array: the ring propagator is applied by FFT, so the peak
    # is a few dozen length-d vectors (30.5 to 33.2 at grids 512 to 4095,
    # the bound leaving ~7 vectors of margin); one warm-up call first, so
    # that caches numpy fills once are not counted
    vector_bytes = (grid_n + 1) * np.dtype(complex).itemsize
    two_slit(grid_n=grid_n, slit_positions=slits, steps=160)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        report = two_slit(grid_n=grid_n, slit_positions=slits, steps=160)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_pass()
    assert (peak - entry) / vector_bytes <= 40


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
    u = UnitaryOp(matrix=u)
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


def test_grouped_validate_diagonalizes_only_its_blocks(eigensolver_shapes):
    # d = 128 as 4 index groups of 32, interleaved: validate diagonalizes
    # each 32 x 32 block and no 128 x 128 matrix
    rng = np.random.default_rng(23)
    groups = [np.arange(b, 128, 4) for b in range(4)]
    a = np.zeros((128, 128), dtype=complex)
    for g, p in zip(groups, rng.dirichlet(np.ones(4))):
        a[np.ix_(g, g)] = p * random_iop(rng, 32).matrix
    eigensolver_shapes.clear()
    rho = validate(a)
    assert eigensolver_shapes == [(32, 32)] * 4
    assert holds_matrix(rho) and rho.isometry_defect is not None


def test_grouped_unitary_check_forms_only_block_grams(monkeypatch):
    # the 8 x 16 block unitary's check is 8 Grams of 16 x 16 blocks, whose
    # root sum of squares is exactly the dense ||U^dag U - I||
    _, u, _ = _condensed_chain_start(29)
    shapes = []

    def counted(v, _defect=linalg.unitarity_defect):
        shapes.append(v.shape)
        return _defect(v)

    monkeypatch.setattr(linalg, "unitarity_defect", counted)
    checked = dynamics.unitary(u.matrix)
    assert shapes == [(16, 16)] * 8
    assert checked.blocks.shape == (8, 16, 16)


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
    # nor orjson: only `serialize.loads` imports it, when it decodes
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = ("import sys, iopsim.cli, iopsim.scenarios; print(sorted(m for m in "
            "sys.modules if m.split('.')[0] in ('scipy', 'orjson')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_json_is_decoded_in_serialize_only():
    # the one decision of which decoder reads a text: `json.loads` and
    # any use of orjson appear in serialize.py and nowhere else
    users = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [node.id] if isinstance(node, ast.Name) else [])
            loads = (isinstance(node, ast.Attribute) and node.attr == "loads"
                     and getattr(node.value, "id", None) == "json")
            if loads or any(n.split(".")[0] == "orjson" for n in names) or (
                    isinstance(node, ast.ImportFrom) and node.module == "json"
                    and "loads" in {a.name for a in node.names}):
                users.add(path.name)
    assert users == {"serialize.py"}


REPO = SRC.parent.parent
# where a public name counts as used: the library itself, the benchmark
# and the acceptance suite (with the conftest helpers it imports)
CALLER_FILES = [*sorted((REPO / "bench").glob("*.py")),
                REPO / "tests/test_acceptance.py", REPO / "tests/conftest.py"]
NO_CALLER_NEEDED = {
    "dynamics.motion_residual": "the motion residual that claim (b)'s check needs",
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


def _definitions(path, private=False):
    """(qualname, def node) of the public functions and methods in `path`,
    or with `private` of those whose own name has one leading underscore."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)

    def wanted(name):
        return (name.startswith("_") and not name.startswith("__") if private
                else not name.startswith("_"))

    for node in ast.parse(path.read_text()).body:
        if isinstance(node, defs) and wanted(node.name):
            yield f"{path.stem}.{node.name}", node
        elif isinstance(node, ast.ClassDef) and (private or wanted(node.name)):
            for member in node.body:
                if isinstance(member, defs) and wanted(member.name):
                    yield f"{path.stem}.{node.name}.{member.name}", member


def _callerless(private, outside=frozenset()):
    """Qualnames of the definitions that no name in `outside` and no
    reference in the library, outside their own body, reads."""
    src_refs = {path: _references(path) for path in SRC.glob("*.py")}
    return [qualname
            for path in sorted(SRC.glob("*.py"))
            for qualname, node in _definitions(path, private)
            if node.name not in outside and not any(
                name == node.name and not (
                    where == path and node.lineno <= line <= node.end_lineno)
                for where, refs in src_refs.items() for name, line in refs)]


def test_every_public_name_has_a_caller():
    outside = {name for path in CALLER_FILES for name, _ in _references(path)}
    assert [qualname for qualname in _callerless(False, outside)
            if qualname not in NO_CALLER_NEEDED] == []


def test_every_private_name_has_a_caller_in_the_library():
    # a private helper is the library's own, so only the library counts:
    # one that a fold or a deleted route leaves behind fails here
    assert _callerless(True) == []
