"""Tests of the benchmark's own parts: tracer, generator, gates, tail.

    python3 -m pytest bench/test_bench.py -q
"""

import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from iopsim import dynamics, iop, scenarios  # noqa: E402


@pytest.fixture
def installed():
    tr = tracer.Tracer()
    tr.install()
    try:
        yield tr
    finally:
        tr.uninstall()


def test_stern_gerlach_call_counts(installed):
    # every one of these validate calls goes through a `from .iop import
    # validate` copy (scenarios, composite, dynamics), so a tracer that
    # patched iop.validate alone would count none of them
    assert scenarios.stern_gerlach().all_pass()
    assert installed.calls[("iop", "validate")] == 8
    assert installed.calls[("iop", "pure_iop")] == 5


def test_uninstall_restores_every_binding():
    originals = (iop.validate, dynamics.validate, scenarios.SCENARIOS["cat"],
                 np.linalg.eigh)
    tr = tracer.Tracer()
    tr.install()
    during = (iop.validate, dynamics.validate, scenarios.SCENARIOS["cat"],
              np.linalg.eigh)
    tr.uninstall()
    assert all(a is not b for a, b in zip(originals, during))
    assert (iop.validate, dynamics.validate, scenarios.SCENARIOS["cat"],
            np.linalg.eigh) == originals


def test_self_times_partition_the_top_span(installed):
    scenarios.cat()
    top = installed.incl_s[("scenarios", "cat")]
    total = sum(s for _, s in installed.layer_totals().values())
    assert total == pytest.approx(top, rel=1e-9)


def test_kernel_counted_only_inside_the_library(installed):
    a = np.eye(4, dtype=complex) / 4
    np.linalg.eigh(a)
    assert installed.calls[("kernel", "eigh")] == 0
    iop.validate(a)
    assert installed.calls[("kernel", "eigh")] == 1
    assert installed.counters["eigh_n3"] == 64


def test_generator_is_seeded():
    a = gen.condensed_item(np.random.default_rng(7))
    b = gen.condensed_item(np.random.default_rng(7))
    c = gen.condensed_item(np.random.default_rng(8))
    assert np.array_equal(a["rho_st"], b["rho_st"])
    assert not np.array_equal(a["rho_st"], c["rho_st"])
    text = gen.operator_file_text(np.random.default_rng(7))
    assert text == gen.operator_file_text(np.random.default_rng(7))
    assert 1.5e6 < len(text) < 3e6


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_items_pass_their_gates(name):
    wl = workloads.WORKLOADS[name](3)
    try:
        for i in range(4 if name == "sweep-small" else 2):
            assert wl.check(i, wl.item(i)) == []
    finally:
        wl.close()


def test_gate_catches_a_wrong_output():
    wl = workloads.SweepSmall(3)
    out = wl.item(0)
    out["expectation"] += 1e-6
    assert wl.check(0, out) == ["expectation"]


def test_tail_keeps_ten_samples_beyond():
    times = list(range(100))
    assert worker.tail(times) == (89, 90.0)
    assert worker.tail(list(range(15))) == (7, 50.0)
    assert worker.tail(list(range(1000))) == (899, 90.0)
