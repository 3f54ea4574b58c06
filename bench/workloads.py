"""The four benchmark workloads.

Each workload builds its raw inputs from the seed once, at set-up.  Its
`item(i)` makes the library calls of one closed-loop item and returns
what they produced; `check(i, out)` then decides, with plain numpy and
outside the item's timer, whether that output is correct, and returns
the names of the checks that failed.  The bounds are the repository's
own: acceptance criterion 3 for the sweep, the scenario checks for
two-slit, and the tolerances of the condensation and composite tests.

The library is reached only through module attributes (`iop.validate`,
never a name imported from it), so an installed tracer sees every call.
"""

from __future__ import annotations

import hashlib
import io
import os
import shutil
import tempfile
from contextlib import redirect_stdout

import numpy as np

import gen
from iopsim import (cli, composite, condensation, dynamics, iop, ivec,
                    measurement, scenarios)

HERE = os.path.dirname(os.path.abspath(__file__))
SWEEP_POOL = 256
CONDENSED_POOL = 4
CHAIN_STEPS = 50
TWO_SLIT = {"grid_n": 512, "slit_positions": ((160, 176), (336, 352)),
            "steps": 160}
CLI_SCENARIOS = ("stern-gerlach", "cat", "spin-one", "two-slit")


def _dist(a, b):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def _failed(bounds, worst):
    return [name for name, bound in bounds.items() if not worst[name] <= bound]


class Workload:
    def digest(self):
        """A fingerprint of reference output shared by every process, if any."""
        return None

    def close(self):
        pass


class SweepSmall(Workload):
    """Acceptance-criterion-3 pipeline on one operator; d cycles 2, 3, 4, 8."""

    BOUNDS = {"validity": 1e-9, "entropy": 1e-9, "round_trip_max": 1e-8,
              "round_trip_mixture": 1e-8, "round_trip_ivec": 1e-8,
              "normalization": 1e-9, "expectation": 1e-9}

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.pool = [gen.sweep_item(rng, gen.SWEEP_DIMS[i % len(gen.SWEEP_DIMS)])
                     for i in range(SWEEP_POOL)]

    def item(self, i):
        x = self.pool[i % len(self.pool)]
        rho = iop.validate(x["rho"])
        evolved = dynamics.evolve(rho, dynamics.unitary(x["u"]))
        entropies = (iop.entropy(rho), iop.entropy(evolved))
        from_max = iop.contract(iop.max_iop(x["d"]), iop.contraction_from_max(rho))
        other = iop.validate(x["other"])
        whole = iop.validate(0.5 * rho.matrix + 0.5 * other.matrix)
        from_mixture = iop.contract(whole, iop.contraction_from_mixture(whole, rho))
        ms = measurement.MeasurementSystem.projective(x["projectors"], f=x["f"])
        probs = dict(measurement.outcome_probabilities(ms, rho))
        expect = measurement.expectation(measurement.observable(ms), rho)
        v = ivec.gauge_fix(x["psi"])
        back = ivec.from_iop(ivec.to_iop(v))
        return {"rho": rho.matrix, "evolved": evolved.matrix,
                "entropies": entropies, "from_max": from_max.matrix,
                "from_mixture": from_mixture.matrix, "probs": probs,
                "f": ms.f, "expectation": expect, "v": v.amplitudes,
                "v_back": back.amplitudes}

    def check(self, i, out):
        evolved = out["evolved"]
        w = np.linalg.eigvalsh(evolved)
        probs = out["probs"]
        worst = {
            "validity": max(abs(float(np.trace(evolved).real) - 1.0),
                            -float(w[0])),
            "entropy": abs(out["entropies"][1] - out["entropies"][0]),
            "round_trip_max": _dist(out["from_max"], out["rho"]),
            "round_trip_mixture": _dist(out["from_mixture"], out["rho"]),
            "round_trip_ivec": _dist(out["v_back"], out["v"]),
            "normalization": abs(sum(probs.values()) - 1.0),
            "expectation": abs(sum(out["f"][m] * p for m, p in probs.items())
                               - out["expectation"]),
        }
        return _failed(self.BOUNDS, worst)


class TwoSlitGrid(Workload):
    """The two-slit scenario at grid 512: the default geometry scaled x4."""

    def __init__(self, seed):
        pass

    def item(self, i):
        return scenarios.two_slit(**TWO_SLIT)

    def check(self, i, report):
        return [c.description for c in report.checks if not c.passed]


class CondensedChain(Workload):
    """Condensation at d = 128 (8 blocks of 16), then a composite 8 x 16."""

    BOUNDS = {"label_drift": 1e-9, "round_trip_mixture": 1e-8,
              "branch_weights": 1e-9, "unconditional_object": 1e-9}

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.pool = [gen.condensed_item(rng) for _ in range(CONDENSED_POOL)]

    def item(self, i):
        x = self.pool[i % len(self.pool)]
        c = condensation.CondensationStructure.from_index_blocks(
            x["u"].shape[0], x["blocks"])
        u = dynamics.unitary(x["u"])
        coupled = dynamics.unitary(x["coupled"])
        respects = (condensation.respects_condensation(u, c),
                    condensation.respects_condensation(coupled, c))
        finest = (condensation.finest_respected_structure(u, c),
                  condensation.finest_respected_structure(coupled, c))
        rho = iop.validate(x["rho"])
        labels = [condensation.label_probabilities(rho, c)]
        for _ in range(CHAIN_STEPS):
            rho = dynamics.evolve(rho, u)
            labels.append(condensation.label_probabilities(rho, c))
        whole = condensation.block_projected(rho, c)
        trips = []
        for m in c.labels:
            part = condensation.condition_on_label(rho, c, m)
            back = iop.contract(whole, iop.contraction_from_mixture(whole, part))
            trips.append((part.matrix, back.matrix))
        spec = composite.CompositeSpec(
            dim_s=x["dim_s"], dim_t=x["dim_t"],
            t_structure=condensation.CondensationStructure.from_index_blocks(
                x["dim_t"], x["t_blocks"]))
        rho_st = iop.validate(x["rho_st"])
        branches = composite.branch_decompose(rho_st, spec)
        obj = composite.unconditional_object(branches)
        return {"respects": respects,
                "finest_sizes": tuple(len(s.labels) for s in finest),
                "labels": labels, "trips": trips,
                "weights": [b.weight for b in branches.branches],
                "rho_st": rho_st.matrix, "obj": obj.matrix, "x": x}

    def check(self, i, out):
        x = out["x"]
        start = np.array([p for _, p in out["labels"][0]])
        ds, dt = x["dim_s"], x["dim_t"]
        traced_t = np.einsum("ijkj->ik", out["rho_st"].reshape(ds, dt, ds, dt))
        worst = {
            "label_drift": max(float(np.max(np.abs(
                np.array([p for _, p in step]) - start)))
                for step in out["labels"]),
            "round_trip_mixture": max(_dist(a, b) for a, b in out["trips"]),
            "branch_weights": abs(sum(out["weights"]) - 1.0),
            "unconditional_object": _dist(out["obj"], traced_t),
        }
        failed = _failed(self.BOUNDS, worst)
        if out["respects"] != (True, False):
            failed.append("respects_condensation")
        n_blocks = len(x["blocks"])
        if out["finest_sizes"] != (n_blocks, n_blocks - 1):
            failed.append("finest_respected_structure")
        if len(out["weights"]) != len(x["t_blocks"]):
            failed.append("branch_count")
        return failed


class CliReports(Workload):
    """One round of in-process `iopsim` CLI calls.

    Reports go to a scratch directory beside this file, so that a run
    writes only inside its checkout; the first round's bytes are the
    reference every later round must reproduce.
    """

    def __init__(self, seed):
        self.tmp = tempfile.mkdtemp(prefix=".scratch-", dir=HERE)
        self.operators = os.path.join(self.tmp, "operators.json")
        with open(self.operators, "w") as fh:
            fh.write(gen.operator_file_text(np.random.default_rng(seed)))
        self.reference = None

    @staticmethod
    def _main(argv):
        # stdout is captured by the caller; argparse exits are exit codes
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code

    def item(self, i):
        codes, outputs = [], {}
        for name in CLI_SCENARIOS:
            path = os.path.join(self.tmp, f"{name}.json")
            codes.append(self._main(["run", name, "--out", path]))
            with open(path, "rb") as fh:
                outputs[name] = fh.read()
        for key, argv in (("spin-one --json", ["run", "spin-one", "--json"]),
                          ("validate", ["validate", self.operators])):
            buf = io.StringIO()
            with redirect_stdout(buf):
                codes.append(self._main(argv))
            outputs[key] = buf.getvalue().encode()
        return codes, outputs

    def check(self, i, out):
        codes, outputs = out
        failed = ["exit_code"] if any(c != 0 for c in codes) else []
        if self.reference is None:
            self.reference = outputs
        failed += [k for k in outputs if outputs[k] != self.reference[k]]
        return failed

    def digest(self):
        h = hashlib.sha256()
        for key in sorted(self.reference or {}):
            h.update(key.encode() + b"\0" + self.reference[key])
        return h.hexdigest()

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {
    "sweep-small": SweepSmall,
    "two-slit-grid": TwoSlitGrid,
    "condensed-chain": CondensedChain,
    "cli-reports": CliReports,
}
