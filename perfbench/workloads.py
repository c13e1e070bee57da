"""The three workloads: op generation from the seed, the op itself, and the
observed fields that ``checks`` compares.

Every workload is one closed-loop client: the next op starts when the
previous one has returned.  ``execute`` is the timed part; building the
inputs, ``collect``, ``observed`` and ``identity`` run outside the timed
region and with tracing off.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import checks
import child
from speed import Measure

HERE = Path(__file__).resolve().parent


def _measure(*args):
    """Run ``child.py`` in a fresh interpreter; the ``Measure`` it prints."""
    out = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    return Measure(**json.loads(out.stdout))


class Workload:
    """What the three workloads share.

    ``probing`` is true in untraced runs: set-up and ops are then timed in
    reference seconds (``speed``).  ``setups`` collects the ``Measure`` of
    every set-up repetition."""

    in_process = True  # ops run in this process, under the run's probe
    cycle = 1  # the loop stops only after a multiple of this many ops

    def __init__(self, src, seed, probing):
        self.src = str(src)
        self.seed = seed
        self.probing = probing
        self.setups = []

    def setup_traced(self, tracer):
        pass

    def collect(self, op, tracer, measure):
        """The ``Measure`` of the op just executed, after the timed region."""
        return measure

    def identity(self, result):
        return result

    def extra_layer_metrics(self, tracer):
        return {}

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# cli-cold


CLI_SUBCOMMANDS = ("verify-stratum", "roots", "classify", "gen-fixture")


@dataclass(frozen=True)
class CliOp:
    index: int
    sub: str
    label: str
    argv: tuple

    @property
    def kind(self):
        return f"{self.sub}:{self.label}"


class CliCold(Workload):
    """One fresh ``istrata`` process per op, cycling over the six strata.

    Each cycle visits the strata in a seeded order; the subcommand rotates
    through ``CLI_SUBCOMMANDS`` from a seeded offset, so every 12 ops hold
    each subcommand three times.  On ``ell111`` the ``gen-fixture`` slot
    runs ``reconstruct`` instead, the one subcommand that only takes that
    stratum.  Set-up is the import of ``istrata.cli`` that every op's
    child pays, as the child reports it.
    """

    name = "cli-cold"
    in_process = False  # each child probes itself
    # Λ's cost differs by stratum (up to 1.5x); whole passes over the six
    # strata keep a run's mix, and so its median, the same from seed to seed
    cycle = len(checks.LABELS)

    def __init__(self, src, seed, probing):
        super().__init__(src, seed, probing)
        self.report = HERE / "out" / f"cli-child-{os.getpid()}.json"
        from istrata import strata, torelli, tori
        from istrata import io as serial

        self._strata, self._torelli, self._tori, self._io = strata, torelli, tori, serial

    def setup(self):
        """Nothing before the ops: each op's child reports its import."""

    def ops(self):
        rng = random.Random(self.seed)
        offset = rng.randrange(len(CLI_SUBCOMMANDS))
        i = 0
        while True:
            for label in rng.sample(checks.LABELS, len(checks.LABELS)):
                sub = CLI_SUBCOMMANDS[(i + offset) % len(CLI_SUBCOMMANDS)]
                seed = str(rng.randrange(10_000))
                if sub == "verify-stratum":
                    argv = (sub, label)
                elif sub == "roots":
                    argv = (sub, "--label", label)
                elif sub == "classify":
                    argv = (sub, "--label", label, "--seed", seed)
                elif label == "ell111":
                    sub, argv = "reconstruct", ("reconstruct", "--seed", seed)
                else:
                    argv = (sub, label, "--seed", seed)
                yield CliOp(i, sub, label, argv)
                i += 1

    def execute(self, op, tracer=None):
        how = "trace" if tracer is not None else "probe" if self.probing else "plain"
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "cli", self.src, str(self.report), how,
             *op.argv],
            capture_output=True,
            text=True,
            timeout=170,
        )
        return proc.returncode, proc.stdout

    def collect(self, op, tracer, measure):
        """Read the child's report: its import time becomes a set-up
        repetition, its trace is merged, and its ``Measure`` is returned
        (None if the child wrote no report)."""
        try:
            with open(self.report) as fh:
                data = json.load(fh)
        except FileNotFoundError:
            return None
        os.remove(self.report)
        self.setups.append(Measure(**data["import_s"]))
        if tracer is not None:
            tracer.absorb(op.index, data)
        return Measure(**data["measure"])

    def expected(self, op):
        return checks.expected_cli(op.sub, op.label)

    def observed(self, op, result):
        code, stdout = result
        obs = {"exit_code": code}
        if code != 0:
            return obs
        report = json.loads(stdout)
        obs.update(checks.observed_cli(op.sub, report))
        if op.sub == "reconstruct":
            obs["equivalent"] = self._reconstruction_matches(op, report)
        return obs

    def _reconstruction_matches(self, op, report):
        """Compare the reported configurations with the generating ones.

        The generating point configurations come from the seeded restriction
        data alone, which needs the ell111 model but not Λ."""
        model = self._strata.build_stratum_model("ell111")
        seed = int(op.argv[op.argv.index("--seed") + 1])
        z_points = self._strata.generate_restriction_data(model, seed).z_points
        torus = self._tori.RationalTorus(2)
        config = self._torelli.AnticanonicalConfig
        pair = report["distinguished_pair"]
        gens = [config(torus, z_points[i]) for i in pair]
        rec = SimpleNamespace(
            configs=[
                config(torus, tuple(self._io.point_from_json(p) for p in pts))
                for pts in report["configurations"]
            ]
        )
        return self._torelli.descriptors_equivalent(rec, gens)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def extra_layer_metrics(self, tracer):
        return {"cli.import_s": statistics.median(m.wall_s for m in self.setups)}


# ---------------------------------------------------------------------------
# fixture-roundtrip


@dataclass(frozen=True)
class FixtureOp:
    index: int
    label: str
    seed: int

    @property
    def kind(self):
        return self.label


class FixtureRoundtrip(Workload):
    """Seeded fixture → JSON text → dataset → classifier, per stratum, with
    (1,1,1) reconstruction on ``ell111``; Λ is warm after set-up."""

    name = "fixture-roundtrip"
    cycle = len(checks.LABELS)

    def __init__(self, src, seed, probing):
        super().__init__(src, seed, probing)
        from istrata import io as serial
        from istrata import strata, torelli

        self._strata, self._torelli, self._io = strata, torelli, serial

    def setup(self):
        """Cold Λ over the six strata, three times: twice in a fresh
        process and last in this one, which then runs the ops warm."""
        self.setups += [_measure("lambda", self.src) for _ in range(2)]
        self.setups.append(child.cold_lambda())

    def setup_traced(self, tracer):
        """Traced cold Λ, one counter scope per stratum."""
        strata = self._strata
        for label in strata.STRATUM_LABELS:
            scope = f"setup:{label}"
            tracer.run(scope, scope, lambda: strata.compute_lambda(label))

    def extra_layer_metrics(self, tracer):
        """The traced set-up split that the ROADMAP baseline quotes."""

        def incl(label, name):
            return tracer.counters.get(f"setup:{label}", {}).get(name, [0, 0.0])[1]

        labels = self._strata.STRATUM_LABELS
        total = sum(incl(lb, "strata.compute_lambda") for lb in labels)
        lll = sum(incl(lb, "exact.lll_reduce_gram") for lb in labels)
        return {
            "lambda.total_s": total,
            "lambda.lll_share": lll / total,
            "lambda.rat21.total_s": incl("rat21", "strata.compute_lambda"),
            "lambda.rat21.lll_s": incl("rat21", "exact.lll_reduce_gram"),
            "lambda.rat21.short_vectors_s": incl("rat21", "exact.short_vectors"),
            "lambda.rat21.decompose_s": incl("rat21", "roots.decompose_root_system"),
        }

    def ops(self):
        rng = random.Random(self.seed)
        i = 0
        while True:
            for label in rng.sample(checks.LABELS, len(checks.LABELS)):
                yield FixtureOp(i, label, rng.randrange(10**6))
                i += 1

    def _roundtrip(self, op):
        torelli, serial = self._torelli, self._io
        ds, desc = torelli.gen_fixture(op.label, op.seed)
        text = serial.dumps(serial.dataset_to_json(ds))
        back = serial.dataset_from_json(json.loads(text))
        label, _ = torelli.classify_stratum(back)
        rec = equivalent = None
        if op.label == "ell111":
            rec = torelli.reconstruct_111(back)
            gens = [desc["z_configs"][i] for i in rec.distinguished_pair]
            equivalent = torelli.descriptors_equivalent(rec, gens)
        return label, text, rec, equivalent

    def execute(self, op, tracer=None):
        if tracer is None:
            return self._roundtrip(op)
        return tracer.run("op", op.index, self._roundtrip, op)

    def identity(self, result):
        label, text, rec, equivalent = result
        if rec is None:
            return label, text
        points = [[self._io.point_to_json(p) for p in c.points] for c in rec.configs]
        return label, text, rec.distinguished_pair, rec.section_curve, points, equivalent

    def expected(self, op):
        out = dict(checks.expected_dataset(op.label), classified_as=op.label)
        if op.label == "ell111":
            out.update(distinguished_pair=(0, 1), section_curve=2, equivalent=True)
        return out

    def observed(self, op, result):
        label, text, rec, equivalent = result
        out = dict(checks.observed_dataset(json.loads(text)), classified_as=label)
        if rec is not None:
            out.update(
                distinguished_pair=tuple(rec.distinguished_pair),
                section_curve=rec.section_curve,
                equivalent=equivalent,
            )
        return out


# ---------------------------------------------------------------------------
# normal-form


@dataclass(frozen=True)
class NormalFormOp:
    index: int
    branch: str
    poly: object  # WeightedPolynomial

    @property
    def kind(self):
        return self.branch


class NormalForm(Workload):
    """Seeded weight-6 deformations reduced to the nine-parameter slice,
    alternating the g₂ ≠ 0 and the g₂ = 0, g₃ ≠ 0 branches."""

    name = "normal-form"
    cycle = 2
    Q = 97  # coefficient denominators

    def __init__(self, src, seed, probing):
        super().__init__(src, seed, probing)
        from istrata import io as serial
        from istrata import normalform

        self._nf, self._io = normalform, serial

    def setup(self):
        """Import time of ``istrata.normalform`` and ``istrata.io`` in nine
        fresh processes."""
        modules = ("istrata.normalform", "istrata.io")
        self.setups += [_measure("import", self.src, *modules) for _ in range(9)]

    def deformation(self, rng, branch):
        """Weierstrass t⁰ part on the given branch plus a random coefficient
        on every t-divisible weight-6 monomial."""
        q = self.Q

        def rnd(nonzero=False):
            if nonzero:
                return Fraction(rng.randrange(1, q) * rng.choice((1, -1)), q)
            return Fraction(rng.randrange(-q, q), q)

        coeffs = {(0, 2, 0, 0): Fraction(-1), (3, 0, 0, 0): Fraction(1)}
        if branch == "g2":
            coeffs[(1, 0, 4, 0)] = rnd(nonzero=True)
            coeffs[(0, 0, 6, 0)] = rnd()
        else:
            coeffs[(0, 0, 6, 0)] = rnd(nonzero=True)
        for ex in range(4):
            for ey in range(3):
                for ez in range(7):
                    for et in range(1, 7):
                        if 2 * ex + 3 * ey + ez + et == 6:
                            coeffs[(ex, ey, ez, et)] = rnd()
        return self._nf.WeightedPolynomial.from_dict(coeffs)

    def ops(self):
        rng = random.Random(self.seed)
        i = 0
        while True:
            branch = ("g2", "g3")[i % 2]
            yield NormalFormOp(i, branch, self.deformation(rng, branch))
            i += 1

    def _reduce(self, op):
        result = self._nf.reduce_to_standard_form(op.poly)
        coords = self._nf.slice_coordinates(result)
        return result, coords, self._io.polynomial_to_json(result.polynomial)

    def execute(self, op, tracer=None):
        if tracer is None:
            return self._reduce(op)
        return tracer.run("op", op.index, self._reduce, op)

    def identity(self, result):
        res, coords, poly_json = result
        ch = res.change
        return (
            res.branch,
            poly_json,
            {k: str(v) for k, v in coords.items()},
            [str(c) for c in (*ch.alpha, *ch.beta, ch.gamma)],
        )

    def expected(self, op):
        return {
            "branch": op.branch,
            "killed_zero": True,
            "t0_unchanged": True,
            "change_reproduces": True,
            "slice_size": checks.SLICE_SIZE,
            "json_roundtrip": True,
        }

    def observed(self, op, result):
        res, coords, poly_json = result
        out = res.polynomial
        killed = checks.KILLED_COMMON + (checks.KILLED_BY_GAMMA[op.branch],)
        return {
            "branch": res.branch,
            "killed_zero": all(out.coefficient(e) == 0 for e in killed),
            "t0_unchanged": out.t_part(0) == op.poly.t_part(0),
            "change_reproduces": self._nf.apply_change(op.poly, res.change).coeffs
            == out.coeffs,
            "slice_size": len(coords),
            "json_roundtrip": self._io.polynomial_from_json(poly_json) == out,
        }


WORKLOADS = {w.name: w for w in (CliCold, FixtureRoundtrip, NormalForm)}
