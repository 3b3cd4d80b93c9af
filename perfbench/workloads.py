"""The three workloads: set-up, one round of operations, and checks.

A round is the unit the timed loop repeats: every run attempts whole
rounds of the same operations.  ``round`` returns the raw outputs;
``check`` turns them into one verdict per operation, outside the timed
region.  Checks are pure functions of the outputs, so a verdict is
computed once per distinct output and reused for identical rounds.
"""

import contextlib
import io
import json
import os
import shutil
import traceback

import checks
import tables
from statements import THEORY_TEXT, random_identities


def cold_start(pbzlat):
    """Empty every module-level memo of the package (dicts whose name
    holds MEMO or CACHE, and functools caches), so a round starts from
    the state a fresh process is in after import."""
    for modname in ("core", "axioms", "terms", "congruences",
                    "constructions", "enumeration", "fileformat", "cli"):
        mod = getattr(pbzlat, modname)
        for attr, value in vars(mod).items():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
            elif ("MEMO" in attr or "CACHE" in attr) and \
                    isinstance(value, dict):
                value.clear()


def run_cli(pbzlat, argv):
    """``pbzlat.cli.main`` with stdout captured; (exit code, stdout).
    An exception becomes exit code None with the traceback as output."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = pbzlat.cli.main(argv)
    except Exception:
        return None, traceback.format_exc()
    return rc, buf.getvalue()


class Workload:
    def __init__(self, pbzlat, seed, workdir):
        self.pbzlat = pbzlat
        self.seed = seed
        self.workdir = workdir
        self._memo = {}

    def setup(self):
        pass

    def memo(self, key, compute):
        """compute() once per key; keys are outputs or check inputs."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


class AolEnumerate(Workload):
    """``pbzlat enumerate --structure antiortholattice --max 10`` from a
    cold memo; one operation per size level."""

    MAX = 10

    def round(self):
        out = os.path.join(self.workdir, "aol")
        cold_start(self.pbzlat)
        return run_cli(self.pbzlat, [
            "enumerate", "--structure", "antiortholattice",
            "--max", str(self.MAX), "--format", "structured",
            "--jobs", "1", "-o", out])

    def collect(self, output):
        """Read the written files back and remove them, outside the
        timed region."""
        rc, stdout = output
        out = os.path.join(self.workdir, "aol")
        files = []
        if os.path.isdir(out):
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), encoding="utf-8") as fh:
                    files.append((name, fh.read()))
            shutil.rmtree(out)
        return rc, stdout, tuple(files)

    def check(self, output):
        return self.memo(output, lambda: self._check(output))

    def _check(self, output):
        rc, stdout, files = output
        if rc != 0:
            return [checks.cli_error(rc, stdout)] * self.MAX
        try:
            counts = {int(k): v for k, v in json.loads(stdout)["counts"].items()}
        except (ValueError, KeyError, AttributeError) as e:
            return [f"unreadable output: {e}"] * self.MAX
        lattices = self._lattice_counts()
        verdicts = []
        for n in range(1, self.MAX + 1):
            texts = [text for name, text in files
                     if name.startswith(f"n{n}-")]
            verdicts.append(checks.check_aol_level(
                n, counts.get(n), texts, lattices[n - 1]))
        return verdicts

    def _lattice_counts(self):
        enum = self.pbzlat.enumeration
        return [sum(1 for _ in enum.enumerate_lattices(n, cap=self.MAX))
                for n in range(1, self.MAX + 1)]


class SearchBattery(Workload):
    """``pbzlat search <stmt> --max 8`` for every theory statement and a
    seeded set of random identities, over the BZ corpus, then with
    ``--class bz-star`` and ``--class pbz-star``."""

    MAX = 8
    CLASSES = (None, "bz-star", "pbz-star")

    def setup(self):
        stmts = list(THEORY_TEXT.items())
        stmts += [(text, text) for text in random_identities(self.seed)]
        self.ops = [(cls, arg, text) for cls in self.CLASSES
                    for arg, text in stmts]

    def round(self):
        cold_start(self.pbzlat)
        outputs = []
        for cls, arg, _ in self.ops:
            argv = ["search", arg, "--max", str(self.MAX),
                    "--format", "structured", "--jobs", "1"]
            if cls:
                argv += ["--class", cls]
            outputs.append(run_cli(self.pbzlat, argv))
        return outputs

    def collect(self, output):
        return tuple(output)

    def check(self, output):
        corpora = self.memo("corpora", self._corpora)
        return [self.memo(("corpus", op[0]), lambda: checks.check_corpus(
                    op[0], [A for A, _ in corpora[op[0]]]))
                or self.memo((op, out), lambda: checks.check_search(
                    op[0], op[2], out[0], out[1], corpora[op[0]]))
                for op, out in zip(self.ops, output)]

    def _corpora(self):
        """Each class's algebras up to the cap, as tables read from the
        program's own file rendering."""
        enum, ff = self.pbzlat.enumeration, self.pbzlat.fileformat
        out = {}
        for cls in self.CLASSES:
            spec = enum.EnumerationSpec(max_size=self.MAX,
                                        classes=(cls,) if cls else ())
            algs = [tables.parse_algebra(ff.dumps(A))
                    for A in enum.enumerate_all(spec)]
            out[cls] = [(A, tables.Evaluator(A)) for A in algs]
        return out


class ClaimSweep(Workload):
    """``verify_over_corpus`` for every registered claim over the
    antiortholattices up to n=10 and the BZ corpus up to n=8; set-up
    builds both corpora."""

    def setup(self):
        enum = self.pbzlat.enumeration
        self.specs = (
            ("aol", enum.EnumerationSpec(max_size=10,
                                         structure="antiortholattice")),
            ("bz", enum.EnumerationSpec(max_size=8)),
        )
        self.corpora = {key: list(enum.enumerate_all(spec))
                        for key, spec in self.specs}
        self.ops = [(key, spec, claim) for key, spec in self.specs
                    for claim in enum.claim_names()]

    def round(self):
        verify = self.pbzlat.enumeration.verify_over_corpus
        reports = []
        for _, spec, claim in self.ops:
            try:
                reports.append(verify(claim, spec))
            except Exception:
                reports.append(traceback.format_exc())
        return reports

    def collect(self, output):
        dumps = self.pbzlat.fileformat.dumps
        return tuple(r if isinstance(r, str) else
                     (r.examined, r.checked,
                      tuple(dumps(A) for A, _ in r.failures))
                     for r in output)

    def check(self, output):
        return [self.memo((op[0], op[2], out),
                          lambda: self._check(op[0], op[2], out))
                for op, out in zip(self.ops, output)]

    def _check(self, key, claim, out):
        if isinstance(out, str):
            return checks.cli_error(None, out)
        corpus = self.memo(("corpus", key), lambda: [
            tables.parse_algebra(self.pbzlat.fileformat.dumps(A))
            for A in self.corpora[key]])
        why = self.memo(("corpus check", key), lambda: checks.check_corpus(
            "aol" if key == "aol" else None, corpus))
        if why:
            return why
        expected = None
        if claim in checks.CONE_CLAIMS:
            expected = self.memo(
                ("expected", key, claim),
                lambda: checks.expected_cone_failures(claim, corpus))
        examined, checked, failures = out
        return checks.check_claim(claim, examined, checked, failures,
                                  corpus, expected)


WORKLOADS = {
    "aol-enumerate-10": AolEnumerate,
    "search-battery-8": SearchBattery,
    "claim-sweep-10": ClaimSweep,
}
