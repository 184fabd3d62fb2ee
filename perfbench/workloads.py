"""Workload definitions and the closed loop that drives them.

Every workload is one caller in a closed loop: the next operation starts
when the previous one returns.  A round runs each pipeline code through
``lrctower construct`` then ``lrctower verify`` (via the CLI's ``main``),
and after each of the two it serves a slice of a seeded stream of writes,
degraded reads and bulk node rebuilds.  Rounds repeat until the run's time
is up.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import io
import json
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ladder import LADDER, LadderCode, check_construct, check_verify, construct_argv, sha256, verify_argv

DATA = Path(__file__).resolve().parent / "data"


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: tuple[str, ...]  # ladder codes built and verified every round
    construct_calls: int = 1   # CLI construct calls per pipeline code per round
    verify_calls: int = 1      # CLI verify calls per pipeline code per round


# Every workload serves gs96-294, the ladder code with the largest localities,
# loaded in set-up from its pinned descriptor.  A slice of the stream is
# served after each code's construct calls and after its verify calls, so
# serving is spread over the whole round: the machine's speed wanders on a
# scale of seconds, and one block of serving would catch one state of it.
# (The distance codes' own repairs take about 20 us, so their p99 would time
# interrupts rather than the library.)  The golden code runs in every
# workload: its 81-codeword distance check and its CLI round trip keep every
# layer exercised, at about 1% of a round.  A run holds one build round and
# one or two distance rounds, so the CLI calls that last well under a second there
# (verify on build, construct on distance) are repeated for a steady median.
SERVED = "gs96-294"
SLICE_WORDS = 256      # messages per slice, one LrcCode.encode each
READS_PER_WORD = 2     # degraded reads per written word, one repair() each
BATCH = 128            # codewords per bulk rebuild (repair_roundtrip_counts) call

WORKLOADS = {
    w.name: w
    for w in (
        Workload("build", ("golden", "gs96-294", "gs96-500"), verify_calls=5),
        Workload("distance", ("golden", "ytower18", "hermitian"), construct_calls=30),
        Workload("repair", ("golden",), construct_calls=3, verify_calls=3),
    )
}

SETUP_REPEATS = 9


class Sections:
    """Timed sections (virtual-clock start and end, and the symbols each
    handled) in flat arrays, so that memory does not grow with the count."""

    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.symbols = array("d")

    def add(self, start: float, end: float, symbols: float = 0.0) -> None:
        self.start.append(start)
        self.end.append(end)
        self.symbols.append(symbols)

    def __len__(self):
        return len(self.start)


@dataclass
class Log:
    """Raw timed sections and check outcomes."""

    rounds: Sections = field(default_factory=Sections)
    setup: Sections = field(default_factory=Sections)
    encode: Sections = field(default_factory=Sections)
    repair: Sections = field(default_factory=Sections)
    repair_set: array = field(default_factory=lambda: array("b"))  # recovery set of each repair
    bulk: Sections = field(default_factory=Sections)
    construct: list = field(default_factory=list)   # (round, code, start, end)
    verify: list = field(default_factory=list)      # (round, code, start, end)
    reports: list = field(default_factory=list)     # (round, code, runtimes)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


class Runner:
    """Drives one workload against the imported ``lrctower``."""

    def __init__(self, workdir: Path, workload: Workload, seed: int, cal, tracer=None):
        self.workdir = workdir
        self.workload = workload
        self.seed = seed
        self.clock = cal.now
        self.tracer = tracer
        self.log = Log()
        self._import()
        self.served_code = None
        self.served_pivots = None

    # -- spans (traced run only) ------------------------------------------

    @contextlib.contextmanager
    def _phase(self, code: str, phase: str):
        if self.tracer is None:
            yield
            return
        with self.tracer.span("phase") as i:
            self.tracer.tags[i] = (code, phase)
            yield

    # -- set-up ------------------------------------------------------------

    def _import(self) -> None:
        self.cli = importlib.import_module("lrctower.cli")
        self.lib = importlib.import_module("lrctower")
        self.repair_mod = importlib.import_module("lrctower.repair")

    def setup_once(self) -> None:
        """Cold start: import the library afresh (its modules dropped from
        sys.modules first, so work done at import time shows), then the
        workload's own preparation."""
        for name in [m for m in sys.modules if m.partition(".")[0] == "lrctower"]:
            del sys.modules[name]
        self._import()
        self.workdir.mkdir(parents=True, exist_ok=True)
        code = LADDER[SERVED]
        data = gzip.decompress((DATA / f"{code.name}.json.gz").read_bytes())
        path = self.workdir / f"served-{code.name}.json"
        path.write_bytes(data)
        self.log.check([] if sha256(data) == code.sha256 else
                       [f"{code.name}: shipped descriptor sha256 {sha256(data)} != pinned {code.sha256}"])
        self.served_code = self.cli.load_code(path)
        self.served_pivots = self._systematic(self.served_code, code.name)

    def setup(self) -> None:
        for _ in range(SETUP_REPEATS):
            t0 = self.clock()
            self.setup_once()
            self.log.setup.add(t0, self.clock())

    # -- CLI pipeline -------------------------------------------------------

    def _call_cli(self, argv: list[str]) -> tuple[int, str, float, float]:
        out = io.StringIO()
        t0 = self.clock()
        try:
            with contextlib.redirect_stdout(out):
                if self.tracer is None:
                    rc = self.cli.main(argv)
                else:
                    with self.tracer.span("cli.main"):
                        rc = self.cli.main(argv)
        except Exception:  # a crash is a failed operation; keep the run going
            rc = -1
            out.write(traceback.format_exc())
        t1 = self.clock()
        return rc, out.getvalue(), t0, t1

    def pipeline(self, code: LadderCode, rnd: int, then) -> None:
        """Construct and verify one code through the CLI; ``then()`` runs
        after the construct calls and after the verify calls."""
        desc = self.workdir / f"{code.name}.json"
        report = self.workdir / f"{code.name}.report.json"
        for _ in range(self.workload.construct_calls):
            desc.unlink(missing_ok=True)
            with self._phase(code.name, "construct"):
                rc, stdout, t0, t1 = self._call_cli(construct_argv(code, desc))
            self.log.construct.append((rnd, code.name, t0, t1))
            self.log.check(check_construct(code, rc, stdout, desc.read_bytes() if desc.exists() else None))
        then()
        for _ in range(self.workload.verify_calls):
            report.unlink(missing_ok=True)
            with self._phase(code.name, "verify"):
                rc, stdout, t0, t1 = self._call_cli(verify_argv(desc, report, self.seed))
            self.log.verify.append((rnd, code.name, t0, t1))
            rep = json.loads(report.read_text()) if report.exists() else None
            self.log.check(check_verify(code, rc, rep))
            if rep is not None:
                self.log.reports.append((rnd, code, rep.get("runtimes", {})))
        then()

    # -- serving -------------------------------------------------------------

    def _systematic(self, code, name: str) -> np.ndarray:
        """Pivot columns of the RREF generator: a codeword restricted to
        them is its message, which checks every encode."""
        g = np.asarray(code.generator_matrix)
        pivots = np.argmax(g != 0, axis=1)
        rref = np.array_equal(g[:, pivots], np.eye(g.shape[0], dtype=g.dtype))
        self.log.check([] if rref else [f"{name}: generator matrix is not in reduced row-echelon form"])
        return pivots

    def serve(self, rng: np.random.Generator) -> None:
        """One slice: SLICE_WORDS encodes, READS_PER_WORD degraded reads per
        word alternating set 1 and set 2, then bulk rebuilds of the words."""
        code, pivots, name = self.served_code, self.served_pivots, SERVED
        n, k, q = code.params.n, code.params.k, code.field.q
        clock, log = self.clock, self.log
        msgs = rng.integers(0, q, size=(SLICE_WORDS, k), dtype=np.int64)
        words = np.zeros((SLICE_WORDS, n), dtype=np.int64)
        for w, msg in enumerate(msgs):
            t0 = clock()
            word = code.encode(msg)
            t1 = clock()
            log.encode.add(t0, t1, n)
            ok = np.shape(word) == (n,) and np.array_equal(np.asarray(word)[pivots], msg)
            log.check([] if ok else [f"{name}: encode of message {w} is not systematic"])
            words[w] = word
        tuples = [tuple(int(x) for x in word) for word in words]
        coords = rng.integers(0, n, size=SLICE_WORDS * READS_PER_WORD)
        repair, pattern = self.lib.repair, self.lib.ErasurePattern
        for j, i in enumerate(coords):
            word = tuples[j // READS_PER_WORD]
            erased = pattern(word, int(i), 1 + j % 2)
            t0 = clock()
            got = repair(code, erased)
            t1 = clock()
            log.repair.add(t0, t1)
            log.repair_set.append(1 + j % 2)
            got = int(getattr(got, "value", got))
            log.check([] if got == word[i] else
                      [f"{name}: repair of coordinate {i} via set {1 + j % 2} gave {got}, erased {word[i]}"])
        rebuild = self.repair_mod.repair_roundtrip_counts
        for lo in range(0, SLICE_WORDS, BATCH):
            batch = words[lo:lo + BATCH]
            t0 = clock()
            mismatches = rebuild(code, batch)
            t1 = clock()
            log.bulk.add(t0, t1, n * 2 * batch.shape[0])
            log.check([] if mismatches == 0 else
                      [f"{name}: bulk rebuild of words {lo}.. reported {mismatches} mismatches"])

    # -- rounds --------------------------------------------------------------

    def round(self, rnd: int) -> None:
        slices = iter(range(2 * len(self.workload.pipeline)))

        def serve_slice():
            with self._phase(SERVED, "serve"):
                self.serve(np.random.default_rng([self.seed, rnd, next(slices)]))

        for name in self.workload.pipeline:
            self.pipeline(LADDER[name], rnd, serve_slice)

    def run(self, seconds: float) -> None:
        """Rounds until ``seconds`` of wall time are used; a round that would
        end past the limit, judged by the last one, is not started."""
        began = time.perf_counter()
        rnd = 0
        while True:
            r0 = time.perf_counter()
            t0 = self.clock()
            if self.tracer is None:
                self.round(rnd)
            else:
                with self.tracer.span("round"):
                    self.round(rnd)
            self.log.rounds.add(t0, self.clock())
            rnd += 1
            now = time.perf_counter()
            if (now - began) + (now - r0) > seconds:
                break
