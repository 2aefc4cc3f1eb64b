"""Benchmark of the position-constraint string solver: batch, session, serve.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload batch --seed 1 --seconds 12 --trace 0

Three closed-loop workloads, one per invocation:

* ``batch`` — every input gets a fresh ``ScriptRunner`` (parse, session,
  ``check-sat``), one after another: the paper's evaluation shape.  The LIA
  layer does nearly all the work.
* ``session`` — a symbolic-execution client: one ``repro.Session`` per path
  condition; at each atom it checks the branch as an assumption, then
  asserts it; the last check is followed by ``model()`` or
  ``unsat_core()``.  Most checks hit the session's stage caches.
* ``serve`` — one ``python -m repro.serve`` subprocess with one worker per
  CPU and the default portfolio; one closed-loop connection replays a fast
  slice of the batch inputs.

Every workload repeats whole passes over its pool, as many as start
within ``--seconds`` and at least three, and takes each unit's (input's,
or chain check's) median latency over the passes.  ``check_ms_p50`` and
``check_ms_tail`` are the median and the tail of those per-unit medians,
``throughput_per_s`` is the units of one pass over the sum of their
medians: the rate of a closed-loop client at the run's typical speed.

The host's speed drifts by tens of percent within minutes.  A fixed
pure-Python loop (:func:`probe`) runs before every unit and around every
set-up; every reported time is the measured time times the reference
probe time over the run's median probe time (:func:`speed`), so that it
reads as on a host of the reference speed.  The measured figures and the
factor are printed and kept in the report.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of one traced pass
(see ``spans.py``).  ``trace.overhead_ratio`` is the traced over the
untraced wall of a small fixed slice, run alternately untraced and traced
(the serve slice for batch and serve, the pipeline chains for session).
On serve, the layer spans and counters come from an in-process pass over
the slice.  On batch and session, ``serve.*`` measure the same boundaries
with the engine in the bench process: ``server_ms`` is the time inside the
traced engine entry points, ``transfer_ms`` the rest of the client-side
latency, ``wait_ms`` the engine time outside the engine's own ``ms.*``
stages, ``cpu_ms_per_job`` the process CPU per check of the traced pass,
and every run is useful.

Every decided verdict is checked against the input's known status, every
``sat`` model against ``repro.strings.semantics.eval_problem``, and every
undecided check must carry a typed ``UnknownReason``.  Any failure makes
``correct`` false and the exit code 1.  Reports, span dumps and the
counters used by the determinism check go to ``.perfbench/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("batch", "session", "serve")

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("throughput_per_s", "1/s"),
    ("check_ms_p50", "ms"),
    ("check_ms_tail", "ms"),
    ("decided_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: traced spans: metric name -> span name; the value is self time per check
SPAN_METRICS: Tuple[Tuple[str, str], ...] = (
    ("smtlib.parse_ms", "smtlib.parse"),
    ("strings.reduce_ms", "strings.reduce"),
    ("strings.normalize_ms", "strings.normalize"),
    ("eqsolver.decompose_ms", "eqsolver.decompose"),
    ("core.encode_ms", "core.encode"),
    ("lia.check_ms", "lia.check"),
    ("lia.presolve_ms", "lia.presolve"),
    ("lia.sat_ms", "lia.sat"),
    ("lia.simplex_ms", "lia.simplex"),
    ("lia.intsolver_ms", "lia.intsolver"),
    ("solver.self_ms", "solver.pipeline"),
    ("solver.verify_ms", "solver.verify"),
)
#: exact program counters summed over fully decided units
COUNTER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("core.parikh_steps", "steps.parikh.encode"),
    ("lia.pivots", "pivots"),
    ("lia.conflicts", "conflicts"),
    ("lia.decisions", "decisions"),
    ("lia.theory_checks", "theory_checks"),
    ("budget.steps", "budget_steps"),
)
#: hit ratios over the same units: metric -> (hit keys, miss keys)
RATIO_METRICS: Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...]], ...] = (
    ("automata.cache_hit_ratio", ("automata_cache_hits",), ("automata_cache_misses",)),
    (
        "solver.cache_hit_ratio",
        ("normal_form_hits", "decomposition_hits", "component_hits"),
        ("normal_form_misses", "decomposition_misses", "component_misses"),
    ),
)
SERVE_METRICS: Tuple[Tuple[str, str], ...] = (
    ("serve.server_ms", "ms"),
    ("serve.transfer_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.useful_run_ratio", "ratio"),
    ("serve.cpu_ms_per_job", "ms"),
)
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    tuple((name, "ms") for name, _span in SPAN_METRICS)
    + tuple((name, "count") for name, _key in COUNTER_METRICS)
    + (("lia.assert_bound_calls", "count"), ("solver.core_checks", "count"))
    + tuple((name, "ratio") for name, _hits, _misses in RATIO_METRICS)
    + SERVE_METRICS
    + (("trace.overhead_ratio", "ratio"),)
)

#: per-check wall-clock limits (seconds).  Batch: on a 2-CPU x86-64 host
#: the slowest decided input takes about 2.2 s and the fastest limited one
#: about 3.1 s.  Session and serve inputs decide in about a second or less.
BATCH_LIMIT = 3.0
SESSION_LIMIT = 3.0
SERVE_LIMIT = 10.0
#: set-up is repeated this many times; setup_s is the median
SETUP_REPEATS = 5
#: a run repeats whole passes over its pool at least this many times
MIN_ROUNDS = 3
#: the speed probe: a fixed pure-Python loop of this many iterations, run
#: before every timed unit and around every set-up
PROBE_ITERATIONS = 50_000
#: the probe's time on the reference host (a 2-vCPU x86-64 VM, Python
#: 3.11); every reported time is scaled to a host this fast
REFERENCE_PROBE_MS = 5.0
#: a check's host speed is taken over its probe and this many on each side
PROBE_WINDOW = 2
#: PYTHONHASHSEED of the bench process and the server it starts
HASH_SEED = "0"
#: the run gives up (exit 1, no result) after this many seconds
RUN_GUARD_S = 170
#: untimed warm-up: this many serve-slice scripts (batch), these chains
#: (session), this many requests (serve)
BATCH_WARMUP = 8
SESSION_WARMUP = ("pipeline__pipe-0-reachability", "pipeline__pipe-1-inversion",
                  "pipeline__pipe-4-inversion")
SERVE_WARMUP = 4
#: alternating untraced/traced rounds over the overhead slice
OVERHEAD_ROUNDS = 2
#: appended to every serve request so that sat answers carry a model
GET_MODEL = "(get-model)\n"


# ----------------------------------------------------------------------
# Records and small statistics
# ----------------------------------------------------------------------
@dataclass
class Check:
    """One timed check as the client saw it."""

    unit: str
    latency: float
    verdict: str
    #: non-empty when the answer failed the output gate
    failure: str = ""
    #: sum of the engine's own ``ms.*`` stage timings for this check
    stage_ms: float = 0.0
    #: serve: response ``elapsed`` seconds
    server_s: float = 0.0
    #: index of the speed probe run just before this check's unit
    probe: int = -1

    @property
    def decided(self) -> bool:
        return self.verdict in ("sat", "unsat")


@dataclass
class Phase:
    """Checks of one measured phase plus the counters of its decided units."""

    checks: List[Check] = field(default_factory=list)
    wall: float = 0.0
    cpu: float = 0.0
    #: seconds of each speed probe run during the phase
    probes: List[float] = field(default_factory=list)
    #: unit -> program counters, for units whose every check decided
    counters: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: extra notes printed with the report
    notes: Dict[str, object] = field(default_factory=dict)


def tail(latencies: Sequence[float], beyond: int = 10) -> Tuple[float, float, int]:
    """Latency at the highest percentile with ``beyond`` samples above it.

    Returns ``(value, percentile, samples)``.  With too few samples for
    ``beyond`` the maximum is returned (its percentile is 100).
    """
    ordered = sorted(latencies)
    count = len(ordered)
    if count == 0:
        raise ValueError("no samples")
    index = count - 1 - beyond if count > beyond else count - 1
    return ordered[index], 100.0 * (index + 1) / count, count


def hd_quantile(values: Sequence[float], quantile: float, steps: int = 16) -> float:
    """Harrell-Davis estimate of a quantile: a Beta-weighted mean of all
    order statistics.

    A sample quantile jumps between two neighbouring latencies when jitter
    reorders them; on a batch pass (81 checks, sparse around the middle)
    that moved the sample median by 20 % between runs, against 8 % for
    this estimate.  The weight of the i-th smallest of n samples is the
    Beta((n+1)q, (n+1)(1-q)) probability of ((i-1)/n, i/n], integrated
    here with Simpson's rule.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        raise ValueError("no samples")
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile {quantile} is not inside (0, 1)")
    alpha, beta = (count + 1) * quantile, (count + 1) * (1.0 - quantile)
    log_norm = math.lgamma(alpha + beta) - math.lgamma(alpha) - math.lgamma(beta)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (alpha - 1) * math.log(x) + (beta - 1) * math.log1p(-x))

    width = 1.0 / count / steps
    estimate = total = 0.0
    for index, value in enumerate(ordered):
        low = index / count
        weight = sum(
            (1 if k in (0, steps) else 4 if k % 2 else 2) * density(low + k * width)
            for k in range(steps + 1)
        ) * width / 3.0
        estimate += weight * value
        total += weight
    return estimate / total


def tail_estimate(values: Sequence[float]) -> Tuple[float, float, int]:
    """:func:`tail`, with the latency at that percentile estimated by
    :func:`hd_quantile` (the maximum when there are too few samples)."""
    value, percentile, samples = tail(values)
    if percentile < 100.0:
        value = hd_quantile(values, percentile / 100.0)
    return value, percentile, samples


def probe() -> float:
    """Seconds one run of the speed probe takes.

    The host's speed drifts: over seven minutes of one fixed solver task,
    30-second windows ran between 0.75 and 1.23 times their median speed.
    This loop, run between the checks, slows down with them: divided by
    the median probe time of their window, the windows spread by 4 % (IQR
    over median) instead of 25 %.
    """
    start = time.perf_counter()
    total = 0
    for value in range(PROBE_ITERATIONS):
        total += value * value % 7
    return time.perf_counter() - start


def per_unit_medians(checks: Sequence["Check"]) -> List[float]:
    """Median latency of each unit over the rounds of a run.

    A unit is one input (batch, serve) or one check of a chain (session);
    each round measures it once, so a burst of host load that slows one
    round moves no unit's median.
    """
    samples: Dict[str, List[float]] = {}
    for check in checks:
        samples.setdefault(check.unit, []).append(check.latency)
    return [statistics.median(values) for values in samples.values()]


def typed_reason(text: str) -> bool:
    """Whether a rendered unknown reason starts with an ``UnknownKind``."""
    from repro.budget import UnknownKind

    head = text.split("@", 1)[0].split(" ", 1)[0]
    return head in {kind.value for kind in UnknownKind}


def judge(verdict: str, expected: Optional[str], model_ok: Optional[bool], typed: bool) -> str:
    """The output gate for one answer; returns a failure description or ""."""
    if verdict in ("sat", "unsat"):
        if expected is not None and verdict != expected:
            return f"wrong verdict {verdict} (expected {expected})"
        if verdict == "sat" and not model_ok:
            return "sat model not verified"
        return ""
    if not typed:
        return f"undecided ({verdict}) without a typed UnknownReason"
    return ""


def extend_model(problem, strings: Dict[str, str], integers: Dict[str, int]) -> None:
    """Add the values of the parser's definitional constants to a model.

    A ``get-model`` answer covers the declared constants only; nested
    ``str.substr``/``str.replace``/``str.indexof`` applications are named by
    fresh constants (``_sub!N``, ``_rep!N``, ``_idx!N``) whose one possible
    value follows from their defining atom.
    """
    from repro.strings.ast import IndexOfAtom, ReplaceAtom, StringVar, SubstrAtom
    from repro.strings.semantics import eval_term, str_indexof, str_replace, str_substr

    def number(expr) -> int:
        values = {
            name: len(strings[name[len("@len."):]]) if name.startswith("@len.") else integers[name]
            for name in expr.variables()
        }
        return int(expr.evaluate(values))

    changed = True
    while changed:
        changed = False
        for atom in problem.atoms:
            if not getattr(atom, "positive", False):
                continue
            try:
                if isinstance(atom, (SubstrAtom, ReplaceAtom)):
                    target = atom.target
                    if len(target) != 1 or not isinstance(target[0], StringVar):
                        continue
                    if target[0].name in strings:
                        continue
                    haystack = eval_term(atom.haystack, strings)
                    if isinstance(atom, SubstrAtom):
                        value = str_substr(haystack, number(atom.offset), number(atom.length))
                    else:
                        value = str_replace(haystack, eval_term(atom.needle, strings),
                                            eval_term(atom.replacement, strings))
                    strings[target[0].name] = value
                    changed = True
                elif isinstance(atom, IndexOfAtom):
                    names = [name for name in atom.result.variables() if name not in integers]
                    if len(names) != 1:
                        continue
                    integers[names[0]] = str_indexof(
                        eval_term(atom.haystack, strings), eval_term(atom.needle, strings),
                        number(atom.offset),
                    )
                    changed = True
            except KeyError:
                continue


def stage_ms(stats: Dict[str, int]) -> float:
    return float(sum(value for key, value in stats.items() if key.startswith("ms.")))


def exact_counters(stats: Dict[str, int]) -> Dict[str, int]:
    """The program's counters without its wall-clock ``ms.*`` stage timings."""
    return {
        key: value for key, value in stats.items()
        if isinstance(value, int) and not key.startswith("ms.")
    }


# ----------------------------------------------------------------------
# Tracing targets
# ----------------------------------------------------------------------
def trace_targets():
    """``(span name, function-or-class, method, count_only)`` per layer."""
    from repro.core.notcontains import NotContainsEncoder
    from repro.core.single import encode_single
    from repro.core.system import encode_system
    from repro.eqsolver.noodler import decompose
    from repro.lia.intsolver import check_integer_feasibility, check_rational_feasibility
    from repro.lia.sat import DpllSolver
    from repro.lia.simplex import Simplex
    from repro.lia.simplify import eliminate_equalities
    from repro.lia.solver import LiaSolver
    from repro.smtlib.parser import parse_script
    from repro.solver.session import Session
    from repro.solver.solver import IncrementalPipeline
    from repro.strings.normal_form import normalize
    from repro.strings.reductions import reduce_problem
    from repro.strings.semantics import eval_problem

    return [
        ("smtlib.parse", parse_script, None, False),
        ("strings.reduce", reduce_problem, None, False),
        ("strings.normalize", normalize, None, False),
        ("eqsolver.decompose", decompose, None, False),
        ("core.encode", encode_single, None, False),
        ("core.encode", encode_system, None, False),
        ("core.encode", NotContainsEncoder, "length_difference", False),
        ("core.encode", NotContainsEncoder, "instantiation_lemma", False),
        ("core.encode", NotContainsEncoder, "quantified_formula", False),
        ("lia.check", LiaSolver, "check", False),
        ("lia.presolve", eliminate_equalities, None, False),
        ("lia.sat", DpllSolver, "solve", False),
        ("lia.simplex", Simplex, "check", False),
        ("lia.intsolver", check_integer_feasibility, None, False),
        ("lia.intsolver", check_rational_feasibility, None, False),
        ("lia.assert_bound_calls", Simplex, "assert_bound", True),
        ("solver.pipeline", IncrementalPipeline, "check", False),
        ("solver.verify", eval_problem, None, False),
        ("solver.core", Session, "unsat_core", False),
    ]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def warm_automata(problems) -> None:
    """Normalise every input once, untimed.

    Normalisation interns each input's automata in the process-wide table.
    Warming it for the whole pool up front makes an input's cost
    independent of which inputs ran before it in the replay order.
    """
    from repro.strings.normal_form import NormalizationCache, normalize
    from repro.strings.reductions import ReductionError, needs_reduction, reduce_problem

    cache = NormalizationCache()
    for problem in problems:
        try:
            cases = [case.problem for case in reduce_problem(problem)] if needs_reduction(
                problem) else [problem]
        except ReductionError:
            continue
        for case in cases:
            normalize(case, cache)


class Workload:
    """What every workload shares: set-up, warm-up, timed passes, tracing."""

    def __init__(self, seed: int, seconds: float, max_inputs: Optional[int] = None) -> None:
        self.seed = seed
        self.seconds = seconds
        self.max_inputs = max_inputs
        self.pool: list = []
        self.items: list = []
        self.pool_hash = ""
        self.order_hash = ""

    # -- hooks ---------------------------------------------------------
    def prepare(self) -> None:
        """Build the inputs and warm up (timed as set-up, repeated)."""
        raise NotImplementedError

    def run_unit(self, item, phase: Phase, recorder=None) -> None:
        raise NotImplementedError

    # -- shared --------------------------------------------------------
    def _load(self, workload: str) -> None:
        import inputs

        self.pool = inputs.pool(workload, ROOT)
        self.pool_hash = inputs.pool_hash(self.pool)
        self.items = inputs.replay_order(self.pool, self.seed)[: self.max_inputs]
        self.order_hash = inputs.order_hash(self.items)

    def run_pass(self, phase: Phase, recorder=None) -> None:
        for item in self.items:
            phase.probes.append(probe())
            first = len(phase.checks)
            self.run_unit(item, phase, recorder)
            for check in phase.checks[first:]:
                check.probe = len(phase.probes) - 1

    def timed(self, recorder=None, rounds: Optional[int] = None) -> Phase:
        """Whole passes over the replay order: ``rounds`` of them, or else
        as many as start within ``--seconds``, and at least
        :data:`MIN_ROUNDS`."""
        phase = Phase()
        cpu = time.process_time()
        start = time.perf_counter()
        count = 0
        while True:
            self.run_pass(phase, recorder)
            count += 1
            if rounds is not None:
                if count >= rounds:
                    break
            elif count >= MIN_ROUNDS and time.perf_counter() - start >= self.seconds:
                break
        phase.wall = time.perf_counter() - start
        phase.cpu = time.process_time() - cpu
        phase.notes["rounds"] = count
        return phase

    def overhead_items(self) -> list:
        """A small fixed slice that the tracing overhead is measured on."""
        raise NotImplementedError

    def overhead(self, recorder) -> Tuple[float, List[Phase]]:
        """Traced wall over untraced wall, alternating on the overhead slice."""
        walls = [0.0, 0.0]
        phases = []
        for _ in range(OVERHEAD_ROUNDS):
            for traced in (False, True):
                phase = Phase()
                if traced:
                    recorder.install(trace_targets())
                start = time.perf_counter()
                try:
                    for item in self.overhead_items():
                        self.run_unit(item, phase, recorder if traced else None)
                finally:
                    walls[traced] += time.perf_counter() - start
                    if traced:
                        recorder.uninstall()
                phases.append(phase)
        return walls[1] / walls[0], phases

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Batch(Workload):
    """A fresh ``ScriptRunner`` per corpus input."""

    def prepare(self) -> None:
        import inputs
        from repro.smtlib import parse_problem

        self._load("batch")
        self.problems = {item.name: parse_problem(item.text) for item in self.pool}
        warm_automata(self.problems.values())
        self.slice = inputs.pool("serve", ROOT)
        warm = Phase()
        for item in self.slice[:BATCH_WARMUP]:
            self.run_unit(item, warm)

    def overhead_items(self) -> list:
        return self.slice

    def run_unit(self, item, phase: Phase, recorder=None) -> None:
        from repro.smtlib import ScriptRunner
        from repro.solver import SolverConfig

        if recorder is not None:
            recorder.check = len(phase.checks)
        runner = ScriptRunner(config=SolverConfig(timeout=BATCH_LIMIT))
        start = time.perf_counter()
        try:
            runner.run(item.text, name=item.name)
        except Exception as error:  # noqa: BLE001 - an engine crash is a failed check
            phase.checks.append(Check(item.name, time.perf_counter() - start, "error",
                                      failure=f"exception: {error!r}"))
            return
        latency = time.perf_counter() - start
        verdict = runner.verdicts[0] if runner.verdicts else "none"
        stats = runner.session.statistics()
        model_ok = None
        if verdict == "sat":
            model = runner.session.model()
            model_ok = model is not None and EVAL_PROBLEM(
                self.problems[item.name], model.strings, model.integers
            )
        typed = bool(runner.reasons) and typed_reason(runner.reasons[0])
        failure = judge(verdict, item.expected, model_ok, typed)
        if len(runner.verdicts) != 1:
            failure = failure or f"{len(runner.verdicts)} answers for one check-sat"
        phase.checks.append(Check(item.name, latency, verdict, failure, stage_ms(stats)))
        if verdict in ("sat", "unsat") and not failure:
            phase.counters[item.name] = exact_counters(stats)


class SessionWorkload(Workload):
    """One ``Session`` per path condition, checked branch by branch."""

    def prepare(self) -> None:
        from repro.smtlib import parse_problem

        self._load("session")
        warm_automata(parse_problem(item.text) for item in self.pool)
        by_name = {item.name: item for item in self.pool}
        warm = Phase()
        for name in SESSION_WARMUP:
            self.run_unit(by_name[name], warm)

    def overhead_items(self) -> list:
        return [item for item in self.pool if item.name.startswith("pipeline__")]

    def run_unit(self, chain, phase: Phase, recorder=None) -> None:
        from repro.budget import UnknownReason
        from repro.smtlib import parse_problem
        from repro.solver import Session, SolverConfig
        from repro.strings.ast import Problem

        # The client reads each path condition as SMT-LIB text.
        if recorder is not None:
            recorder.check = len(phase.checks)
        problem = parse_problem(chain.text)
        alphabet = tuple(problem.alphabet)
        atoms = tuple(problem.atoms)
        session = Session(config=SolverConfig(timeout=SESSION_LIMIT), alphabet=alphabet,
                          name=chain.name)
        steps = len(atoms)
        seen_unsat = False
        all_decided = True
        for index in range(steps + 1):
            if recorder is not None:
                recorder.check = len(phase.checks)
            final = index == steps
            checked = list(atoms[:index]) if final else list(atoms[: index + 1])
            unit = f"{chain.name}#{index}"
            start = time.perf_counter()
            try:
                if final:
                    result = session.check()
                    if result.is_sat:
                        model = session.model()
                    elif result.is_unsat:
                        core = session.unsat_core()
                else:
                    result = session.check([atoms[index]])
            except Exception as error:  # noqa: BLE001 - an engine crash is a failed check
                phase.checks.append(Check(unit, time.perf_counter() - start, "error",
                                          failure=f"exception: {error!r}"))
                return
            latency = time.perf_counter() - start
            verdict = "unknown" if result.status.value == "timeout" else result.status.value
            model_ok = None
            if result.is_sat:
                if not final:
                    model = result.model
                model_ok = model is not None and EVAL_PROBLEM(
                    Problem(atoms=checked, alphabet=alphabet), model.strings, model.integers
                )
            # A prefix of a satisfiable path condition is satisfiable, and
            # once a prefix is unsatisfiable every longer one is.
            expected = "sat" if chain.expected == "sat" else None
            if index >= steps - 1:
                expected = chain.expected
            if seen_unsat:
                expected = "unsat"
            failure = judge(verdict, expected, model_ok, isinstance(result.reason, UnknownReason))
            if final and result.is_unsat and not failure:
                names = {name for name, _atom in session.assertions()}
                if not core or not set(core) <= names:
                    failure = f"unsat core {core!r} is not a non-empty subset of the assertions"
            seen_unsat = seen_unsat or result.is_unsat
            all_decided = all_decided and verdict in ("sat", "unsat")
            phase.checks.append(Check(unit, latency, verdict, failure, stage_ms(result.stats)))
            if failure:
                all_decided = False
            if not final:
                session.add(atoms[index])
        if all_decided:
            phase.counters[chain.name] = exact_counters(session.statistics())


class Serve(Workload):
    """A server subprocess replaying the slice over one closed-loop connection.

    The server gets one worker per CPU.  Each job races the default
    portfolio's two strategies, one per worker, so one connection keeps
    every CPU busy; with one connection per CPU as well, four strategy runs
    shared two CPUs and the run measured the scheduler.
    """

    def __init__(self, seed: int, seconds: float, max_inputs: Optional[int] = None) -> None:
        super().__init__(seed, seconds, max_inputs)
        self.workers = os.cpu_count() or 1
        self.procs: List[subprocess.Popen] = []
        self.server_setup_s: List[float] = []
        self.setup_cpu: List[float] = []
        self.batch = Batch(seed, seconds, max_inputs)

    def prepare(self) -> None:
        from repro.smtlib import parse_problem

        self._load("serve")
        self.problems = {item.name: parse_problem(item.text) for item in self.items}
        self.warm_paths = [
            os.path.join(ROOT, "benchmarks", "smtlib", item.name + ".smt2") for item in self.items
        ]
        self.batch.items = self.batch.slice = self.items
        self.batch.problems = self.problems

    # -- server lifecycle ------------------------------------------------
    def spawn(self) -> Tuple[subprocess.Popen, int]:
        os.makedirs(OUT, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        log = open(os.path.join(OUT, f"serve-{self.seed}.log"), "a")
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.serve", "--port", "0",
                 "--workers", str(self.workers), "--timeout", str(SERVE_LIMIT),
                 "--warm", *self.warm_paths],
                stdout=subprocess.PIPE, stderr=log, env=env, cwd=ROOT, text=True,
            )
        finally:
            log.close()
        self.procs.append(proc)
        ready = proc.stdout.readline()
        match = re.search(r"listening on [\d.]+:(\d+)", ready)
        if not match:
            raise RuntimeError(f"server did not start: {ready!r}")
        return proc, int(match.group(1))

    def stop(self, proc: subprocess.Popen, port: int) -> None:
        from repro.serve import ServeClient, ServeError

        try:
            with ServeClient("127.0.0.1", port, timeout=30) as client:
                client.shutdown()
        except ServeError:
            pass
        try:
            code = proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError("server did not shut down within 30 s")
        finally:
            proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"server exited with code {code}")

    def start_server(self) -> Tuple[subprocess.Popen, int]:
        """Spawn, wait for the ready line, warm up with a few requests."""
        from repro.serve import ServeClient

        start = time.perf_counter()
        proc, port = self.spawn()
        with ServeClient("127.0.0.1", port, timeout=SERVE_LIMIT * 4) as client:
            for item in self.items[:SERVE_WARMUP]:
                client.solve(item.text + GET_MODEL, name=item.name, timeout=SERVE_LIMIT)
        self.server_setup_s.append(time.perf_counter() - start)
        return proc, port

    def children_cpu(self) -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    def setup_extra(self, probes: List[float]) -> None:
        """Throwaway spawns so that set-up time is a median over several."""
        for _ in range(SETUP_REPEATS - 1):
            cpu = self.children_cpu()
            probes.append(probe())
            proc, port = self.start_server()
            self.stop(proc, port)
            probes.append(probe())
            self.setup_cpu.append(self.children_cpu() - cpu)

    # -- one response ----------------------------------------------------
    def judge_response(self, item, response: Dict) -> Tuple[str, str]:
        from repro.smtlib import read_sexprs

        if not response.get("ok"):
            return "error", f"error response: {response.get('error')}"
        verdicts = response.get("verdicts") or []
        if len(verdicts) != 1:
            return "none", f"{len(verdicts)} answers for one check-sat"
        verdict = verdicts[0]
        if response.get("deduped"):
            return verdict, "deduplicated response"
        model_ok = None
        if verdict == "sat":
            model_ok = False
            for line in response.get("output", [])[1:]:
                if line.lstrip().startswith("(") and not line.lstrip().startswith("(error"):
                    strings, integers = {}, {}
                    for entry in read_sexprs(line)[0][0]:
                        _define, name, _args, sort, value = entry
                        if sort == "String":
                            strings[str(name)] = str(value)
                        else:
                            integers[str(name)] = (-value[1] if isinstance(value, list) else int(value))
                    extend_model(self.problems[item.name], strings, integers)
                    model_ok = EVAL_PROBLEM(self.problems[item.name], strings, integers)
                    break
        reasons = response.get("reasons") or [""]
        return verdict, judge(verdict, item.expected, model_ok, typed_reason(reasons[0]))

    def run_unit(self, item, phase: Phase, recorder=None) -> None:
        from repro.serve import ServeError

        sent = time.perf_counter()
        try:
            response = self.client.solve(item.text + GET_MODEL, name=item.name,
                                         timeout=SERVE_LIMIT)
        except ServeError as error:
            phase.checks.append(Check(item.name, time.perf_counter() - sent, "error",
                                      failure=f"dropped: {error}"))
            return
        latency = time.perf_counter() - sent
        verdict, failure = self.judge_response(item, response)
        stats = response.get("stats") or {}
        phase.checks.append(Check(item.name, latency, verdict, failure, stage_ms(stats),
                                  float(response.get("elapsed", 0.0))))

    def timed(self, recorder=None, rounds: Optional[int] = None) -> Phase:
        from repro.serve import ServeClient

        cpu_before = self.children_cpu()
        proc, port = self.start_server()
        with ServeClient("127.0.0.1", port, timeout=30) as client:
            before = client.stats()["stats"]
        with ServeClient("127.0.0.1", port, timeout=SERVE_LIMIT * 4) as self.client:
            phase = super().timed(rounds=rounds)
        with ServeClient("127.0.0.1", port, timeout=30) as client:
            after = client.stats()["stats"]
        self.stop(proc, port)
        cpu = self.children_cpu() - cpu_before
        setup_cpu = statistics.median(self.setup_cpu) if self.setup_cpu else 0.0
        phase.cpu = max(0.0, cpu - setup_cpu)
        delta = {
            key: after[key] - before.get(key, 0)
            for key, value in after.items()
            if isinstance(value, int) and not isinstance(value, bool)
        }
        phase.notes["server_stats_delta"] = delta
        phase.notes["workers"] = after.get("workers")
        if delta.get("jobs_deduped", 0):
            phase.checks.append(Check("server", 0.0, "error",
                                      failure=f"{delta['jobs_deduped']} jobs deduplicated"))
        return phase

    def peak_rss_mb(self) -> float:
        """Largest RSS among the server processes and their workers."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            if proc.stdout is not None and not proc.stdout.closed:
                proc.stdout.close()


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def speed(probes: Sequence[float]) -> float:
    """How fast the host ran, relative to the reference host: the reference
    probe time over the median of ``probes``.

    A reported time is the measured time multiplied by the speed around it
    (a rate is divided by it), so that the figures of two runs differ by
    what the program did, not by how loaded the host was.  The measured
    figures are in the report beside them.
    """
    return REFERENCE_PROBE_MS / (1000.0 * statistics.median(probes))


def scaled(phase: Phase) -> List[Check]:
    """The checks of ``phase`` with each latency multiplied by the host
    speed over its probe and :data:`PROBE_WINDOW` probes on each side."""
    probes = phase.probes
    result = []
    for check in phase.checks:
        if check.probe >= 0:
            window = probes[max(0, check.probe - PROBE_WINDOW): check.probe + PROBE_WINDOW + 1]
            check = replace(check, latency=check.latency * speed(window))
        result.append(check)
    return result


def end_to_end(phase: Phase, setup_s: float, peak_rss_mb: float,
               setup_speed: float) -> Tuple[Dict, Dict]:
    """End-to-end metrics of a timed phase; ``setup_s`` is scaled by
    ``setup_speed``, each latency by the speed around it."""
    measured = per_unit_medians(phase.checks)
    medians = per_unit_medians(scaled(phase))
    value, percentile, units = tail_estimate(medians)
    decided = sum(1 for check in phase.checks if check.decided)
    metrics = {
        "throughput_per_s": len(medians) / sum(medians),
        "check_ms_p50": hd_quantile(medians, 0.5) * 1000.0,
        "check_ms_tail": value * 1000.0,
        "decided_ratio": decided / len(phase.checks),
        "setup_s": setup_s * setup_speed,
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "units": units,
        "samples": len(phase.checks),
        "rounds": phase.notes.get("rounds"),
        "tail_percentile": percentile,
        "decided": decided,
        "timed_wall_s": phase.wall,
        "checks_per_busy_s": len(phase.checks) / (phase.wall - sum(phase.probes)),
        "measured": {
            "throughput_per_s": len(measured) / sum(measured),
            "check_ms_p50": hd_quantile(measured, 0.5) * 1000.0,
            "check_ms_tail": tail_estimate(measured)[0] * 1000.0,
            "setup_s": setup_s,
        },
        "speed_timed": speed(phase.probes),
        "speed_setup": setup_speed,
    }
    return metrics, extra


def counter_metrics(counters: Dict[str, Dict[str, int]]) -> Dict[str, float]:
    total: Dict[str, int] = {}
    for stats in counters.values():
        for key, value in stats.items():
            total[key] = total.get(key, 0) + value
    metrics: Dict[str, float] = {}
    for name, key in COUNTER_METRICS:
        metrics[name] = float(total.get(key, 0))
    for name, hits, misses in RATIO_METRICS:
        hit = sum(total.get(key, 0) for key in hits)
        miss = sum(total.get(key, 0) for key in misses)
        metrics[name] = hit / (hit + miss) if hit + miss else 0.0
    return metrics


def core_checks(recorded) -> int:
    """Pipeline checks run inside ``Session.unsat_core`` (core re-checks).

    Their time is attributed to the layers they run in; the count says how
    much of that work cores caused.
    """
    inside = [False] * len(recorded)
    count = 0
    for index, (name, _start, _end, parent, _check) in enumerate(recorded):
        inside[index] = parent >= 0 and (inside[parent] or recorded[parent][0] == "solver.core")
        if name == "solver.pipeline" and inside[index]:
            count += 1
    return count


def layer_metrics(traced: Phase, recorder, factor: float) -> Dict[str, float]:
    """Per-layer figures of a traced pass; times are scaled by ``factor``."""
    from spans import self_ms_by_name

    checks = len(traced.checks)
    own = self_ms_by_name(recorder.spans)
    metrics: Dict[str, float] = {}
    for name, span in SPAN_METRICS:
        metrics[name] = factor * own.get(span, 0.0) / checks
    metrics.update(counter_metrics(traced.counters))
    decided = {index for index, check in enumerate(traced.checks) if check.decided}
    metrics["lia.assert_bound_calls"] = float(sum(
        count for check, count in recorder.counts.get("lia.assert_bound_calls", {}).items()
        if check in decided
    ))
    metrics["solver.core_checks"] = float(core_checks(recorder.spans))
    # In-process boundaries (batch, session): engine = top-level spans.
    engine = [0.0] * checks
    for name, start, end, parent, check in recorder.spans:
        if parent < 0 and 0 <= check < checks:
            engine[check] += end - start
    metrics["serve.server_ms"] = factor * 1000.0 * sum(engine) / checks
    metrics["serve.transfer_ms"] = factor * 1000.0 * sum(
        max(0.0, check.latency - spent) for check, spent in zip(traced.checks, engine)
    ) / checks
    metrics["serve.wait_ms"] = factor * sum(
        max(0.0, 1000.0 * spent - check.stage_ms) for check, spent in zip(traced.checks, engine)
    ) / checks
    metrics["serve.useful_run_ratio"] = 1.0
    metrics["serve.cpu_ms_per_job"] = factor * 1000.0 * (traced.cpu - sum(traced.probes)) / checks
    return metrics


def serve_metrics(phase: Phase, factor: float) -> Dict[str, float]:
    """The ``serve.*`` split of a server phase; times are scaled by ``factor``."""
    answered = [check for check in phase.checks if check.verdict != "error"]
    count = max(1, len(answered))
    delta = phase.notes["server_stats_delta"]
    runs = delta.get("portfolio_runs", 0)
    scale = factor * 1000.0 / count
    return {
        "serve.server_ms": scale * sum(check.server_s for check in answered),
        "serve.transfer_ms": scale * sum(check.latency - check.server_s for check in answered),
        "serve.wait_ms": scale * sum(max(0.0, check.server_s - check.stage_ms / 1000.0)
                                     for check in answered),
        "serve.useful_run_ratio": 1.0 - delta.get("portfolio_cancelled", 0) / runs if runs else 0.0,
        "serve.cpu_ms_per_job": scale * phase.cpu,
    }


# ----------------------------------------------------------------------
# Determinism and environment
# ----------------------------------------------------------------------
def code_hash() -> str:
    digest = hashlib.sha256()
    for base in (SRC, HERE):
        for directory, dirs, files in sorted(os.walk(base)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def determinism(workload: str, seed: int, counters: Dict[str, Dict[str, int]], code: str) -> List[str]:
    """Compare exact counters with the last traced run of the same code and seed.

    Writes this run's counters; returns one line per counter that differs
    on a unit both runs decided.
    """
    directory = os.path.join(OUT, "counters")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{workload}-{seed}-{code}.json")
    mismatches: List[str] = []
    if os.path.exists(path):
        with open(path) as handle:
            previous = json.load(handle)
        for unit in sorted(set(previous) & set(counters)):
            for key in sorted(set(previous[unit]) | set(counters[unit])):
                old, new = previous[unit].get(key), counters[unit].get(key)
                if old != new:
                    mismatches.append(f"{unit}: {key} {old} -> {new}")
    with open(path, "w") as handle:
        json.dump(counters, handle, sort_keys=True)
    return mismatches


def src_lines() -> Dict[str, int]:
    package = os.path.join(SRC, "repro")
    lines: Dict[str, int] = {}
    for directory, dirs, files in os.walk(package):
        dirs.sort()
        relative = os.path.relpath(directory, package)
        module = "repro" if relative == "." else "repro." + relative.split(os.sep)[0]
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as handle:
                    lines[module] = lines.get(module, 0) + handle.read().count(b"\n")
    return dict(sorted(lines.items()))


def environment(workers: Optional[int]) -> Dict[str, object]:
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    lines = src_lines()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "commit": commit,
        "code_hash": code_hash(),
        "workers": workers,
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------
EVAL_PROBLEM: Callable = None  # the untraced oracle, bound in run()


class _Guard(Exception):
    pass


def _alarm(_signum, _frame):
    raise _Guard(f"run exceeded {RUN_GUARD_S} s")


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the modules a run uses."""
    code = ("import time; start = time.perf_counter(); "
            "import repro, repro.serve, repro.smtlib, repro.strings.semantics; "
            "print(time.perf_counter() - start)")
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip())


def run(args) -> int:
    global EVAL_PROBLEM

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no solver sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import inputs
    import repro  # noqa: F401
    import repro.serve  # noqa: F401
    from repro.smtlib import ScriptRunner  # noqa: F401
    from repro.strings.semantics import eval_problem

    EVAL_PROBLEM = eval_problem

    workload = {"batch": Batch, "session": SessionWorkload, "serve": Serve}[args.workload](
        args.seed, args.seconds, args.max_inputs
    )
    try:
        import_s: List[float] = []
        prepare_s: List[float] = []
        probes: List[float] = []
        for _ in range(SETUP_REPEATS):
            probes.append(probe())
            import_s.append(import_seconds())
            probes.append(probe())
            begin = time.perf_counter()
            workload.prepare()
            prepare_s.append(time.perf_counter() - begin)
        probes.append(probe())
        expected_hash = inputs.PINNED_HASHES[args.workload]
        pin_ok = expected_hash == workload.pool_hash
        if isinstance(workload, Serve):
            workload.setup_extra(probes)

        if args.trace:
            from spans import SpanRecorder

            if isinstance(workload, Serve):
                server_phase = workload.timed()
                probes += server_phase.probes
                local = workload.batch
            else:
                local = workload
            overhead, overhead_phases = local.overhead(SpanRecorder())
            recorder = SpanRecorder()
            recorder.install(trace_targets())
            try:
                traced = local.timed(recorder=recorder, rounds=1)
            finally:
                recorder.uninstall()
            factor = speed(probes + traced.probes)
            metrics = layer_metrics(traced, recorder, factor)
            metrics["trace.overhead_ratio"] = overhead
            phases = overhead_phases + [traced]
            if isinstance(workload, Serve):
                metrics.update(serve_metrics(server_phase, factor))
                phases.insert(0, server_phase)
            mismatches = determinism(args.workload, args.seed, traced.counters, code_hash())
            extra = {"decided_units": len(traced.counters), "nondeterministic_counters": mismatches}
            os.makedirs(OUT, exist_ok=True)
            recorder.dump(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json"))
            for line in mismatches:
                print(f"nondeterministic counter: {line}")
            units = dict(PER_LAYER)
        else:
            phase = workload.timed()
            phases = [phase]
            setup_s = statistics.median(a + b for a, b in zip(import_s, prepare_s))
            if isinstance(workload, Serve):
                setup_s += statistics.median(workload.server_setup_s)
            factor = speed(probes + phase.probes)
            metrics, extra = end_to_end(phase, setup_s, workload.peak_rss_mb(), speed(probes))
            extra["import_s"] = import_s
            extra["prepare_s"] = prepare_s
            extra["setup_probes_ms"] = [value * 1000.0 for value in probes]
            if isinstance(workload, Serve):
                extra["server_setup_s"] = workload.server_setup_s
            units = dict(END_TO_END)
    finally:
        if isinstance(workload, Serve):
            workload.close()

    checks = [check for phase in phases for check in phase.checks]
    failures = [check for check in checks if check.failure]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "pool_hash": workload.pool_hash,
        "pool_hash_pinned": pin_ok,
        "order_hash": workload.order_hash,
        "inputs": len(workload.items),
        "limits_s": {"batch": BATCH_LIMIT, "session": SESSION_LIMIT, "serve": SERVE_LIMIT},
        "environment": environment(
            phases[0].notes.get("workers") if isinstance(workload, Serve) else None
        ),
        "extra": extra,
        "notes": [phase.notes for phase in phases],
        "failures": [f"{check.unit}: {check.failure}" for check in failures],
        "checks": [
            [check.unit, round(check.latency * 1000.0, 3), check.verdict, check.probe]
            for check in phases[0].checks
        ],
        "probes_ms": [round(value * 1000.0, 4) for value in phases[0].probes],
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"report-{args.workload}-{args.seed}-{int(args.trace)}.json"), "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    env = report["environment"]
    print(f"workload {args.workload} seed {args.seed} trace {int(args.trace)}: "
          f"{len(workload.items)} inputs, pool sha256 {workload.pool_hash[:16]} "
          f"({'pinned' if pin_ok else 'DRIFTED from ' + expected_hash[:16]}), "
          f"order sha256 {workload.order_hash[:16]}")
    print(f"environment: nproc {env['nproc']}, python {env['python']}, {env['machine']}, "
          f"commit {env['commit']}, code {env['code_hash']}, workers {env['workers']}, "
          f"src lines {env['src_lines_total']} {env['src_lines']}")
    print(f"host speed {factor:.4f} (probe median {REFERENCE_PROBE_MS / factor:.3f} ms, "
          f"reference {REFERENCE_PROBE_MS} ms): reported times are measured times x the "
          f"speed around them")
    print(f"extra: {json.dumps(extra, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value!r} {units[name]}")
    for check in failures[:20]:
        print(f"FAILED {check.unit}: {check.failure}")
    if not pin_ok:
        print(f"FAILED input pin: {args.workload} pool hash {workload.pool_hash} "
              f"!= pinned {expected_hash}")

    correct = not failures and pin_ok
    result = {
        "correct": correct,
        "attempted": len(checks),
        "failed": len(failures) + (0 if pin_ok else 1),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7,
                        help="replay-order seed (default 7, the corpus generator seed)")
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="minimum measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced pass")
    parser.add_argument("--max-inputs", type=int, default=None,
                        help="replay only the first N inputs of the order (smoke runs)")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(RUN_GUARD_S)
    try:
        return run(args)
    except _Guard as error:
        print(f"aborted: {error}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)


if __name__ == "__main__":
    # Set iteration order follows the string hash seed; one fixed seed makes
    # every run of the same code do the same work in the same order.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.exit(main())
