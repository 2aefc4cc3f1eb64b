"""The benchmark's inputs: pinned pools, seeded replay order, content hashes.

Every workload draws from a *pool* that is fixed when the benchmark is
defined:

* ``batch`` — the corpus's hand-written ``frontend__*`` and
  ``symbex-substr__*`` scripts plus
  ``benchmark_sets(SCALE, GENERATOR_SEED)`` rendered by the SMT-LIB
  printer (the same text the committed corpus holds), without the slow
  inputs named in :data:`BATCH_EXCLUDED`;
* ``session`` — path conditions of the symbolic-execution sets and the
  pipeline chains among the generated batch scripts, pinned by name;
* ``serve`` — a fast slice of the batch pool, pinned by name.

The generator seed is pinned at the committed corpus's seed: a pool drawn
from another generator seed has a different difficulty mix (over the whole
generated set, a pass took 44 s on one seed and over 100 s on another), which no run-to-run
bound could absorb.  The benchmark's ``--seed`` fixes the *replay order*
(see :func:`replay_order`).  Each pool
has a pinned content hash; a run fails when the pool drifts.
"""

from __future__ import annotations

import glob
import hashlib
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, TypeVar

#: generator seed and scale of the committed corpus (benchmarks/smtlib)
GENERATOR_SEED = 7
SCALE = 1
#: hand-written corpus scripts in the batch pool (file-name prefixes)
HANDWRITTEN_PREFIXES = ("frontend__", "symbex-substr__")

#: batch inputs left out of the pool: every one whose check takes more
#: than 0.65 s in-process on a 2-CPU x86-64 host (the next fastest takes
#: 0.61 s).  A run repeats its pool several times and reports per-input
#: medians; with these 26 in it, one pass took 41-61 s, longer than a
#: whole run.  Four of them (biopython-3/5/10, dirname) are not decided
#: within 3 s at all, so on batch an undecided check is a regression.
BATCH_EXCLUDED: Tuple[str, ...] = (
    "biopython-like__biopython-0",
    "biopython-like__biopython-10",
    "biopython-like__biopython-11",
    "biopython-like__biopython-3",
    "biopython-like__biopython-5",
    "biopython-like__biopython-6",
    "biopython-like__biopython-7",
    "biopython-like__biopython-8",
    "biopython-like__biopython-9",
    "django-like__django-0",
    "django-like__django-2",
    "django-like__django-3",
    "django-like__django-5",
    "django-like__django-6",
    "django-like__django-7",
    "position-hard__position-hard-comm-3",
    "symbex-substr__dirname",
    "thefuck-like__thefuck-0",
    "thefuck-like__thefuck-1",
    "thefuck-like__thefuck-2",
    "thefuck-like__thefuck-3",
    "thefuck-like__thefuck-4",
    "thefuck-like__thefuck-5",
    "thefuck-like__thefuck-6",
    "thefuck-like__thefuck-7",
    "thefuck-like__thefuck-8",
)

#: session chains (symbolic-execution sets and pipelines): the whole
#: replay of each takes at most 1 s in-process on a 2-CPU x86-64 host (23
#: of 45), so a pass (about 10 s) decides rather than waits out limits and
#: a run repeats it three times or more; the chains left out take 1-9 s,
#: and four of them hit a 3 s per-check limit
SESSION_CHAINS: Tuple[str, ...] = (
    "biopython-like__biopython-1",
    "biopython-like__biopython-2",
    "biopython-like__biopython-4",
    "biopython-like__biopython-9",
    "django-like__django-1",
    "django-like__django-10",
    "django-like__django-11",
    "django-like__django-4",
    "django-like__django-8",
    "django-like__django-9",
    "pipeline__pipe-0-reachability",
    "pipeline__pipe-1-inversion",
    "pipeline__pipe-10-inversion",
    "pipeline__pipe-11-equivalence",
    "pipeline__pipe-2-equivalence",
    "pipeline__pipe-3-reachability",
    "pipeline__pipe-4-inversion",
    "pipeline__pipe-5-equivalence",
    "pipeline__pipe-6-reachability",
    "pipeline__pipe-7-inversion",
    "pipeline__pipe-8-equivalence",
    "thefuck-like__thefuck-5",
    "thefuck-like__thefuck-8",
)

#: serve slice: batch scripts that every default-portfolio strategy decides
#: in-process in under 0.2 s.  The n-ary ``distinct`` scripts are not in it:
#: their ``encoding`` run cannot be cancelled in time and would hold a
#: worker for tens of seconds.
SERVE_SLICE: Tuple[str, ...] = (
    "django-like__django-1",
    "django-like__django-4",
    "django-like__django-9",
    "frontend__bool-constants-unsat",
    "frontend__indexof-empty-needle",
    "frontend__indexof-first",
    "frontend__indexof-not-found",
    "frontend__negated-int-distinct-sat",
    "frontend__negated-int-distinct-unsat",
    "frontend__re-comp-unsat",
    "frontend__re-inter",
    "frontend__replace-first",
    "frontend__replace-fixed-point",
    "frontend__substr-basic",
    "frontend__substr-out-of-range",
    "frontend__substr-symbolic-offset",
    "pipeline__pipe-0-reachability",
    "pipeline__pipe-1-inversion",
    "pipeline__pipe-10-inversion",
    "pipeline__pipe-3-reachability",
    "pipeline__pipe-4-inversion",
    "pipeline__pipe-6-reachability",
    "pipeline__pipe-7-inversion",
    "position-hard__position-hard-nc-0",
    "position-hard__position-hard-nc-1",
    "position-hard__position-hard-nc-2",
    "position-hard__position-hard-nc-3",
    "symbex-substr__dirname-contradiction",
    "symbex-substr__prefix-probe",
    "symbex-substr__strip-first-token",
    "symbex-substr__substr-of-replace",
)

#: sha256 of each pool (see :func:`pool_hash`)
PINNED_HASHES: Dict[str, str] = {
    "batch": "691c1e9fa154b941b417d7f5ad6865f7dbdbca39f2d756be2691102f0879f2b0",
    "session": "d22e6e0184966fbd22fc517b3d4898730856d5d42d3c1de0501cfffb8bd9f181",
    "serve": "def78d28684bd72f87825c97d4bb2055ee133519742d5c788c37323ee94c9f7c",
}

T = TypeVar("T")


@dataclass(frozen=True)
class Script:
    """One SMT-LIB input with its known status (``None`` when unknown)."""

    name: str
    text: str
    expected: Optional[str]


def _known(status: Optional[str]) -> Optional[str]:
    return status if status in ("sat", "unsat") else None


def batch_pool(root: str) -> List[Script]:
    """Hand-written corpus scripts plus the rendered generated sets."""
    from repro.benchgen.suite import benchmark_sets
    from repro.smtlib import parse_script, problem_to_smtlib

    corpus = os.path.join(root, "benchmarks", "smtlib")
    paths = sorted(
        path
        for prefix in HANDWRITTEN_PREFIXES
        for path in glob.glob(os.path.join(corpus, prefix + "*.smt2"))
    )
    if not paths:
        raise FileNotFoundError(f"no hand-written corpus scripts under {corpus}")
    pool = []
    for path in paths:
        with open(path) as handle:
            text = handle.read()
        name = os.path.basename(path)[: -len(".smt2")]
        pool.append(Script(name, text, _known(parse_script(text).expected_status)))
    for set_name, items in benchmark_sets(SCALE, GENERATOR_SEED).items():
        for instance, problem, expected in items:
            text = problem_to_smtlib(problem, status=expected or "unknown")
            pool.append(Script(f"{set_name}__{instance}", text, _known(expected)))
    return pool


def _pinned(items: Sequence[T], names: Sequence[str]) -> List[T]:
    by_name = {item.name: item for item in items}
    missing = [name for name in names if name not in by_name]
    if missing:
        raise KeyError(f"pinned inputs missing from the pool: {missing}")
    return [by_name[name] for name in names]


def pool(workload: str, root: str) -> list:
    """The pinned pool of ``workload`` in canonical (name) order."""
    if workload == "batch":
        return [item for item in batch_pool(root) if item.name not in BATCH_EXCLUDED]
    if workload == "session":
        return _pinned(batch_pool(root), SESSION_CHAINS)
    if workload == "serve":
        return _pinned(batch_pool(root), SERVE_SLICE)
    raise ValueError(f"unknown workload {workload!r}")


def pool_hash(items: Sequence) -> str:
    """sha256 over the names and texts of ``items``, in name order."""
    digest = hashlib.sha256()
    for item in sorted(items, key=lambda item: item.name):
        digest.update(item.name.encode())
        digest.update(b"\0")
        digest.update(item.text.encode())
        digest.update(b"\0")
    return digest.hexdigest()


def order_hash(items: Sequence) -> str:
    """sha256 over the names of ``items`` in replay order."""
    return hashlib.sha256("\n".join(item.name for item in items).encode()).hexdigest()


def replay_order(items: Sequence[T], seed: int) -> List[T]:
    """The seeded replay order of a pool: name order, rotated by the seed.

    An input's cost depends on which inputs warmed the process-wide
    automata intern table before it.  A shuffled order moved a batch pass
    by up to 15 % between seeds; a rotation keeps each generator family
    together and changes only where the pass starts.
    """
    ordered = sorted(items, key=lambda item: item.name)
    start = seed % len(ordered)
    return ordered[start:] + ordered[:start]
