"""Named verification tasks pairing character predictions with rank witnesses.

Each statement id resolves to a runner that computes a prediction through the
character engine and a witness through linear algebra, Bott cohomology, or
elimination, then compares the two exactly.  A runner maps (params, modulus
q) to (predicted, witnessed, certificates); the certificates are json-native
and in a fixed order, and only the Koszul runners have any.  run gives the
runner to `modlinalg.two_primes` at the task's seed and primes (the runners
that only predict ignore q).  The one resource bound is each statement's
envelope, checked before the run: boxes measured to finish within a fixed
time and memory budget.  Reports can be cached whole in a results directory
under filenames hashed from the task (its primes too) and the package source.
"""

import json
import os
import time
from collections import namedtuple
from functools import lru_cache
from pathlib import Path

from . import bott, modlinalg
from .birep import dim_at, predicted_character
from .polyring import RingContext
from .rees import fiber_type_check, orbit_size, orbit_total
from .report import VerificationReport, emit, format_bicharacter, matches, parse_report
from .witness import (
    koszul_h1_blocks,
    relation_dims,
    subspace_variety_gens,
    veronese_presentation_dims,
)

RESULTS_DIR_ENV = "MINORREL_RESULTS_DIR"


@lru_cache(maxsize=None)
def source_digest():
    """sha256 over the package's modules, names and bytes in name order."""
    # hashlib loads OpenSSL; only the results cache needs it
    import hashlib

    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class VerificationTask(namedtuple("VerificationTask", "statement params seed primes")):
    __slots__ = ()

    def __new__(cls, statement, params=None, seed=0, primes=modlinalg.PRIMES):
        return super().__new__(cls, statement, {} if params is None else params, seed, primes)

    def as_dict(self):
        return {
            "statement": self.statement,
            "params": dict(sorted(self.params.items())),
            "seed": self.seed,
        }

    def cache_name(self):
        """File name from the task, its primes, and the code."""
        # hashlib loads OpenSSL; only the results cache needs it
        import hashlib

        key = dict(self.as_dict(), primes=list(self.primes), source=source_digest())
        blob = json.dumps(key, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:24] + ".json"


def _by_degree(statement, variant, koszul=False):
    """Runner comparing a statement's character in degrees 2..d_max with its witness.

    The witness is the count of minimal relations, or with koszul the Koszul
    H_1 dimension, each looked up by its module-global name when the runner runs.
    With koszul the certificates list H_1 at each dominant weight where it is
    nonzero: degree, weight [row sums, column sums], dim and orbit size, in
    degree and weight order.
    """

    def runner(p, q):
        m, n, d_max = p["m"], p["n"], p["d_max"]
        ctx, degrees = RingContext(m, n), range(2, d_max + 1)
        if koszul:
            blocks = koszul_h1_blocks(ctx, variant, d_max, q)
            dims = {d: orbit_total(blocks[d]) for d in degrees}
            certificates = tuple(
                {"degree": d, "weight": [list(w[0]), list(w[1])], "dim": dim,
                 "orbit_size": orbit_size(w)}
                for d in degrees
                for w, dim in sorted(blocks[d].items())
            )
        else:
            dims = {d: mins for d, (_, mins) in relation_dims(ctx, variant, d_max, q).items()}
            certificates = ()
        predicted = {
            f"degree_{d}": dim_at(predicted_character(statement, d), m, n) for d in degrees
        }
        witnessed = {f"degree_{d}": dims[d] for d in degrees}
        return predicted, witnessed, certificates

    return runner


def _within(terms, m, n):
    """The terms of a character whose two partitions have at most m and n rows."""
    return {(lam, mu): c for (lam, mu), c in terms.items() if len(lam) <= m and len(mu) <= n}


def _run_lem_4_3(p, q):
    """Filtration-layer character identity against the Bott route: r <= 3, sizes 2..5."""
    predicted = {}
    witnessed = {}
    for r in range(1, 4):
        for d in range(0, p["d_max"] + 1):
            full = predicted_character("lem-4.3", d, r=r).terms
            for m in range(2, 6):
                for n in range(m, 6):
                    key = f"r{r}_d{d}_{m}x{n}"
                    geo = bott.lemma_4_3_character(r, d, m, n)
                    predicted[key] = format_bicharacter(_within(full, m, n))
                    witnessed[key] = format_bicharacter(geo.terms)
    return predicted, witnessed, ()


def _run_lem_4_4(p, q):
    """Vanishing sweep of the twisted wedge-power cohomology: j <= 4, r <= 2, sizes 2..5."""
    nonzero = []
    checked = 0
    for j in range(1, 5):
        for u in range(0, j + 3):
            for v in range(0, j + 3 - u):
                for r in range(1, 3):
                    for m in range(2, 6):
                        for n in range(2, 6):
                            checked += 1
                            if not bott.verify_lemma_4_4(u, v, j, r, m, n):
                                nonzero.append((u, v, j, r, m, n))
    predicted = {"nonzero_cases": 0, "checked": checked}
    witnessed = {"nonzero_cases": len(nonzero), "checked": checked}
    return predicted, witnessed, ()


def _run_thm_4_1(p, q):
    """Veronese-quotient presentation degrees and the Tor bound character."""
    m, n, r = p["m"], p["n"], p["r"]
    out = veronese_presentation_dims(RingContext(m, n), r, p["d_max"], q)
    gen_degrees = sorted(d for d, v in out["generators"].items() if v)
    rel_degrees = sorted(d for d, v in out["relations"].items() if v)
    bound = dim_at(predicted_character("eq-tor1-Nr", r), m, n)
    gen_dim = dim_at(predicted_character("lem-4.3", 0, r=r), m, n)
    predicted = {
        "generator_degrees": [r],
        "generators_at_r": gen_dim,
        "relation_degrees": [r + 1],
        "relations_within_bound": True,
    }
    witnessed = {
        "generator_degrees": gen_degrees,
        "generators_at_r": out["generators"].get(r, 0),
        "relation_degrees": rel_degrees,
        "relations_within_bound": out["relations"].get(r + 1, 0) <= bound,
    }
    return predicted, witnessed, ()


def _run_eq_tor1(p, q):
    """Closed-form Tor character of the Veronese quotient vs Bott cohomology."""
    m, n, r = p["m"], p["n"], p["r"]
    stated = predicted_character("eq-tor1-Nr", r)
    geo_terms = {}
    for ch in bott.tor_geometric(1, r, m, n).values():
        for pair, mult in ch.terms.items():
            geo_terms[pair] = geo_terms.get(pair, 0) + mult
    predicted = {"character": format_bicharacter(_within(stated.terms, m, n))}
    witnessed = {"character": format_bicharacter(geo_terms)}
    return predicted, witnessed, ()


def _run_subspace(p, q):
    """Subspace-variety generator count vs the wedge-power character.

    This is also Section 6's functor U, whose character is the wedge power
    that `predicted_character("sec-6-U", m)` returns.
    """
    m, n, d_max = p["m"], p["n"], p["d_max"]
    ch = predicted_character("sec-6-U", m)
    predicted = {f"degree_{d}": 0 for d in range(1, d_max + 1)}
    predicted[f"degree_{m}"] = dim_at(ch, m, n)
    counts = subspace_variety_gens(m, n, d_max, q)
    witnessed = {f"degree_{d}": counts.get(d, 0) for d in range(1, d_max + 1)}
    return predicted, witnessed, ()


def _run_fiber_type(p, q):
    """Rees-ideal generator bidegrees against the fiber-type pattern."""
    ctx = RingContext(p["m"], p["n"])
    fiber, table = fiber_type_check(ctx, p["a_max"], p["e_max"], q)
    predicted = {"fiber_type": True}
    witnessed = {"fiber_type": fiber}
    witnessed["bidegrees"] = {f"({a},{b})": c for (a, b), c in sorted(table.items())}
    return predicted, witnessed, ()


# statement -> (runner, envelope, {param: (least value that checks anything,
# default)}).  The envelope is a tuple of boxes (m_cap, n_cap, bound), and a
# window is inside if one box holds it: m <= m_cap, n <= n_cap and every
# other param at most bound.  A box holds one orientation only, since
# thm-5.1 is not symmetric in m and n.  Each box's corner (every param at the
# largest value validate accepts there) finishes with a verdict within 60 s
# and 1 GB in a fresh process on a 2-core host; see the README.  A default of
# None marks a required param; a callable least or default reads the params
# before it.  m and n have no least of their own: validate needs both to be
# at least 2.  sec-6-Tbar (Section 6's functor T-bar, the transpose dual of
# Theorem 1.1) is Theorem 1.2 on a smaller envelope.  A degree window must
# reach the stated degree: r + 1 for thm-4.1's relations, m for thm-5.1's.
_M_N = {"m": (None, None), "n": (None, None)}
_THM_1_2 = _by_degree("thm-1.2", "permanents")
_STATEMENTS = {
    "thm-1.1": (
        _by_degree("thm-1.1", "minors"),
        ((5, 5, 4), (4, 4, 5), (3, 5, 6), (5, 3, 6)),
        {**_M_N, "d_max": (2, 4)},
    ),
    "thm-1.2": (_THM_1_2, ((4, 4, 4), (3, 4, 5), (4, 3, 5)), {**_M_N, "d_max": (2, 4)}),
    "sec-6-Tbar": (_THM_1_2, ((3, 3, 3),), {**_M_N, "d_max": (2, 3)}),
    "thm-3.1": (
        _by_degree("thm-3.1", "minors", True),
        ((4, 4, 10), (4, 5, 8), (5, 4, 8), (3, 5, 9), (5, 3, 9), (5, 5, 7)),
        {**_M_N, "d_max": (2, 5)},
    ),
    "thm-3.2": (
        _by_degree("thm-3.2", "permanents", True),
        ((4, 5, 9), (5, 4, 9)),
        {**_M_N, "d_max": (2, 5)},
    ),
    "lem-4.3": (_run_lem_4_3, ((5, 5, 6),), {"d_max": (0, 4)}),
    "lem-4.4": (_run_lem_4_4, ((5, 5, 6),), {}),
    "thm-4.1": (
        _run_thm_4_1,
        ((3, 4, 4), (4, 3, 4)),
        {**_M_N, "r": (1, 1), "d_max": (lambda p: p["r"] + 1, lambda p: p["r"] + 1)},
    ),
    "eq-tor1-Nr": (_run_eq_tor1, ((5, 5, 3),), {**_M_N, "r": (1, 1)}),
    "thm-5.1": (
        _run_subspace,
        ((3, 4, 4),),
        {**_M_N, "d_max": (lambda p: p["m"], lambda p: p["m"] + 1)},
    ),
    "que-7.1": (
        _run_fiber_type,
        ((5, 3, 3), (3, 5, 3), (4, 4, 3)),
        {**_M_N, "a_max": (0, 3), "e_max": (1, 3)},
    ),
}


def validate(task):
    """Fill in a task's defaults, check the filled window and return it.

    Rejects an unknown statement, a param its runner does not read, a missing
    size, and a value, given or defaulted, off its window.  A value below its
    least (a size without 2x2 minors, or a degree window that checks nothing
    or stops below the stated degree) is as much a usage error as one past
    the envelope.
    """
    if task.statement not in _STATEMENTS:
        raise ValueError(f"unknown statement id {task.statement!r}")
    _, boxes, window = _STATEMENTS[task.statement]
    for key in task.params:
        if key not in window:
            reads = ", ".join(window) or "nothing"
            raise ValueError(f"{task.statement}: takes no {key} (it reads {reads})")
    p = {}
    for key, (_, default) in window.items():
        if key in task.params:
            p[key] = task.params[key]
        elif default is None:
            raise ValueError(f"{task.statement}: needs {key}")
        else:
            p[key] = default(p) if callable(default) else default
    m, n = p.get("m", 2), p.get("n", 2)
    if min(m, n) < 2:
        raise ValueError(f"{task.statement}: size ({m},{n}) has no 2x2 minors")
    # the largest bound of the boxes that hold the size: that box holds the
    # window if any does
    bound = max((b for mc, nc, b in boxes if m <= mc and n <= nc), default=None)
    if bound is None:
        raise ValueError(f"{task.statement}: size ({m},{n}) outside envelope {boxes}")
    for key, value in p.items():
        if key in ("m", "n"):
            continue
        least = window[key][0]
        least = least(p) if callable(least) else least
        if not least <= value <= bound:
            raise ValueError(
                f"{task.statement}: {key}={value} outside envelope [{least}, {bound}]"
            )
    return p


def run(task, results_dir=None):
    """Run one task at two of its primes; return (and maybe cache) a report."""
    p = validate(task)
    if results_dir is None:
        results_dir = os.environ.get(RESULTS_DIR_ENV)
    cache_path = None
    if results_dir:
        os.makedirs(results_dir, exist_ok=True)
        cache_path = os.path.join(results_dir, task.cache_name())
        if os.path.exists(cache_path):
            with open(cache_path) as fh:
                return parse_report(fh.read())
    t0 = time.perf_counter()
    runner = _STATEMENTS[task.statement][0]
    predicted, witnessed, certificates = modlinalg.two_primes(
        task.seed, task.primes, lambda q: runner(p, q)
    )
    verdict = "pass" if all(matches(predicted, witnessed, k) for k in predicted) else "fail"
    elapsed = time.perf_counter() - t0
    report = VerificationReport(
        task=task.as_dict(),
        predicted=predicted,
        witnessed=witnessed,
        certificates=certificates,
        verdict=verdict,
        timings={"total_s": round(elapsed, 3)},
    )
    if cache_path:
        Path(cache_path + ".part").write_text(emit(report, "json"))
        os.replace(cache_path + ".part", cache_path)
    return report


def suite_tasks(profile="quick", seed=0):
    """The default verification suite for a profile."""
    mk = lambda sid, **params: VerificationTask(sid, params, seed=seed)
    tasks = [
        mk("thm-1.1", m=2, n=4, d_max=4),
        mk("thm-1.1", m=3, n=3, d_max=4),
        mk("lem-4.3"),
        mk("lem-4.4"),
        mk("eq-tor1-Nr", m=3, n=3, r=1),
        mk("thm-5.1", m=2, n=2),
        mk("thm-5.1", m=2, n=3),
        mk("que-7.1", m=2, n=2),
        mk("que-7.1", m=2, n=3),
    ]
    if profile in ("full", "long"):
        tasks += [
            mk("thm-1.1", m=3, n=4, d_max=4),
            mk("thm-1.2", m=3, n=3, d_max=3),
            mk("thm-3.1", m=3, n=3, d_max=5),
            mk("thm-3.2", m=3, n=3, d_max=6),
            mk("thm-4.1", m=3, n=3, r=1),
            mk("que-7.1", m=2, n=4),
            mk("que-7.1", m=3, n=3),
            mk("thm-1.1", m=4, n=4, d_max=4),
            mk("thm-1.1", m=4, n=5, d_max=4),
            mk("thm-3.1", m=3, n=4, d_max=7),
            mk("thm-3.2", m=3, n=4, d_max=7),
            mk("thm-3.1", m=4, n=4, d_max=6),
            mk("thm-3.2", m=4, n=4, d_max=6),
            mk("thm-4.1", m=3, n=3, r=1, d_max=3),
            mk("thm-4.1", m=3, n=3, r=2, d_max=4),
            mk("thm-4.1", m=3, n=4, r=1, d_max=3),
            mk("thm-4.1", m=3, n=4, r=2, d_max=4),
        ]
        tasks += [mk("eq-tor1-Nr", m=5, n=5, r=r) for r in (1, 2, 3)]
    if profile == "long":
        tasks += [
            mk("que-7.1", m=5, n=3, a_max=3, e_max=3),
            mk("que-7.1", m=4, n=4, a_max=2, e_max=3),
            mk("thm-1.1", m=4, n=4, d_max=5),
            mk("thm-1.2", m=3, n=4, d_max=4),
            mk("thm-1.2", m=4, n=4, d_max=4),
            mk("thm-5.1", m=3, n=3),
            mk("thm-5.1", m=3, n=4),
            mk("thm-3.1", m=4, n=4, d_max=8),
            mk("thm-3.2", m=4, n=4, d_max=7),
            mk("thm-3.1", m=4, n=5, d_max=6),
            mk("thm-3.1", m=3, n=4, d_max=9),
            mk("thm-3.2", m=3, n=4, d_max=9),
            mk("thm-1.1", m=5, n=5, d_max=4),
        ]
    return tasks
