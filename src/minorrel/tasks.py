"""Named verification tasks pairing character predictions with rank witnesses.

Each statement id resolves to a runner that computes a prediction through the
character engine and a witness through linear algebra, Bott cohomology, or
elimination, then compares the two exactly.  Capacity overruns surface as the
verdict "skipped-capacity", never as a silent pass.  Reports can be cached in
a results directory under filenames hashed from the task, the configured
primes and nonzero cap, and the package source; a capacity skip is never
cached.
"""

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from . import bott, modlinalg
from .birep import dim_at, predicted_character
from .polyring import RingContext
from .rees import fiber_type_check, orbit_total
from .report import VerificationReport, format_bicharacter, parse_report, emit
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
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@dataclass(frozen=True)
class VerificationTask:
    statement: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def as_dict(self):
        return {
            "statement": self.statement,
            "params": dict(sorted(self.params.items())),
            "seed": self.seed,
        }

    def cache_name(self):
        """File name from the task, the configured primes and cap, and the code."""
        key = dict(
            self.as_dict(),
            primes=list(modlinalg.PRIMES),
            cap=modlinalg.NONZERO_CAP,
            source=source_digest(),
        )
        blob = json.dumps(key, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:24] + ".json"


def _run_thm_tor(task):
    """Minimal generator degrees of the relation ideal vs the stated characters."""
    p = task.params
    m, n, d_max = p["m"], p["n"], p.get("d_max", 4)
    variant = "minors" if task.statement == "thm-1.1" else "permanents"
    predicted = {}
    for d in range(2, d_max + 1):
        ch = predicted_character(task.statement, d)
        predicted[f"degree_{d}"] = dim_at(ch, m, n)
    dims = relation_dims(RingContext(m, n), variant, d_max, seed=task.seed)
    witnessed = {f"degree_{d}": dims[d][1] for d in range(2, d_max + 1)}
    return predicted, witnessed, []


def _run_thm_koszul(task):
    """First Koszul homology dimensions vs the stated characters."""
    p = task.params
    m, n, d_max = p["m"], p["n"], p.get("d_max", 5)
    variant = "minors" if task.statement == "thm-3.1" else "permanents"
    predicted = {}
    witnessed = {}
    for d in range(2, d_max + 1):
        ch = predicted_character(task.statement, d)
        predicted[f"degree_{d}"] = dim_at(ch, m, n)
        blocks = koszul_h1_blocks(RingContext(m, n), variant, d, seed=task.seed)
        witnessed[f"degree_{d}"] = orbit_total(blocks)
    return predicted, witnessed, []


def _run_lem_4_3(task):
    """Filtration-layer character identity against the Bott-cohomology route."""
    p = task.params
    r_max, d_cap, size = p.get("r_max", 3), p.get("d_max", 4), p.get("size", 5)
    predicted = {}
    witnessed = {}
    for r in range(1, r_max + 1):
        for d in range(0, d_cap + 1):
            full = predicted_character("lem-4.3", d, r=r).terms
            for m in range(2, size + 1):
                for n in range(m, size + 1):
                    key = f"r{r}_d{d}_{m}x{n}"
                    stated = {
                        pair: mult
                        for pair, mult in full.items()
                        if len(pair[0]) <= m and len(pair[1]) <= n
                    }
                    geo = bott.lemma_4_3_character(r, d, m, n)
                    predicted[key] = format_bicharacter(stated)
                    witnessed[key] = format_bicharacter(geo.terms)
    return predicted, witnessed, []


def _run_lem_4_4(task):
    """Exhaustive vanishing sweep of the twisted wedge-power cohomology."""
    p = task.params
    j_max, r_max, size = p.get("j_max", 4), p.get("r_max", 2), p.get("size", 5)
    nonzero = []
    checked = 0
    for j in range(1, j_max + 1):
        for u in range(0, j + 3):
            for v in range(0, j + 3 - u):
                for r in range(1, r_max + 1):
                    for m in range(2, size + 1):
                        for n in range(2, size + 1):
                            checked += 1
                            if not bott.verify_lemma_4_4(u, v, j, r, m, n):
                                nonzero.append((u, v, j, r, m, n))
    predicted = {"nonzero_cases": 0, "checked": checked}
    witnessed = {"nonzero_cases": len(nonzero), "checked": checked}
    return predicted, witnessed, []


def _run_thm_4_1(task):
    """Veronese-quotient presentation degrees and the Tor bound character."""
    p = task.params
    m, n, r = p["m"], p["n"], p.get("r", 1)
    d_max = p.get("d_max", r + 1)
    out = veronese_presentation_dims(RingContext(m, n), r, d_max, seed=task.seed)
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
    return predicted, witnessed, []


def _run_eq_tor1(task):
    """Closed-form Tor character of the Veronese quotient vs Bott cohomology."""
    p = task.params
    m, n, r = p["m"], p["n"], p.get("r", 1)
    stated = predicted_character("eq-tor1-Nr", r)
    geo = bott.tor_geometric(1, r, m, n)
    stated_terms = {
        pair: mult
        for pair, mult in stated.terms.items()
        if len(pair[0]) <= m and len(pair[1]) <= n
    }
    geo_terms = {}
    for d, ch in geo.items():
        for pair, mult in ch.terms.items():
            geo_terms[pair] = geo_terms.get(pair, 0) + mult
    predicted = {"character": format_bicharacter(stated_terms)}
    witnessed = {"character": format_bicharacter(geo_terms)}
    return predicted, witnessed, []


def _run_sec_6_Tbar(task):
    """Inductive-step presentation functor vs permanent relation witnesses."""
    p = task.params
    m, n, d_max = p["m"], p["n"], p.get("d_max", 3)
    degrees = range(2, d_max + 1)
    predicted = {}
    for d in degrees:
        predicted[f"degree_{d}"] = dim_at(predicted_character("sec-6-Tbar", d), m, n)
    dims = relation_dims(RingContext(m, n), "permanents", d_max, seed=task.seed)
    witnessed = {f"degree_{d}": dims[d][1] for d in degrees}
    return predicted, witnessed, []


def _run_subspace(task):
    """Subspace-variety generator count vs the wedge-power character."""
    p = task.params
    m, n = p["m"], p["n"]
    d_max = p.get("d_max", m + 1)
    ch = predicted_character("sec-6-U", m)
    predicted = {f"degree_{d}": 0 for d in range(1, d_max + 1)}
    predicted[f"degree_{m}"] = dim_at(ch, m, n)
    counts = subspace_variety_gens(m, n, d_max=d_max, seed=task.seed)
    witnessed = {f"degree_{d}": counts.get(d, 0) for d in range(1, d_max + 1)}
    return predicted, witnessed, []


def _run_fiber_type(task):
    """Rees-ideal generator bidegrees against the fiber-type pattern."""
    p = task.params
    m, n = p["m"], p["n"]
    a_max, e_max = p.get("a_max", 3), p.get("e_max", 3)
    fiber, table = fiber_type_check(
        RingContext(m, n),
        a_max=a_max,
        e_max=e_max,
        seed=task.seed,
    )
    predicted = {"fiber_type": True}
    witnessed = {"fiber_type": fiber}
    witnessed["bidegrees"] = {f"({a},{b})": c for (a, b), c in sorted(table.items())}
    return predicted, witnessed, []


# statement -> (runner, feasibility envelope max (m, n, degree-like bound),
# the params the runner reads with the least value that checks anything)
_SIZE_DEGREE = {"m": 2, "n": 2, "d_max": 2}
_SUBSPACE = {"m": 2, "n": 2, "d_max": 1}
_STATEMENTS = {
    "thm-1.1": (_run_thm_tor, (4, 5, 6), _SIZE_DEGREE),
    "thm-1.2": (_run_thm_tor, (4, 5, 6), _SIZE_DEGREE),
    "thm-3.1": (_run_thm_koszul, (3, 4, 7), _SIZE_DEGREE),
    "thm-3.2": (_run_thm_koszul, (3, 4, 7), _SIZE_DEGREE),
    "lem-4.3": (_run_lem_4_3, (5, 5, 6), {"r_max": 1, "d_max": 0, "size": 2}),
    "lem-4.4": (_run_lem_4_4, (5, 5, 6), {"j_max": 1, "r_max": 1, "size": 2}),
    "thm-4.1": (_run_thm_4_1, (3, 4, 4), {"m": 2, "n": 2, "r": 1, "d_max": 2}),
    "eq-tor1-Nr": (_run_eq_tor1, (5, 5, 3), {"m": 2, "n": 2, "r": 1}),
    "sec-6-Tbar": (_run_sec_6_Tbar, (3, 3, 3), _SIZE_DEGREE),
    "sec-6-U": (_run_subspace, (3, 4, 4), _SUBSPACE),
    "thm-5.1": (_run_subspace, (3, 4, 4), _SUBSPACE),
    "que-7.1": (_run_fiber_type, (5, 4, 4), {"m": 2, "n": 2, "a_max": 0, "e_max": 1}),
}


def validate(task):
    """Reject an unknown statement, a param its runner does not read, or a value off its window.

    A value below its least (a size without 2x2 minors, or a degree window
    that checks nothing) is as much a usage error as one past the envelope.
    """
    if task.statement not in _STATEMENTS:
        raise KeyError(f"unknown statement id {task.statement!r}")
    _, (m_cap, n_cap, d_cap), least = _STATEMENTS[task.statement]
    p = task.params
    for key in p:
        if key not in least:
            raise ValueError(f"{task.statement}: takes no {key} (it reads {', '.join(least)})")
    m, n = p.get("m", 2), p.get("n", 2)
    if min(m, n) < 2:
        raise ValueError(f"{task.statement}: size ({m},{n}) has no 2x2 minors")
    if min(m, n) > min(m_cap, n_cap) or max(m, n) > max(m_cap, n_cap):
        raise ValueError(
            f"{task.statement}: size ({m},{n}) outside envelope ({m_cap},{n_cap})"
        )
    for key, value in p.items():
        if key in ("m", "n"):
            continue
        top = min(m_cap, n_cap) if key == "size" else d_cap
        if not least[key] <= value <= top:
            raise ValueError(
                f"{task.statement}: {key}={value} outside envelope [{least[key]}, {top}]"
            )


def run(task, results_dir=None):
    """Execute one verification task, returning (and possibly caching) a report."""
    validate(task)
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
    try:
        predicted, witnessed, certificates = _STATEMENTS[task.statement][0](task)
        verdict = "pass" if predicted == {
            k: witnessed.get(k) for k in predicted
        } else "fail"
    except modlinalg.CapacityError as exc:
        predicted, witnessed, certificates = {}, {"capacity": str(exc)}, []
        verdict = "skipped-capacity"
    elapsed = time.perf_counter() - t0
    report = VerificationReport(
        task=task.as_dict(),
        predicted=predicted,
        witnessed=witnessed,
        certificates=tuple(certificates),
        verdict=verdict,
        timings={"total_s": round(elapsed, 3)},
    )
    if cache_path and verdict != "skipped-capacity":
        with open(cache_path, "w") as fh:
            fh.write(emit(report, "json"))
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
            mk("sec-6-Tbar", m=3, n=3),
            mk("que-7.1", m=2, n=4),
            mk("que-7.1", m=3, n=3),
            mk("thm-1.1", m=4, n=4, d_max=4),
            mk("thm-3.1", m=3, n=4, d_max=7),
            mk("thm-3.2", m=3, n=4, d_max=7),
            mk("thm-4.1", m=3, n=3, r=1, d_max=3),
            mk("thm-4.1", m=3, n=3, r=2, d_max=4),
            mk("thm-4.1", m=3, n=4, r=1, d_max=3),
        ]
        tasks += [mk("eq-tor1-Nr", m=5, n=5, r=r) for r in (1, 2, 3)]
    if profile == "long":
        tasks += [
            mk("que-7.1", m=5, n=3, a_max=3, e_max=3),
            mk("que-7.1", m=4, n=4, a_max=2, e_max=3),
            mk("thm-1.1", m=4, n=4, d_max=5),
            mk("thm-1.1", m=4, n=5, d_max=4),
            mk("thm-1.2", m=3, n=4, d_max=4),
            mk("thm-5.1", m=3, n=3),
            mk("thm-4.1", m=3, n=4, r=2, d_max=4),
        ]
    return tasks


def run_suite(tasks, results_dir=None):
    """Run tasks one after the other."""
    return [run(t, results_dir) for t in tasks]
