"""The benchmark's workloads: ordered task lists for minorrel.tasks.run.

Each task is (statement id, params).  The benchmark seed becomes the task
seed, which picks the pair of modular primes; the answers must not depend
on it.  Why each workload exists, and which layer it stresses, is in
NOTES.md and BENCHMARK.json.
"""

WORKLOADS = {
    # product building, block assembly and mid-sized eliminations
    "relations": (
        ("thm-1.1", {"m": 3, "n": 4, "d_max": 4}),
        ("thm-1.2", {"m": 3, "n": 3, "d_max": 3}),
        ("sec-6-Tbar", {"m": 3, "n": 3}),
        ("thm-4.1", {"m": 3, "n": 3, "r": 1}),
        ("thm-5.1", {"m": 2, "n": 3}),
    ),
    # elimination on large weight blocks
    "rees": (
        ("que-7.1", {"m": 3, "n": 3, "a_max": 3, "e_max": 3}),
    ),
    # thousands of tiny eliminations and no products
    "koszul": (
        ("thm-3.1", {"m": 3, "n": 3, "d_max": 5}),
        ("thm-3.2", {"m": 3, "n": 3, "d_max": 6}),
    ),
    # prediction side only: Bott, plethysm and Littlewood-Richardson
    "characters": (
        ("lem-4.4", {}),
        ("lem-4.3", {}),
        ("eq-tor1-Nr", {"m": 3, "n": 3, "r": 1}),
        ("eq-tor1-Nr", {"m": 4, "n": 4, "r": 2}),
    ),
}


def task_key(statement, params):
    """Stable name of a task, used to index the golden answers."""
    args = " ".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{statement} {args}".strip()
