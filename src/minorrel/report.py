"""Rendering of verification reports as text tables and stable json.

Characters print in the bracketed form "S[1,1,1,1]⊠S[2,2] + S[2,2]⊠S[1,1,1,1]";
an empty character prints "0".  The json schema has the fixed top-level fields
task, predicted, witnessed, certificates, verdict, timings and round-trips
through parse_report.
"""

import json
from collections import namedtuple

from .partitions import canon


def format_partition_brackets(lam):
    lam = canon(lam)
    if not lam:
        return "S[0]"
    return "S[" + ",".join(str(p) for p in lam) + "]"


def format_bicharacter(terms):
    """Render {(lam, mu): mult} as a sum of S[..]⊠S[..] terms."""
    if not terms:
        return "0"
    parts = []
    for (lam, mu) in sorted(terms):
        mult = terms[(lam, mu)]
        body = f"{format_partition_brackets(lam)}⊠{format_partition_brackets(mu)}"
        parts.append(body if mult == 1 else f"{mult}*{body}")
    return " + ".join(parts)


class VerificationReport(
    namedtuple("VerificationReport", "task predicted witnessed certificates verdict timings")
):
    __slots__ = ()

    def __new__(cls, task, predicted, witnessed, certificates=(), verdict="fail", timings=None):
        # verdict: pass | fail
        timings = {} if timings is None else timings
        return super().__new__(cls, task, predicted, witnessed, certificates, verdict, timings)

    def as_dict(self):
        return {
            "task": self.task,
            "predicted": self.predicted,
            "witnessed": self.witnessed,
            "certificates": list(self.certificates),
            "verdict": self.verdict,
            "timings": self.timings,
        }


def matches(predicted, witnessed, key):
    """The match rule: a predicted key needs an equal witness; a witness-only key is extra."""
    return key not in predicted or (key in witnessed and predicted[key] == witnessed[key])


def emit(report, format="table"):
    if format == "json":
        return json.dumps(report.as_dict(), sort_keys=True, indent=2) + "\n"
    if format != "table":
        raise ValueError(f"unknown format {format!r}")
    lines = []
    task = report.task
    head = task.get("statement", "?")
    params = {k: v for k, v in task.items() if k != "statement"}
    lines.append(f"{head}  {params}")
    keys = sorted(set(report.predicted) | set(report.witnessed))
    for k in keys:
        p = report.predicted.get(k, "-")
        w = report.witnessed.get(k, "-")
        mark = "ok" if matches(report.predicted, report.witnessed, k) else "MISMATCH"
        lines.append(f"  {k:<24} predicted={p!r}  witnessed={w!r}  {mark}")
    lines.append(f"  verdict: {report.verdict}")
    return "\n".join(lines) + "\n"


def parse_report(text):
    data = json.loads(text)
    return VerificationReport(
        task=data["task"],
        predicted=data["predicted"],
        witnessed=data["witnessed"],
        certificates=tuple(data["certificates"]),
        verdict=data["verdict"],
        timings=data["timings"],
    )
