"""Per-layer metrics of one traced pass, computed from its spans.

The layers are the capsym modules.  The harmonic module is split into the
collocation solve and kernel evaluation (``field``), and the criteria
module into the criteria, the certificate and the capacity.  A metric of a
layer that the workload never reaches reads 0.
"""

from __future__ import annotations

from spans import coverage, group_time, has_ancestor, self_times

CRITERION_IDS = (
    "T1.1-integral", "C1.2-global", "C1.3-capacity", "C1.4-pointwise",
    "T1.5-neumann", "T1.6-interior-integral", "C1.7-interior-pointwise",
    "T1.8-interior-neumann", "T1.9-two-boundary",
)
WANTS = ("u", "grad", "hess")
SOLVES = ("solve_exterior", "solve_interior")


def _arg(args, kwargs, index, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _field_note(args, kwargs, result):
    want = _arg(args, kwargs, 2, "want", "hess")
    return want, len(result.u) * len(args[0].sources)


def _level_note(args, kwargs, result):
    order = _arg(args, kwargs, 2, "order", None)
    order = order if order is not None else args[0].order
    return result.level, order, result.nodes


def _solve_note(args, kwargs, result):
    return {"nodes": 2 * result.order ** 2, "sources": len(result.sources),
            "condition": result.condition_estimate,
            "fit_residual": result.fit_residual}


def _criterion_note(args, kwargs, result):
    return getattr(result, "criterion_id", None)


NOTES = {
    "HarmonicSolution.field": _field_note,
    "extract_level_set": _level_note,
    "solve_exterior": _solve_note,
    "solve_interior": _solve_note,
    **{name: _criterion_note for name in (
        "check_T11", "check_C12", "check_C13", "check_pointwise", "check_C17",
        "check_neumann", "check_T16", "check_T19")},
}


def _named(*names):
    return lambda s: s.name in names


def summarize(spans, t0, t1):
    """Metrics of the spans of one pass that ran from t0 to t1.

    Returns (metrics, levels) where levels lists (level, nodes) of every
    distinct (level, order) extraction, for the level misfit.
    """
    selfs = self_times(spans)
    m = {"cli.self_s": sum(t for s, t in zip(spans, selfs) if s.layer == "cli")}

    ray = _named("DomainSpec.ray_exit_radius")
    m["geometry.ray_exit.calls"] = sum(1 for s in spans if ray(s))
    m["geometry.ray_exit.s"] = group_time(spans, ray)
    m["geometry.quadrature.s"] = group_time(spans, _named("build_quadrature"))

    solves = [s.note for s in spans if s.name in SOLVES]
    m["solve.s"] = group_time(spans, _named(*SOLVES))
    for key in ("nodes", "sources", "condition", "fit_residual"):
        m[f"solve.{key}"] = max((n[key] for n in solves), default=0)

    field = [i for i, s in enumerate(spans) if s.name == "HarmonicSolution.field"]
    for want in WANTS:
        mine = [spans[i] for i in field if spans[i].note[0] == want]
        pairs = sum(s.note[1] for s in mine)
        secs = sum(s.duration for s in mine)
        m[f"field.{want}.calls"] = len(mine)
        m[f"field.{want}.pairs"] = pairs
        m[f"field.{want}.s"] = secs
        m[f"field.{want}.ns_per_pair"] = 1e9 * secs / pairs if pairs else 0.0

    extract = _named("extract_level_set")
    levels = [s.note for s in spans if extract(s)]
    unique = {}
    for level, order, nodes in levels:
        unique.setdefault((level, order), nodes)
    in_levelset = sum(1 for i in field if has_ancestor(spans, i, extract))
    m["levelset.extractions"] = len(levels)
    m["levelset.unique"] = len(unique)
    m["levelset.unique_ratio"] = len(unique) / len(levels) if levels else 0.0
    m["levelset.field_calls_per_level"] = in_levelset / len(levels) if levels else 0.0
    m["levelset.s"] = group_time(spans, lambda s: s.layer == "levelset")
    m["levelset.self_s"] = sum(t for s, t in zip(spans, selfs)
                               if s.layer == "levelset")

    m["conformal.s"] = group_time(spans, lambda s: s.layer == "conformal")
    for cid in CRITERION_IDS:
        m[f"criteria.{cid}.s"] = group_time(
            spans, lambda s, cid=cid: s.name.startswith("check_") and s.note == cid)
    m["certificate.s"] = group_time(spans, _named("symmetry_certificate"))
    m["capacity.s"] = group_time(spans, _named("capacity"))
    m["identities.weighted.s"] = group_time(spans, _named("weighted_identity_check"))
    m["trace.coverage"] = coverage(spans, t0, t1)
    return m, [(level, nodes) for (level, _), nodes in unique.items()]
