"""Comparison of a measured document against a committed ``BENCH_*.json``.

The chaos and redundancy gates (``bench_chaos.py``,
``bench_redundancy.py``) replay deterministic traces, so their
documents must match the baseline exactly: same keys, same list
lengths, equal integers, booleans and strings, and floats within
:data:`FLOAT_TOL` relative (absolute below 1.0).
"""

from __future__ import annotations

#: Relative float tolerance (absolute for magnitudes below 1.0).
FLOAT_TOL = 1e-6


def diff_baseline(path, expected, actual, errors: list[str]) -> None:
    """Append to *errors* every way *actual* differs from *expected*,
    each prefixed with its dotted/indexed *path*."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            errors.append(f"{path}: keys differ")
            return
        for k in expected:
            diff_baseline(f"{path}.{k}", expected[k], actual[k], errors)
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            errors.append(f"{path}: length differs")
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            diff_baseline(f"{path}[{i}]", e, a, errors)
    elif isinstance(expected, bool) or isinstance(expected, int):
        if expected != actual:
            errors.append(f"{path}: {actual!r} != baseline {expected!r}")
    elif isinstance(expected, float):
        tol = FLOAT_TOL * max(1.0, abs(expected))
        if not isinstance(actual, (int, float)) or abs(actual - expected) > tol:
            errors.append(f"{path}: {actual!r} != baseline {expected!r} (tol {tol:g})")
    elif expected != actual:
        errors.append(f"{path}: {actual!r} != baseline {expected!r}")
