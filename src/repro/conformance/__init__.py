"""Correctness tooling: golden corpus, metamorphic oracles, fuzzing.

Four complementary ways to trust a mapper change:

* :mod:`repro.conformance.digest` / :mod:`~repro.conformance.corpus`
  — content-addressed digests of canonical scenarios, pinned in
  ``GOLDEN.json``; any behavioral drift flips a digest.
* :mod:`repro.conformance.oracles` — metamorphic transformations
  (relabeling, unit rescaling, guest-order permutation, unreachable
  host) whose effect on the result is known exactly.
* :mod:`repro.conformance.differential` — a routing cache that
  re-runs every route query on the reference routers and records
  any disagreement, on the real mid-mapping residual state.
* :mod:`repro.conformance.fuzz` — seeded differential fuzzing across
  the route kernel and reference routers, serial/parallel runners,
  validator, and exact solver.
"""

from repro.conformance.corpus import (
    CORPUS,
    CORPUS_SEED,
    CorpusCase,
    Mismatch,
    case_by_name,
    compute_digests,
    corpus_cases,
    golden_path,
    load_golden,
    verify,
    write_golden,
)
from repro.conformance.differential import DifferentialRoutingCache
from repro.conformance.digest import (
    DIGEST_FORMAT,
    canonical_document,
    canonical_json,
    digest,
    digest_document,
)
from repro.conformance.fuzz import (
    Divergence,
    FuzzReport,
    generate_instance,
    run_fuzz,
)
from repro.conformance.oracles import (
    ORACLES,
    GuestOrderOracle,
    Oracle,
    RelabelingOracle,
    UnitRescalingOracle,
    UnreachableHostOracle,
    oracle_by_name,
)

__all__ = [
    "CORPUS",
    "CORPUS_SEED",
    "CorpusCase",
    "Mismatch",
    "case_by_name",
    "compute_digests",
    "corpus_cases",
    "golden_path",
    "load_golden",
    "verify",
    "write_golden",
    "DifferentialRoutingCache",
    "DIGEST_FORMAT",
    "canonical_document",
    "canonical_json",
    "digest",
    "digest_document",
    "Divergence",
    "FuzzReport",
    "generate_instance",
    "run_fuzz",
    "ORACLES",
    "GuestOrderOracle",
    "Oracle",
    "RelabelingOracle",
    "UnitRescalingOracle",
    "UnreachableHostOracle",
    "oracle_by_name",
]
