"""Built-in rule set.

Importing this package registers every rule with
:mod:`repro.lint.registry`.  Each module holds one rule; see
``src/repro/lint/README.md`` for the authoring guide.
"""

from repro.lint.rules import (  # noqa: F401  (imported for registration)
    backend_bypass,
    fan_out_mutation,
    float_budget,
    nondeterministic_iteration,
    rng_discipline,
    secret_branch,
    trace_hygiene,
)
