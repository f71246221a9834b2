"""repro.lint — correctness tooling for the simulator.

Two halves, one discipline:

* **simlint** (static): an AST-based analysis pass with pluggable rules
  enforcing the determinism and accounting properties the reproduction's
  figures depend on. The SL0xx family checks one file at a time
  (:mod:`repro.lint.rules`); the SL1xx family runs over a whole-program
  call graph (:mod:`repro.lint.graph`, :mod:`repro.lint.rules_wp`) —
  async-blocking reachability, determinism taint
  (:mod:`repro.lint.taint`), lock discipline and executor pickle-safety.
  Run it with ``repro-lint`` (add ``--wp`` for the whole-program pass) or
  ``python -m repro.lint``. See :mod:`repro.lint.suppress` for
  ``# simlint: disable=...`` / ``off``/``on`` blocks,
  :mod:`repro.lint.baseline` for the content-anchored committed-baseline
  workflow, :mod:`repro.lint.config` for ``[tool.simlint]`` and
  :mod:`repro.lint.sarif` for SARIF 2.1.0 CI output.
* **InvariantAuditor** (dynamic): runtime verification hooks for JVM
  debug runs — the simulator's ``-XX:+VerifyBeforeGC``/``AfterGC``. See
  :mod:`repro.lint.audit`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".audit": ("AuditError", "AuditViolation", "InvariantAuditor",
               "PAUSE_RECORD_SCHEMA", "validate_pause_record"),
    ".baseline": ("DEFAULT_BASELINE", "assign_keys", "finding_key",
                  "load_baseline", "load_justifications", "write_baseline"),
    ".config": ("LintConfig",),
    ".core": ("FileContext", "Finding", "LintError", "LintResult",
              "ProjectRule", "Rule", "lint_file", "run_lint"),
    ".graph": ("ProjectContext",),
    ".rules": ("RULES_BY_ID", "default_rules"),
    ".rules_wp": ("WP_RULES_BY_ID", "default_wp_rules"),
    ".suppress": ("Directive", "SuppressionTable"),
    ".taint": ("TaintAnalysis", "TaintWitness"),
})
