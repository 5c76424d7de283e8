"""repro.lint.deep — whole-program determinism analysis.

The per-module rules in :mod:`repro.lint` catch a hazard only when it
appears *literally inside* the offending function.  The harness's
guarantees — byte-identical redundant executions, content-addressed
store keys, comparable NVP candidates — must hold through arbitrary
call chains: a trial function that transitively reads a clock two
helpers away poisons them just as surely.  This package closes that
gap with a classic summary-based whole-program pass:

1. **summaries** (:mod:`~repro.lint.deep.summaries`) — from the
   module's hazard scan (:mod:`repro.lint.hazards`, which the local
   rules read too), for every function, its local hazards (clock /
   RNG-entropy / environment / hash-order reads, unpicklable captures,
   module-global mutation) and its outgoing calls, with import aliases
   resolved to canonical dotted names.  Summaries are
   content-addressed through the
   :class:`~repro.runtime.store.ResultStore` fingerprint machinery, so
   re-lints only re-summarize edited modules;
2. **graph** (:mod:`~repro.lint.deep.graph`) — the module-level import
   graph, and the import closure ``repro certify`` analyzes;
3. **propagate** (:mod:`~repro.lint.deep.propagate`) — fixpoint
   propagation of three properties (**determinism**, **picklability**,
   **purity**) over the call graph, emitting ``XDET00x`` / ``XPROC00x``
   findings whose payload carries the full call-chain evidence path;
4. **certificate** (:mod:`~repro.lint.deep.certificate`) — the
   ``determinism-certificate/v1`` JSON export the runtime consumes:
   the ``certify=`` knob on :class:`~repro.harness.experiment.
   Experiment`, :func:`~repro.harness.experiment.run_trials` and
   :class:`~repro.harness.campaign.FaultCampaign` warns (or, under
   ``batch=`` / ``store=``, errors) when a submitted task lacks a
   clean certificate.

Run it via ``repro lint --deep`` or ``repro certify <module:func>``.
"""

from repro.lint.deep.certificate import (
    CERTIFICATE_VERSION,
    Certificate,
    CertificationWarning,
    enforce_certificate,
    function_fingerprint,
)
from repro.lint.deep.propagate import DeepAnalysis
from repro.lint.deep.summaries import (
    SUMMARY_VERSION,
    FunctionSummary,
    ModuleSummary,
    summarize_module,
)
from repro.lint.hazards import Hazard, module_name_for

__all__ = [
    "CERTIFICATE_VERSION",
    "Certificate",
    "CertificationWarning",
    "DeepAnalysis",
    "FunctionSummary",
    "Hazard",
    "ModuleSummary",
    "SUMMARY_VERSION",
    "enforce_certificate",
    "function_fingerprint",
    "module_name_for",
    "summarize_module",
]
