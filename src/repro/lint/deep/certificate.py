"""The ``determinism-certificate/v1`` format and its runtime enforcement.

The deep pass's output is only useful if the runtime consumes it: a
certificate is a JSON document mapping every analyzed function
(``module:qualname``) to its three inferred properties —
``deterministic``, ``picklable``, ``pure`` — plus the call-chain
evidence for any that fail, and a fingerprint of the function's source
so a *stale* certificate (code edited since analysis) is detected
rather than trusted.

The harness knobs (``certify=`` on :class:`~repro.harness.experiment.
Experiment`, :func:`~repro.harness.experiment.run_trials`,
:class:`~repro.harness.campaign.FaultCampaign`) call
:func:`enforce_certificate` before executing anything:

* in **advisory** mode (plain in-process runs) an uncertified or
  hazardous task raises a :class:`CertificationWarning` and the run
  proceeds;
* in **strict** mode (``batch=`` or ``store=`` is in play — the paths
  whose byte-identity and content-addressed keys a hidden hazard
  silently poisons) it raises
  :class:`~repro.exceptions.CertificationError` instead.

Enforcement never touches the RNG, the clock, or the task itself, so a
certified run is byte-identical to the same run without ``certify=``.
"""

from __future__ import annotations

import hashlib
import inspect
import io
import json
import textwrap
import tokenize
import warnings
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.exceptions import CertificationError
from repro.observe import current as _telemetry

__all__ = ["CERTIFICATE_VERSION", "Certificate", "CertificationWarning",
           "enforce_certificate", "function_fingerprint"]

CERTIFICATE_VERSION = "determinism-certificate/v1"

#: The three certified properties, in report order.
PROPERTIES = ("deterministic", "picklable", "pure")


class CertificationWarning(UserWarning):
    """Advisory-mode verdict: the task lacks a clean certificate."""


def function_fingerprint(source_segment: str) -> str:
    """A stable digest of one function's source text.

    Both sides normalize the same way — ``textwrap.dedent`` plus strip —
    so the static side (an ``ast`` source segment, decorators included)
    and the runtime side (``inspect.getsource``) agree for any function
    the two can both see.
    """
    body = textwrap.dedent(source_segment).strip()
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]


def callable_fingerprint(fn: Callable) -> Optional[str]:
    """:func:`function_fingerprint` of a live callable, or ``None``
    when its source is not retrievable (builtins, C extensions,
    REPL defs).

    ``inspect.getsource`` keeps the comment lines indented under the
    last statement, where the static segment ends, so the source is
    cut after its last token of code (kept whole if it won't tokenize).
    """
    try:
        source = inspect.getsource(fn)
    except (OSError, TypeError):
        return None
    try:  # code tokens: not comments, not (blank) layout tokens
        last = max((token.end[0] for token in tokenize.generate_tokens(
            io.StringIO(source).readline) if token.string.strip()
            and token.type != tokenize.COMMENT), default=None)
    except (tokenize.TokenError, SyntaxError):
        last = None
    return function_fingerprint("\n".join(source.split("\n")[:last]))


class Certificate:
    """A loaded determinism certificate.

    Args:
        payload: The certificate document (see
            :meth:`DeepAnalysis.certificate
            <repro.lint.deep.propagate.DeepAnalysis.certificate>`).
    """

    def __init__(self, payload: Dict[str, Any]) -> None:
        version = payload.get("version")
        if version != CERTIFICATE_VERSION:
            raise ValueError(
                f"unsupported certificate version {version!r} "
                f"(expected {CERTIFICATE_VERSION})")
        self.payload = payload
        self.functions: Dict[str, Dict[str, Any]] = payload.get(
            "functions", {})
        self.modules: Dict[str, Dict[str, Any]] = payload.get(
            "modules", {})

    # -- I/O ---------------------------------------------------------------

    @classmethod
    def load(cls, path: str) -> "Certificate":
        with open(path, "r", encoding="utf-8") as handle:
            return cls(json.load(handle))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    def to_json(self) -> str:
        return json.dumps(self.payload, indent=2, sort_keys=True) + "\n"

    def __len__(self) -> int:
        return len(self.functions)

    # -- lookup ------------------------------------------------------------

    def entry_for(self, fn: Callable
                  ) -> Tuple[str, Optional[Dict[str, Any]]]:
        """``(reference, entry-or-None)`` for a live callable.

        The reference is ``module:qualname``.  When the exact module
        name is absent (the analysis may have seen a shorter rooted
        name), a unique dotted-suffix match is accepted.
        """
        module = getattr(fn, "__module__", "?") or "?"
        qualname = getattr(fn, "__qualname__", getattr(fn, "__name__",
                                                       repr(fn)))
        ref = f"{module}:{qualname}"
        entry = self.functions.get(ref)
        if entry is not None:
            return ref, entry
        tail = f":{qualname}"
        matches = [key for key in self.functions
                   if key.endswith(tail)
                   and _module_suffix_match(key[:-len(tail)], module)]
        if len(matches) == 1:
            return matches[0], self.functions[matches[0]]
        return ref, None

    def check(self, fn: Callable) -> List[str]:
        """Problems blocking certification of ``fn`` (empty = clean)."""
        ref, entry = self.entry_for(fn)
        if entry is None:
            return [f"{ref} has no entry in the certificate — re-run "
                    f"'repro lint --deep' (or 'repro certify') over its "
                    f"module"]
        problems: List[str] = []
        live = callable_fingerprint(fn)
        if live is not None and entry.get("code") not in (None, live):
            problems.append(
                f"{ref} changed since the certificate was issued "
                f"(stale certificate) — re-run the deep analysis")
        if not entry.get("deterministic", False):
            problems.append(
                f"{ref} is not certified deterministic"
                f"{_chain_clause(entry, 'determinism')}")
        for prop, label in (("picklable", "picklability"),
                            ("pure", "purity")):
            if not entry.get(prop, True):
                problems.append(f"{ref} is not certified {prop}"
                                f"{_chain_clause(entry, label)}")
        return problems


def _module_suffix_match(certified: str, runtime: str) -> bool:
    """Whether two dotted module names plausibly name one module."""
    return (certified == runtime
            or certified.endswith("." + runtime)
            or runtime.endswith("." + certified))


def _chain_clause(entry: Dict[str, Any], label: str) -> str:
    chain = (entry.get("hazards") or {}).get(label)
    if not chain:
        return ""
    terminal = chain[-1]
    hops = [hop["function"].split(":", 1)[1]
            for hop in chain if "function" in hop]
    via = f" via {' -> '.join(hops)}" if hops else ""
    return f": reaches {terminal.get('detail', '?')}{via}"


def enforce_certificate(certify: Union[str, Certificate],
                        tasks: Dict[str, Callable],
                        strict: bool, context: str) -> None:
    """Check every task against the certificate; warn or raise.

    Args:
        certify: A :class:`Certificate` or a path to one.
        tasks: ``label -> callable`` to certify, checked in label
            order (deterministic message order).
        strict: ``True`` raises :class:`~repro.exceptions.
            CertificationError`; ``False`` issues a
            :class:`CertificationWarning` and lets the run proceed.
        context: Where enforcement happens, for the message
            (e.g. ``"experiment 'C4'"``).
    """
    certificate = (Certificate.load(certify) if isinstance(certify, str)
                   else certify)
    problems: List[str] = []
    for label in sorted(tasks):
        for problem in certificate.check(tasks[label]):
            problems.append(f"[{label}] {problem}")
    tel = _telemetry()
    verdict = "ok" if not problems else ("blocked" if strict else "warned")
    if tel.enabled:
        tel.metrics.inc("repro_certify_checks_total", verdict=verdict)
        tel.publish("certify.check", context=context, verdict=verdict,
                    problems=len(problems))
    if not problems:
        return
    message = (f"{context}: determinism certificate check failed — "
               + "; ".join(problems))
    if strict:
        raise CertificationError(message)
    warnings.warn(message, CertificationWarning, stacklevel=3)
