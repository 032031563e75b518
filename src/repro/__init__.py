"""repro: reproduction of "Static Detection of Dynamic Memory Errors".

An annotation-based static checker for C memory errors (Evans, PLDI
1996), with a from-scratch C frontend, the LCLint storage-model analysis,
an annotated standard library, and a run-time checking baseline.

The public names below load on first use (see :mod:`repro._lazy`), so
``import repro`` costs no frontend or analysis import.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "CheckResult",
    "Checker",
    "check_files",
    "check_source",
    "Flags",
    "FLAG_REGISTRY",
    "Message",
    "MessageCode",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "CheckResult": ".core.api",
    "Checker": ".core.api",
    "check_files": ".core.api",
    "check_source": ".core.api",
    "Flags": ".flags.registry",
    "FLAG_REGISTRY": ".flags.registry",
    "Message": ".messages.message",
    "MessageCode": ".messages.message",
})
