"""Messages, reporting, and stylized-comment suppression.

The re-exported names load on first use (see :mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

__all__ = ["Message", "MessageCode", "SubLocation", "Reporter", "SuppressionTable"]

__getattr__, __dir__ = lazy_exports(globals(), {
    "Message": ".message",
    "MessageCode": ".message",
    "SubLocation": ".message",
    "Reporter": ".reporter",
    "SuppressionTable": ".suppress",
})
