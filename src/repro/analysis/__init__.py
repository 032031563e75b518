"""Static analysis: storage model, state lattices, dataflow, checking.

The re-exported names load on first use (see :mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

__all__ = [
    "CFG",
    "CFGBuilder",
    "build_cfg",
    "TracePoint",
    "TracingChecker",
    "trace_function",
    "trace_source",
    "CheckContext",
    "FunctionChecker",
    "check_function",
    "AllocState",
    "DefState",
    "NullState",
    "RefState",
    "AliasMap",
    "Ref",
    "RefBase",
    "Store",
    "merge_all",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "CFG": ".cfg",
    "CFGBuilder": ".cfg",
    "build_cfg": ".cfg",
    "CheckContext": ".checker",
    "FunctionChecker": ".checker",
    "check_function": ".checker",
    "TracePoint": ".engine",
    "TracingChecker": ".engine",
    "trace_function": ".engine",
    "trace_source": ".engine",
    "AllocState": ".states",
    "DefState": ".states",
    "NullState": ".states",
    "RefState": ".states",
    "AliasMap": ".storage",
    "Ref": ".storage",
    "RefBase": ".storage",
    "Store": ".store",
    "merge_all": ".store",
})
