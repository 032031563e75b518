"""Interface annotations (paper Appendix B).

The re-exported names load on first use (see :mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

__all__ = [
    "ANNOTATION_WORDS",
    "EMPTY_ANNOTATIONS",
    "AllocAnn",
    "AnnotationSet",
    "DefAnn",
    "ExposureAnn",
    "IncompatibleAnnotations",
    "NullAnn",
    "AnnotationBuilder",
    "AnnotationProblem",
    "parse_annotation_words",
    "parse_spec_words",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "ANNOTATION_WORDS": ".kinds",
    "EMPTY_ANNOTATIONS": ".kinds",
    "AllocAnn": ".kinds",
    "AnnotationSet": ".kinds",
    "DefAnn": ".kinds",
    "ExposureAnn": ".kinds",
    "IncompatibleAnnotations": ".kinds",
    "NullAnn": ".kinds",
    "AnnotationBuilder": ".parse",
    "AnnotationProblem": ".parse",
    "parse_annotation_words": ".parse",
    "parse_spec_words": ".parse",
})
