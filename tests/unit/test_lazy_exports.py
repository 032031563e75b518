"""Lazy package exports keep every public name reachable."""

import importlib

import pytest

from repro._lazy import lazy_exports

PACKAGES = (
    "repro",
    "repro.frontend",
    "repro.analysis",
    "repro.incremental",
    "repro.messages",
    "repro.obs",
    "repro.annotations",
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in dir(module), name


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_is_an_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name  # noqa: B018


def test_star_import_matches_all():
    namespace: dict = {}
    exec("from repro.frontend import *", namespace)
    from repro import frontend

    assert set(frontend.__all__) <= set(namespace)


def test_resolved_value_is_the_defining_object():
    from repro import Checker, frontend
    from repro.core.api import Checker as defined
    from repro.frontend import cast

    assert Checker is defined
    assert frontend.cast is cast is importlib.import_module(
        "repro.frontend.cast"
    )


def test_helper_caches_into_the_namespace():
    namespace = {"__name__": "repro.obs"}
    getattr_, dir_ = lazy_exports(namespace, {"Tracer": ".trace"})
    tracer = getattr_("Tracer")
    assert namespace["Tracer"] is tracer
    assert "Tracer" in dir_()
