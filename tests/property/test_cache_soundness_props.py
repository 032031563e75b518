"""Property test: a cached engine run is never distinguishable from a
fresh check, whatever sequence of edits the cache has seen.

A small generated program — three units whose exported functions
allocate and hand storage to one another, each unit with a header of
annotated prototypes that its callers include — goes through random
edits: a ``static`` helper added or removed, an exported function added
or removed together with its prototype, one annotation changed on a
prototype another unit calls, a prototype moved down one line, a
callee's definition deleted, and one annotation changed on a definition
(which changes what other units read without changing their tokens).
After every edit the engine with one persistent cache (``jobs`` 1 and 2
in turn) must render byte-identically to an engine without a cache and
to ``Checker``. The exact keys, the result slots and their dependency
digests are all exercised.
"""

import tempfile

from hypothesis import given, settings, strategies as st

from repro.core.api import Checker
from repro.incremental import IncrementalChecker, ResultCache

UNITS = ("a.c", "b.c", "c.c")
PARAM_ANNS = ("only", "temp", "null", "")
RET_ANNS = ("only", "null", "")
EDITS = ("static", "export", "annotation", "move", "delete", "definition")


def _ann(word: str) -> str:
    return f"/*@{word}@*/ " if word else ""


def _header(unit: str) -> str:
    return unit[:-2] + ".h"


def _next(values: tuple, value: str) -> str:
    return values[(values.index(value) + 1) % len(values)]


class _Function:
    def __init__(self, home: str, ret: str, param: str) -> None:
        self.home = home        # the unit defining it; its header declares it
        self.defined = True
        self.ret = ret          # prototype annotations
        self.param = param
        self.def_param = ""     # annotation spelled on the definition


class _Program:
    """The generated program's state; :meth:`files` renders it."""

    def __init__(self) -> None:
        self.next_id = 0
        self.functions: dict[str, _Function] = {}
        self.order: list[str] = []  # prototype order within each header
        self.statics: dict[str, list[int]] = {unit: [] for unit in UNITS}
        for index in range(4):
            self.add_function(UNITS[index % len(UNITS)])

    def add_function(self, unit: str) -> None:
        name = f"f{self.next_id}"
        self.functions[name] = _Function(
            unit,
            RET_ANNS[self.next_id % len(RET_ANNS)],
            PARAM_ANNS[self.next_id % len(PARAM_ANNS)],
        )
        self.next_id += 1
        self.order.append(name)

    def callee_of(self, name: str) -> str:
        """Each function calls the next one in creation order (cyclic),
        so most units read prototypes defined elsewhere."""
        names = sorted(self.functions, key=lambda n: int(n[1:]))
        return names[(names.index(name) + 1) % len(names)]

    def edit(self, kind: str, pick: int) -> None:
        name = self.order[pick % len(self.order)]
        function = self.functions[name]
        if kind == "static":
            helpers = self.statics[UNITS[pick % len(UNITS)]]
            if helpers and pick % 2:
                helpers.pop(0)
            else:
                helpers.append(self.next_id)
                self.next_id += 1
        elif kind == "export":
            if len(self.order) > 2 and pick % 2:
                del self.functions[name]
                self.order.remove(name)
            else:
                self.add_function(UNITS[pick % len(UNITS)])
        elif kind == "annotation":
            if pick % 2:
                function.param = _next(PARAM_ANNS, function.param)
            else:
                function.ret = _next(RET_ANNS, function.ret)
        elif kind == "move":
            index = self.order.index(name)
            later = [
                i for i in range(index + 1, len(self.order))
                if self.functions[self.order[i]].home == function.home
            ]
            if later:
                other = later[0]
                self.order[index], self.order[other] = (
                    self.order[other], self.order[index],
                )
        elif kind == "delete":
            function.defined = False
        elif kind == "definition":
            function.def_param = _next(PARAM_ANNS, function.def_param)
        else:
            raise ValueError(kind)

    def files(self) -> dict[str, str]:
        files = {}
        for unit in UNITS:
            lines = []
            for name in self.order:
                function = self.functions[name]
                if function.home == unit:
                    lines.append(
                        f"extern {_ann(function.ret)}char *{name}"
                        f"({_ann(function.param)}char *p);"
                    )
            files[_header(unit)] = "\n".join(lines) + "\n"
        for unit in UNITS:
            includes = {_header(unit)}
            body = []
            for name, function in self.functions.items():
                if function.home != unit or not function.defined:
                    continue
                callee = self.callee_of(name)
                includes.add(_header(self.functions[callee].home))
                body += [
                    f"char *{name}({_ann(function.def_param)}char *p)",
                    "{",
                    "  char *q = (char *) malloc(8);",
                    "  if (q == NULL) return p;",
                    "  *q = 'x';",
                    f"  (void) {callee}(q);",
                    "  return p;",
                    "}",
                    "",
                ]
            for nonce in self.statics[unit]:
                body.append(
                    f"static int helper_{nonce}(int x) {{ return x + {nonce}; }}"
                )
            head = ["#include <stdlib.h>"]
            head += [f'#include "{h}"' for h in sorted(includes)]
            files[unit] = "\n".join(head + [""] + body) + "\n"
        return files


_edits = st.lists(
    st.tuples(
        st.sampled_from(EDITS),
        st.integers(min_value=0, max_value=50),
    ),
    min_size=1,
    max_size=5,
)


class TestCachedRunsMatchFreshChecks:
    @given(_edits)
    @settings(max_examples=12, deadline=None)
    def test_every_edit_renders_like_a_fresh_check(self, edits):
        program = _Program()
        with tempfile.TemporaryDirectory(prefix="pylclint-props-") as root:
            IncrementalChecker(cache=ResultCache(root)).check_sources(
                program.files()
            )
            for step, (kind, pick) in enumerate(edits):
                program.edit(kind, pick)
                files = program.files()
                expected = Checker().check_sources(dict(files)).render()
                uncached = IncrementalChecker().check_sources(dict(files))
                assert uncached.render() == expected, (step, kind)
                # The first engine after an edit does the work; the other
                # job count then reads what it stored.
                for jobs in ((1, 2) if step % 2 else (2, 1)):
                    engine = IncrementalChecker(
                        cache=ResultCache(root), jobs=jobs
                    )
                    result = engine.check_sources(dict(files))
                    assert result.render() == expected, (step, kind, jobs)
