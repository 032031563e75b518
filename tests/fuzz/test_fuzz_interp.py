"""Fuzz the instrumented-heap interpreter: contained failures only.

Every parseable generated input gets executed function by function under
a small step budget. The totality contract mirrors the checker's: the
interpreter may report runtime events, raise
:class:`~repro.runtime.interp.InterpreterError`, or exhaust its
:class:`~repro.runtime.interp.StepBudgetExceeded` budget — but no other
exception type may ever escape, and a completed run must return a
well-formed result. The difftest campaign leans on exactly this
contract (an interpreter failure is a verdict, not a crash), so this is
the fuzz-shaped proof it holds.
"""

import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.api import Checker
from repro.frontend.symtab import SymbolTable
from repro.runtime.interp import (
    Interpreter,
    InterpreterError,
    StepBudgetExceeded,
)

CRASH_DIR = tempfile.mkdtemp(prefix="pylclint-fuzz-interp-crashes-")

FUZZ_SETTINGS = settings(
    max_examples=40,
    deadline=4000,
    suppress_health_check=[HealthCheck.too_slow],
)

WELL_FORMED = """#include <stdlib.h>
typedef struct node { int v; struct node *next; } node;
static node *mk(int v) {
  node *n = (node *) malloc(sizeof(node));
  if (n != NULL) { n->v = v; n->next = NULL; }
  return n;
}
void push_pop(void) {
  node *a = mk(1);
  node *b = mk(2);
  if (a != NULL && b != NULL) { a->next = b; }
  if (a != NULL) { free(a->next); free(a); }
}
void looped(void) {
  int i = 0;
  node *n = mk(0);
  while (i < 10) { i = i + 1; }
  free(n);
}
void buggy(void) {
  node *n = mk(3);
  free(n);
  free(n);
}
"""

_FRAGMENTS = st.sampled_from([
    "free(n)", "free(a)", "malloc(0)", "n = NULL", "i = i + 1",
    "while (1) { }", "return", ";", "{", "}", "int q;", "q = *p;",
    "n->v = 9", "n->next = n", "/*@only@*/", "#define X",
])


@st.composite
def _mutated_program(draw):
    text = WELL_FORMED
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["cut", "dup", "splice"]))
        if len(text) < 2:
            break
        lo = draw(st.integers(0, len(text) - 1))
        hi = draw(st.integers(lo, min(len(text), lo + 60)))
        if kind == "cut":
            text = text[:lo] + text[hi:]
        elif kind == "dup":
            text = text[:hi] + text[lo:hi] + text[hi:]
        else:
            text = text[:lo] + draw(_FRAGMENTS) + text[lo:]
    return text


def _parse(source):
    """Parse with the real frontend; None when the input is unparseable
    (the checker reports parse errors — those inputs have no functions
    to execute and are out of scope here)."""
    checker = Checker(crash_dir=CRASH_DIR)
    try:
        parsed = checker.parse_unit(source, "fuzz.c")
    except Exception:
        return None
    symtab = SymbolTable()
    symtab.add_unit(parsed.unit)
    return parsed.unit, symtab, parsed.enum_consts


def _execute_everything(source):
    """Run every zero-argument function; only contained outcomes allowed."""
    parsed = _parse(source)
    if parsed is None:
        return 0
    unit, symtab, enum_consts = parsed
    executed = 0
    for fdef in unit.functions():
        if fdef.params:
            continue     # fuzz entry points are the void(void) functions
        try:
            # construction evaluates global initializers, so it can fail
            # the same contained way running can
            interp = Interpreter(
                [unit], symtab, enum_consts,
                max_steps=5_000, max_call_depth=32,
            )
            result = interp.run(fdef.name)
        except (InterpreterError, StepBudgetExceeded, RecursionError):
            continue     # a contained verdict, exactly as documented
        assert result.exit_code is not None
        # a tripped budget surfaces as steps == max_steps + 1
        assert result.steps <= 5_001
        for event in result.events:
            assert event.kind is not None
        executed += 1
    return executed


class TestFuzzInterpreter:
    @FUZZ_SETTINGS
    @given(_mutated_program())
    def test_mutated_programs_execute_or_fail_contained(self, source):
        _execute_everything(source)

    @FUZZ_SETTINGS
    @given(st.lists(_FRAGMENTS, max_size=30))
    def test_fragment_soup_bodies_execute_or_fail_contained(self, parts):
        body = "\n  ".join(p + ";" if not p.endswith(("{", "}", ";")) else p
                           for p in parts)
        source = (
            "#include <stdlib.h>\n"
            "void fuzz_entry(void)\n{\n  int i;\n  char *p;\n  char *n;\n  "
            "char *a;\n" + ("  " + body + "\n" if body else "")
            + "}\n"
        )
        _execute_everything(source)

    def test_well_formed_baseline_runs(self):
        # the unmutated program must actually execute (guards against the
        # fuzz property passing vacuously because nothing ever parses)
        assert _execute_everything(WELL_FORMED) >= 3

    def test_struct_containing_itself_by_value_fails_contained(self):
        # The shape the mutated-program property once found: a struct
        # member of the struct's own type has no finite layout, which
        # must surface as an InterpreterError, from a local or a global.
        for source in (
            "struct node { int v; struct node inner; };\n"
            "void entry(void) { struct node n; n.v = 1; }\n",
            "struct node { int v; struct node inner; };\n"
            "struct node g;\n"
            "void entry(void) { }\n",
        ):
            unit, symtab, enum_consts = _parse(source)
            with pytest.raises(InterpreterError, match="nesting too deep"):
                Interpreter([unit], symtab, enum_consts).run("entry")
            assert _execute_everything(source) == 0

    def test_runaway_loop_hits_step_budget_not_hang(self):
        source = "void spin(void)\n{\n  int i;\n  i = 0;\n  " \
                 "while (1) { i = i + 1; }\n}\n"
        parsed = _parse(source)
        assert parsed is not None
        unit, symtab, enum_consts = parsed
        interp = Interpreter([unit], symtab, enum_consts, max_steps=2_000)
        try:
            result = interp.run("spin")
        except StepBudgetExceeded:
            return
        # the budget may also surface as a completed, truncated run
        assert result.steps <= 2_001
