"""Seeded workload inputs and the known answer for each op.

No expected answer here comes from the checker under test:

* an ``examples/db`` annotation stage expects its block of the committed
  golden file ``tests/golden/examples_db.golden``;
* a generated program is clean by construction, so it expects no
  message;
* a planted leak expects exactly the paper's leak diagnostic, spelled
  here, at the line the leak was planted on.

The same seed always gives the same inputs.
"""

from __future__ import annotations

import itertools
import os
import random
import re
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DB = os.path.join(ROOT, "tests", "golden", "examples_db.golden")

#: Size of the generated part of the ``cli-cold-large`` program; with
#: the large-function unit the program is about 10k lines.
COLD_TARGET_LOC = 9400
#: Shape of the large-function unit written next to it.
BIG_LOCALS = 300
BIG_ALLOC_PAIRS = 150
#: Size of the ``engine-edit-loop`` program (14 translation units).
ENGINE_TARGET_LOC = 5000
#: One block of ``engine-edit-loop`` ops: exactly 60% unchanged
#: re-checks, 25% body edits and 15% interface edits, shuffled per block.
ENGINE_BLOCK = ("unchanged",) * 12 + ("body",) * 5 + ("interface",) * 3

LEAK_VAR = "bench_leak"


@dataclass(frozen=True)
class Answer:
    """What one check must produce: its rendered messages, in order."""

    messages: tuple[str, ...]

    @property
    def status(self) -> int:
        """The CLI exit status: 1 with warnings, 0 clean."""
        return 1 if self.messages else 0

    def cli_stdout(self) -> str:
        lines = list(self.messages)
        lines.append(f"{len(self.messages)} code warning(s)")
        return "\n".join(lines) + "\n"


def source_lines(files: dict[str, str]) -> int:
    """Lines of ``.c`` and ``.h`` source submitted to one check."""
    return sum(
        len(text.splitlines())
        for name, text in files.items()
        if name.endswith((".c", ".h"))
    )


def leak_message(unit: str, line: int) -> str:
    """The leak diagnostic for a leak planted by :func:`leak_statement`.

    The allocation and the end of its block share one line, so both
    locations are the planted line.
    """
    return (
        f"{unit}:{line}: Fresh storage {LEAK_VAR} not released before "
        f"scope exit (memory leak)\n"
        f"   {unit}:{line}: Fresh storage {LEAK_VAR} allocated"
    )


def leak_statement(nonce: int, fixed: bool = False) -> str:
    """A one-line block allocating *nonce* bytes; leaks unless *fixed*.

    The nonce makes every edit a token change the cache has not seen.
    """
    release = f" free({LEAK_VAR});" if fixed else ""
    return (
        f"  {{ char *{LEAK_VAR} = (char *) malloc({nonce}); "
        f"if ({LEAK_VAR} != NULL) {{ *{LEAK_VAR} = 'x'; }}{release} }}"
    )


# -- cli-db-edit -------------------------------------------------------------


def golden_db_answers(path: str = GOLDEN_DB) -> dict[int, Answer]:
    """Each annotation stage's answer, read from the golden snapshot."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    blocks: dict[int, list[str]] = {}
    stage = None
    for line in lines:
        header = re.fullmatch(r"== stage (\d+) ==", line)
        if header:
            stage = int(header.group(1))
            blocks[stage] = []
        elif line.startswith("== "):
            stage = None
        elif stage is None or not line:
            continue
        elif re.fullmatch(r"\d+ code warning\(s\)", line):
            if int(line.split()[0]) != len(blocks[stage]):
                raise ValueError(f"golden stage {stage}: count line disagrees")
        elif line.startswith("   "):
            blocks[stage][-1] += "\n" + line
        else:
            blocks[stage].append(line)
    return {s: Answer(tuple(msgs)) for s, msgs in blocks.items()}


def db_stage_walk(seed: int, stages: int = 5):
    """An endless seeded walk over stages that never repeats a stage
    twice in a row."""
    rng = random.Random(seed)
    stage = rng.randrange(stages)
    while True:
        yield stage
        stage = rng.choice([s for s in range(stages) if s != stage])


def db_stage_files(stage: int) -> dict[str, str]:
    from repro.bench.dbexample import db_sources

    return db_sources(stage)


# -- cli-cold-large ------------------------------------------------------------


def large_function_unit(leak_nonce: int) -> tuple[str, int]:
    """A unit of large functions: ``BIG_LOCALS`` chained locals, then
    ``BIG_ALLOC_PAIRS`` guarded malloc/free pairs followed by one planted
    leak. Returns the text and the leak's line."""
    out = ["#include <stdlib.h>", "", "int big_locals(int seed)", "{",
           "  int v0 = seed;"]
    for i in range(1, BIG_LOCALS):
        out.append(f"  int v{i} = v{i - 1} + {i % 7 + 1};")
    out += [f"  return v{BIG_LOCALS - 1};", "}", "", "void big_pairs(void)",
            "{"]
    for i in range(BIG_ALLOC_PAIRS):
        out.append(f"  char *p{i} = (char *) malloc({i % 13 + 8});")
        out.append(f"  if (p{i} != NULL) {{ *p{i} = 'a'; free(p{i}); }}")
    out.append(leak_statement(leak_nonce))
    leak_line = len(out)
    out += ["}", ""]
    return "\n".join(out), leak_line


def cold_large_program(seed: int) -> tuple[dict[str, str], Answer]:
    """The generated program plus ``bigfuncs.c``; one planted leak."""
    from repro.bench.generator import generate_program_of_size

    files = dict(generate_program_of_size(COLD_TARGET_LOC, seed=seed).files)
    text, leak_line = large_function_unit(16 + seed % 97)
    files["bigfuncs.c"] = text
    return files, Answer((leak_message("bigfuncs.c", leak_line),))


# -- engine-edit-loop ------------------------------------------------------------


class EngineProgram:
    """The ``engine-edit-loop`` program and its seeded edits.

    Every ``rec<k>_total`` function gets an empty slot line after its
    opening brace. A body edit rewrites one slot on the same line, so no
    declaration moves: it plants a leak there, or removes the planted
    leak by adding the ``free``. An interface edit appends a new
    ``static`` helper to a unit, or removes the oldest helper while at
    least one newer helper stays; so no set of helpers repeats and every
    interface edit is an interface the cache has not seen.
    """

    def __init__(self, seed: int) -> None:
        from repro.bench.generator import generate_program_of_size

        self.rng = random.Random(seed)
        self.nonces = itertools.count(16)
        base = dict(generate_program_of_size(ENGINE_TARGET_LOC, seed=seed).files)
        self.slots: list[tuple[str, int]] = []  # (unit, 1-based line)
        for name in sorted(base):
            match = re.fullmatch(r"rec(\d+)\.c", name)
            if not match:
                continue
            lines = base[name].split("\n")
            head = next(i for i, line in enumerate(lines)
                        if line.startswith(f"int rec{match[1]}_total("))
            if lines[head + 1] != "{":
                raise ValueError(f"unexpected layout of {name}")
            lines.insert(head + 2, "")
            base[name] = "\n".join(lines)
            self.slots.append((name, head + 3))
        self.base = base
        self.units = sorted(n for n in base if n.endswith(".c"))
        self.slot_edits: dict[tuple[str, int], tuple[int, bool]] = {}
        self.helpers: list[tuple[int, str]] = []  # (nonce, unit), oldest first

    def ops(self):
        """Endless op kinds, in shuffled blocks of exact shares."""
        while True:
            block = list(ENGINE_BLOCK)
            self.rng.shuffle(block)
            yield from block

    def edit(self, kind: str) -> None:
        if kind == "body":
            slot = self.slots[self.rng.randrange(len(self.slots))]
            leaking = slot in self.slot_edits and not self.slot_edits[slot][1]
            self.slot_edits[slot] = (next(self.nonces), leaking)
        elif kind == "interface":
            live = len(self.helpers)
            add = live < 2 or (live < 4 and self.rng.random() < 0.5)
            if add:
                self.helpers.append(
                    (next(self.nonces), self.rng.choice(self.units))
                )
            else:
                self.helpers.pop(0)
        elif kind != "unchanged":
            raise ValueError(f"unknown edit kind {kind!r}")

    def files(self) -> dict[str, str]:
        files = dict(self.base)
        for (unit, line), (nonce, fixed) in self.slot_edits.items():
            lines = files[unit].split("\n")
            lines[line - 1] = leak_statement(nonce, fixed)
            files[unit] = "\n".join(lines)
        for nonce, unit in self.helpers:
            files[unit] += (
                f"static int bench_helper_{nonce}(int x) "
                f"{{ return x + {nonce}; }}\n"
            )
        return files

    def answer(self) -> Answer:
        leaks = sorted(
            slot for slot, (_, fixed) in self.slot_edits.items() if not fixed
        )
        return Answer(tuple(leak_message(unit, line) for unit, line in leaks))
