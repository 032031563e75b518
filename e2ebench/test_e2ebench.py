"""Tests of the benchmark itself: its known answers and its failure count.

Run from the root of the repository with::

    PYTHONPATH=src python -m pytest e2ebench -q
"""

import dataclasses

from e2ebench import inputs, workloads
from e2ebench.run import tail


def test_golden_answers_cover_every_stage():
    answers = inputs.golden_db_answers()
    assert sorted(answers) == [0, 1, 2, 3, 4]
    assert len(answers[0].messages) == 34
    assert answers[4].messages == ()
    assert answers[4].cli_stdout() == "0 code warning(s)\n"
    assert answers[0].status == 1 and answers[4].status == 0


def test_stage_walk_never_repeats_a_stage():
    walk = inputs.db_stage_walk(7)
    stages = [next(walk) for _ in range(200)]
    assert all(a != b for a, b in zip(stages, stages[1:]))
    assert set(stages) == {0, 1, 2, 3, 4}
    again = inputs.db_stage_walk(7)
    assert [next(again) for _ in range(200)] == stages


def test_engine_edits_keep_lines_and_never_repeat_an_interface():
    program = inputs.EngineProgram(3)
    base = program.files()
    seen = {tuple(program.helpers)}
    kinds = program.ops()
    for _ in range(200):
        kind = next(kinds)
        program.edit(kind)
        files = program.files()
        for unit, line in program.slots:
            # A body edit rewrites the slot line in place: everything
            # before the helpers keeps its line.
            assert (files[unit].split("\n")[:line - 1]
                    == base[unit].split("\n")[:line - 1])
        if kind == "interface":
            state = tuple(program.helpers)
            assert state not in seen
            seen.add(state)
    leaks = [slot for slot, (_, fixed) in program.slot_edits.items()
             if not fixed]
    assert len(program.answer().messages) == len(leaks)


def test_block_shares_are_exact():
    program = inputs.EngineProgram(1)
    kinds = program.ops()
    block = [next(kinds) for _ in range(len(inputs.ENGINE_BLOCK))]
    assert sorted(block) == sorted(inputs.ENGINE_BLOCK)
    assert block.count("unchanged") / len(block) == 0.6


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(100)]
    percentile, value = tail(samples)
    assert percentile == 90.0
    assert sum(s > value for s in samples) == 10
    assert tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def _engine_round(tmp_path):
    scn = workloads.EngineEditLoop(5)
    loop = workloads.InProcessLoop(scn, str(tmp_path))
    loop.setup(1)
    for _ in range(scn.round_ops):
        loop.step()
    return loop.ops


def test_engine_round_matches_its_known_answers(tmp_path):
    ops = _engine_round(tmp_path)
    assert all(op.ok for op in ops)
    assert any(op.messages for op in ops)  # some op carried a planted leak


def test_wrong_expectation_fails_engine_ops(tmp_path, monkeypatch):
    monkeypatch.setattr(
        inputs, "leak_message",
        lambda unit, line: f"{unit}:{line + 1}: Fresh storage leaked",
    )
    ops = _engine_round(tmp_path)
    failed_frac = sum(not op.ok for op in ops) / len(ops)
    assert failed_frac > 0
    assert all(op.ok for op in ops if op.messages == 0)


def test_wrong_expectation_fails_cli_ops(tmp_path):
    scn = workloads.DbEdit(2)
    scn.answers = {
        stage: dataclasses.replace(answer, messages=answer.messages[1:])
        if answer.messages else inputs.Answer(("eref.c:1: invented",))
        for stage, answer in scn.answers.items()
    }
    run = workloads.cli_run(scn, 0, str(tmp_path))
    assert len(run.ops) == 1
    assert not run.ops[0].ok
