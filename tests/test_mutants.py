"""The mutation harness's list stays applicable: every mutant's old text
occurs exactly once in its file, so ``tests/mutants.py`` edits the code it
names."""

from mutants import MUTANTS, SRC


def test_every_old_text_occurs_once():
    counts = {m.name: (SRC / m.file).read_text().count(m.old) for m in MUTANTS}
    assert {name: n for name, n in counts.items() if n != 1} == {}
    assert len(counts) == len(MUTANTS)
    assert all(m.new != m.old for m in MUTANTS)
