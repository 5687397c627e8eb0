"""The acceptance suite: one test per criterion, one pass/fail line each.

These run the exact criterion functions the `gridcuts verify` command uses;
run with -s to see the lines as they complete.
"""

import pytest

from gridcuts.verify import CRITERIA, run_criterion


@pytest.mark.parametrize("name", [name for name, _, _ in CRITERIA])
def test_criterion(name):
    result = run_criterion(name)
    print(f"{'PASS' if result.ok else 'FAIL'}  {name}  ({result.elapsed_s:.2f}s)")
    assert result.ok, "\n".join(result.failures)


def test_machine_structure_rejects_a_witness_that_is_not_a_permutation(monkeypatch):
    from gridcuts import verify

    monkeypatch.setattr(verify, "permutation_similarity_witness", lambda ours, ref: [0] * len(ours))
    result = run_criterion("machine-structure")
    assert not result.ok
    assert "similarity witness is not a permutation" in result.failures


def test_figures_rejects_a_gallery_board_that_is_not_canonical(monkeypatch):
    from gridcuts import reference
    from gridcuts.board import Board

    tampered = list(reference.GALLERY_4X6)
    tampered[0] = Board.from_rows([[0, 1] * 3] * 4)  # a 4x6 board outside the enumeration
    monkeypatch.setattr(reference, "GALLERY_4X6", tuple(tampered))
    result = run_criterion("figures")
    assert not result.ok
    assert any("not in the canonical enumeration" in msg for msg in result.failures)
