import json
import re

import pytest

from gridcuts.automaton import column_bits
from gridcuts.board import (
    SVG_FILL_ONE,
    Board,
    CanonicalConventionWarning,
    boards_to_svg,
    complete_board,
    component_counts,
    is_canonical,
    is_graham,
    revcomp,
    satisfies_complement_rule,
    transform,
)
from gridcuts.reference import GALLERY_3X6, GALLERY_4X6


def column(*bits):
    """A board column as an m-bit integer, top row first."""
    return sum(b << i for i, b in enumerate(bits))


_SVG_RECT = re.compile(r'<rect x="(\d+)" y="(\d+)" width="1" height="1" fill="([^"]+)"')


def svg_boards(text):
    """The boards in the writers' SVG, one per <g class="board"> group."""
    boards = []
    for group in text.split('<g class="board"')[1:]:
        cells = {(int(y), int(x)): fill == SVG_FILL_ONE for x, y, fill in _SVG_RECT.findall(group)}
        m, n = max(i for i, _ in cells) + 1, max(j for _, j in cells) + 1
        boards.append(Board.from_rows([[cells[i, j] for j in range(n)] for i in range(m)]))
    return boards


class TestColumnPattern:
    """Columns as m-bit ints with the top row in bit 0, as the board, the
    oracle and the automaton all store them."""

    def test_encode_decode_roundtrip(self):
        for m in range(1, 9):
            for value in range(1 << m):
                assert column(*column_bits(m, value)) == value

    def test_encoding_is_top_first(self):
        assert column_bits(4, 1) == (1, 0, 0, 0)
        assert column_bits(4, 8) == (0, 0, 0, 1)

    def test_revcomp_fixed_point(self):
        assert revcomp(4, column(1, 1, 0, 0)) == column(1, 1, 0, 0)

    def test_revcomp_all_zeros(self):
        assert revcomp(4, column(0, 0, 0, 0)) == column(1, 1, 1, 1)

    def test_revcomp_formula(self):
        assert revcomp(4, column(0, 0, 0, 1)) == column(0, 1, 1, 1)

    def test_self_revcomp_columns_m4(self):
        fixed = {v for v in range(16) if revcomp(4, v) == v}
        assert fixed == {
            column(1, 1, 0, 0), column(0, 0, 1, 1), column(1, 0, 1, 0), column(0, 1, 0, 1),
        }

    def test_revcomp_is_the_complemented_half_turn_of_one_column(self):
        # ties the machine's column rule to the board module's transform
        for m in range(1, 9):
            full = (1 << m) - 1
            for value in range(1 << m):
                assert revcomp(m, value) == transform(Board(m, 1, value), "rot180").bits ^ full


class TestCompleteBoard:
    def test_width_two(self):
        board = complete_board(4, 2, [column(0, 0, 0, 0)])
        assert board.columns() == (column(0, 0, 0, 0), column(1, 1, 1, 1))

    def test_width_one_middle_fixed(self):
        board = complete_board(4, 1, [column(1, 1, 0, 0)])
        assert board.columns() == (column(1, 1, 0, 0),)

    def test_gallery_board_from_left_half(self):
        left = [column(0, 0, 0, 0), column(0, 1, 0, 0), column(0, 1, 0, 0)]
        board = complete_board(4, 6, left)
        assert board == GALLERY_4X6[11]
        assert board.cells == (
            (0, 0, 0, 1, 1, 1),
            (0, 1, 1, 1, 1, 1),
            (0, 0, 0, 0, 0, 1),
            (0, 0, 0, 1, 1, 1),
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            complete_board(4, 4, [column(0, 0, 0, 0)])

    def test_odd_middle_must_be_self_revcomp(self):
        with pytest.raises(ValueError):
            complete_board(4, 1, [column(0, 0, 0, 0)])

    def test_left_half_round_trip(self):
        for board in GALLERY_4X6:
            assert complete_board(board.m, board.n, board.left_half()) == board

    def test_result_satisfies_rule(self):
        for board in GALLERY_4X6:
            assert satisfies_complement_rule(board)


class TestComponents:
    def test_straight_cut_gallery_board(self):
        assert component_counts(GALLERY_4X6[9]) == (1, 1)

    def test_alternating_column(self):
        board = Board(4, 1, column(0, 1, 0, 1))
        assert component_counts(board) == (2, 2)

    def test_two_alternating_columns(self):
        board = Board.from_rows([[0, 0], [1, 1], [0, 0], [1, 1]])
        assert component_counts(board) == (2, 2)

    def test_single_cell(self):
        assert component_counts(Board.from_rows([[1]])) == (0, 1)


class TestIsGraham:
    @pytest.mark.parametrize("idx", range(12))
    def test_gallery_4x6(self, idx):
        assert is_graham(GALLERY_4X6[idx])

    @pytest.mark.parametrize("idx", range(12))
    def test_gallery_3x6(self, idx):
        assert is_graham(GALLERY_3X6[idx])

    def test_complement_preserves_validity(self):
        for board in GALLERY_4X6:
            assert is_graham(transform(board, "complement"))

    def test_split_ones_rejected(self):
        board = Board.from_rows([[0, 1], [1, 0], [1, 0], [0, 1]])
        assert satisfies_complement_rule(board)
        assert not is_graham(board)

    def test_odd_cell_count_never_valid(self):
        board = Board.from_rows([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        assert not is_graham(board)


class TestTransforms:
    def test_rot180_equals_complement_on_valid_boards(self):
        for board in GALLERY_4X6 + GALLERY_3X6:
            assert transform(board, "rot180") == transform(board, "complement")

    def test_hflip_maps_gallery_board_to_gallery_board(self):
        assert transform(GALLERY_3X6[0], "hflip") == GALLERY_3X6[7]

    def test_vflip_is_rot180_of_hflip(self):
        for board in GALLERY_4X6:
            assert transform(board, "vflip") == transform(transform(board, "hflip"), "rot180")

    @pytest.mark.parametrize("op", ["hflip", "vflip", "rot180", "complement"])
    def test_involutions(self, op):
        for board in GALLERY_4X6:
            assert transform(transform(board, op), op) == board

    def test_transforms_preserve_validity(self):
        for board in GALLERY_4X6:
            for op in ("hflip", "vflip", "rot180", "complement"):
                assert is_graham(transform(board, op))

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            transform(GALLERY_4X6[0], "transpose")


class TestIsCanonical:
    @pytest.mark.parametrize("idx", range(12))
    def test_gallery_4x6_all_canonical(self, idx):
        assert is_canonical(GALLERY_4X6[idx])

    def test_bottom_left_one_rejected(self):
        board = Board.from_rows([[0, 0], [0, 1], [0, 1], [1, 1]])
        assert not is_canonical(board)

    def test_complement_of_straight_cut_not_canonical(self):
        board = transform(complete_board(4, 2, [column(0, 0, 0, 0)]), "complement")
        assert not is_canonical(board)

    def test_first_column_zero_majority(self):
        board = complete_board(4, 2, [column(1, 1, 1, 0)])
        assert is_graham(board)
        assert not is_canonical(board)

    def test_other_row_counts_warn(self):
        with pytest.warns(CanonicalConventionWarning):
            is_canonical(GALLERY_3X6[0])


class TestSerialization:
    def test_json_round_trip(self):
        board = GALLERY_4X6[3]
        data = json.loads(json.dumps(board.to_json_dict()))
        assert data["m"] == 4 and data["n"] == 6
        assert Board.from_rows(data["rows"]) == board

    def test_ascii_round_trip(self):
        board = GALLERY_4X6[4]
        text = board.to_ascii()
        assert set(text) <= {"#", ".", "\n"}
        assert Board.from_rows([[ch == "#" for ch in line] for line in text.splitlines()]) == board

    def test_svg_round_trip(self):
        board = GALLERY_3X6[2]
        assert svg_boards(boards_to_svg([board])) == [board]

    def test_multi_board_svg_round_trip(self):
        boards = list(GALLERY_4X6[:3])
        text = boards_to_svg(boards)
        assert svg_boards(text) == boards
