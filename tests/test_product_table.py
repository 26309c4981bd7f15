"""The product table's term maps, and the CLI output written from them.

``HomologyProduct.table()`` gives each entry as (degree, {k: c}) with no
zero c, and every entry whose factors' blocks do not meet is one shared
empty map.  The CLI prints each entry's terms in key order; its output must
equal the table written out dense and printed the way it was when every
entry was a list of coordinates, one term per nonzero coordinate.  Inputs:
the commutator DGA into ``split 2 matrix 2`` over Q, and into ``matrix 3``
over Q at x = I + N, y = (I + N)^2, where some entries' keys do not
increase; Chekanov's trefoil into ``matrix 2`` over Z2 with two
augmentations that differ in a2; each in both cases."""

import pytest

from ncdga import parse_augmentation, parse_dga, product_on_homology
from ncdga.cli import main
from ncdga.homology import _compose

from conftest import TREFOIL_SOURCE, dense_table
from test_corner import _dga_text

INPUTS = {
    # name: (DGA text, augmentation texts of the triple)
    "commutator-split-2-matrix-2": (
        _dga_text("Q", "commutator"),
        ["target split 2 matrix 2 over Q\nx = E11 + E22 + e1*E12\n"
         "y = 2*E11 + 2*E22 + e1*E12 + e2*E21\n"] * 3,
    ),
    "commutator-matrix-3": (
        _dga_text("Q", "commutator"),
        ["target matrix 3 over Q\nx = [[1,1,0],[0,1,1],[0,0,1]]\n"
         "y = [[1,2,1],[0,1,2],[0,0,1]]\n"] * 3,
    ),
    "trefoil-matrix-2": (
        TREFOIL_SOURCE,
        ["target matrix 2 over Z2\na3 = [[1,0],[0,1]]\n"]
        + ["target matrix 2 over Z2\na2 = [[0,0],[1,1]]\na3 = [[1,0],[0,1]]\n"] * 2,
    ),
}


def dense_output(prod) -> str:
    """The table printed from dense coordinate lists."""
    table = dense_table(prod)
    if not table:
        return "no homology classes to multiply\n"
    lines = []
    for (deg_x, i, deg_y, j), (degree, coords) in sorted(table.items()):
        value = " + ".join(f"{c} * H{degree}[{k}]" for k, c in enumerate(coords) if c) or "0"
        lines.append(f"H{deg_x}[{i}] * H{deg_y}[{j}] -> degree {degree}: {value}\n")
    return "".join(lines)


@pytest.mark.parametrize("case", ["I", "II"])
@pytest.mark.parametrize("which", list(INPUTS))
def test_table_entries_are_term_maps_printed_as_dense(which, case, tmp_path, capsys):
    source, aug_texts = INPUTS[which]
    dga = parse_dga(source)
    prod = product_on_homology(dga, *(parse_augmentation(t, dga) for t in aug_texts), case)
    table = prod.table()
    assert all(c for _degree, coeffs in table.values() for c in coeffs.values())
    apart = set()  # the maps of entries whose blocks do not meet
    for (deg_x, i, deg_y, j), (_degree, coeffs) in table.items():
        bx, by = prod.h01._origin[deg_x][i][0], prod.h12._origin[deg_y][j][0]
        if _compose(bx, by) is None:
            assert coeffs == {}
            apart.add(id(coeffs))
    # one block (case I over matrix 2) meets itself
    assert len(apart) == (len(prod.cx01.blocks) > 1)
    assert any(table[key][1] for key in table)
    if which == "commutator-matrix-3":  # the output sorts each entry's terms
        assert any(list(coeffs) != sorted(coeffs) for _degree, coeffs in table.values())

    dga_file = tmp_path / "dga.txt"
    dga_file.write_text(source)
    argv = ["product", str(dga_file), "--case", case]
    for k, text in enumerate(aug_texts):
        aug_file = tmp_path / f"aug-{k}.txt"
        aug_file.write_text(text)
        argv += ["--aug", str(aug_file)]
    assert main(argv) == 0
    assert capsys.readouterr().out == dense_output(prod)
