"""Claims of the README checked against the package."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def layout_rows():
    """(module, contents) of each row of the README Layout table."""
    section = README.read_text("utf-8").split("\n## Layout\n", 1)[1]
    for line in section.splitlines():
        cells = re.fullmatch(r"\| `(\w+)` \| (.*) \|", line)
        if cells:
            yield cells.groups()


def resolve(module, dotted):
    """The object a ``Name.attr`` of a module's row names: attr of the module
    Name, or of the attribute Name of the row's module; None if neither."""
    owner, attr = dotted.split(".")
    try:
        obj = importlib.import_module(f"futakizero.{owner}")
    except ImportError:
        obj = getattr(importlib.import_module(f"futakizero.{module}"), owner, None)
    return getattr(obj, attr, None)


def test_layout_dotted_names_resolve():
    dotted = [(module, name) for module, contents in layout_rows()
              for name in re.findall(r"`([A-Za-z_]\w*\.[A-Za-z_]\w*)`", contents)]
    assert dotted
    assert [(m, n) for m, n in dotted if resolve(m, n) is None] == []


def test_bl2lines_anticanonical_parameters():
    # the README and the note of 3.25 both write the point the family derives
    from futakizero.catalog import default_catalog_text
    from futakizero.toric import FAMILIES
    point = FAMILIES["bl2lines-p3"].anticanonical()
    written = ",".join(str(point[n]) for n in ("h", "a", "b"))
    assert f"the anticanonical parameters are `(h,a,b) = ({written})`" in \
        " ".join(README.read_text("utf-8").split())
    note = default_catalog_text().split('[case "3.25"]', 1)[1].split("[case", 1)[0]
    assert f"the anticanonical parameters ({written}) give the zero vector" in note
