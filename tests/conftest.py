import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from lingualchemy.uriel import FeatureSet, load_uriel_tsv


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def write_tsv(path: Path, header: list[str], rows: list[list[str]]) -> Path:
    lines = ["\t".join(header)] + ["\t".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def scale_update(state, l_cls: float, l_uriel: float):
    """Feed one step's losses into an AlchemyScale state; returns the state."""
    state.weights(l_cls, l_uriel)
    return state


ORANGE, BLUE = "#ee7733", "#4477aa"


def bar_fills(path: Path) -> list[str]:
    """The fill colour of each bar of an SVG chart, in order; the file must
    parse as XML."""
    root = ET.parse(path).getroot()
    return [rect.get("fill") for rect in root.iter("{http://www.w3.org/2000/svg}rect")]


@pytest.fixture
def geo_store(tmp_path):
    """Three languages on a 2-d geo grid: (0,0), (0,0.5), (1,1) after scaling."""
    path = write_tsv(tmp_path / "geo.tsv",
                     ["lang", "f0", "f1"],
                     [["aaa", "0", "0"],
                      ["bbb", "0", "10"],
                      ["ccc", "2", "20"]])
    return load_uriel_tsv({FeatureSet.GEO: path})
