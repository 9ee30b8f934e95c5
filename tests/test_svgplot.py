import xml.etree.ElementTree as ET

import numpy as np
import pytest

from tricent.svgplot import scatter_matrix, sweep_plot


def test_sweep_plot_structure():
    alphas = [1.0, 0.5, 0.1]
    labels = ["a", "b"]
    scores = np.array([[0.3, 0.5, 0.7], [0.7, 0.5, 0.3]])
    svg = sweep_plot(alphas, labels, scores)
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2
    assert "<title>a</title>" in svg and "<title>b</title>" in svg


def test_sweep_plot_deterministic():
    alphas = [1.0, 0.2]
    scores = np.array([[0.1, 0.9]])
    assert sweep_plot(alphas, ["v"], scores) == sweep_plot(alphas, ["v"], scores)


def test_sweep_plot_shape_check():
    with pytest.raises(ValueError, match="vertices x alphas"):
        sweep_plot([1.0, 0.5], ["a"], np.zeros((2, 2)))


def test_scatter_matrix_structure():
    rng = np.random.default_rng(3)
    vectors = [rng.random(10), rng.random(10), rng.random(10)]
    svg = scatter_matrix(["dc", "bc", "sc"], vectors)
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 6 * 10  # off-diagonal panels only
    assert svg.count("<rect") >= 9


def test_scatter_matrix_length_check():
    with pytest.raises(ValueError, match="differ in length"):
        scatter_matrix(["a"], [np.zeros(3), np.zeros(3)])


SVG = "{http://www.w3.org/2000/svg}"


def test_sweep_plot_escapes_labels():
    svg = sweep_plot([1.0, 0.5], ["a<&b", "c>d", "e"], np.array([[0.1, 0.2]] * 3))
    titles = [t.text for t in ET.fromstring(svg).iter(f"{SVG}title")]
    assert titles == ["a<&b", "c>d", "e"]
    assert "<title>e</title>" in svg


def test_scatter_matrix_escapes_names():
    rng = np.random.default_rng(4)
    svg = scatter_matrix(["a<&b", "dc"], [rng.random(5), rng.random(5)])
    texts = [t.text for t in ET.fromstring(svg).iter(f"{SVG}text")]
    assert texts.count("a<&b") == 3  # diagonal panel, column and row headings
    assert texts.count("dc") == 3
