"""SVG chart and figure-rendering tests."""

import hashlib

import pytest

import repro.experiments.context as context
from repro.errors import AnalysisError
from repro.experiments.figures import FIGURE_RENDERERS, render_figures
from repro.experiments.registry import ExperimentReport
from repro.experiments.svg import Chart, SvgCanvas
from repro.parallel import run_farm
from repro.scenarios import resolve

#: SHA-256 of every SVG at ``small`` seed 7, as written when each
#: renderer still re-ran its own experiment: rendering the run's reports
#: must draw the same bytes.
SVG_SHA256 = {
    "fig02": "87f74067d27bf55da01fdcda2a529e50527c41d8511c0525bd6dca84e6bb8c3b",
    "fig03a": "a86c9486ff94ecb08ffa9fa7717333eb8a8cc564c0c54dfc15652c64023fbf3a",
    "fig03c": "731d8e40e919791635b97d5339728043d68c1056dd90c63277c58e3223180c5e",
    "fig04": "32f3bce92e2d841d1f883b31e6b0ef772d5dba328831979e15e912b0fdb5919a",
    "fig05": "63690eb8b2320ce24e09039962dc493ecb7a8c650f58978c3e07e8050cd83ad2",
    "fig07a": "6b6ce2bb6ef1d4feb95dc8bbcfcad4faa12c06bd7b995787eee0cf71e4b11a1c",
    "fig07c": "24ee93587a8ef05752f5f3a1fb21147a131153fa86e6bcf89fd5337722783989",
    "fig08": "728e2527076a1af78c83cd31e24149009c59b4b281157cc3f854817bc0be63fb",
    "fig09": "bc2519634c2154ee48be1dd9412141016afe0ec4f886892ae4d81a9dc488c8d2",
    "fig10": "0ac3419321271bca0ecd0338c45e2b9dbdb86f04a05c686bf57f61effc757013",
    "fig11": "6f2069402f1a0e948a95c7b07dac548fa1c46605415ade4c13f90d539ab20364",
    "fig12a": "689065408e7e2ed7e3b564769cb31146a5c15cd47d27b73c4c9c487bd3e04646",
    "fig13": "e403026831a5cb05b13a847e4f9b7c0b336a6e10ad6a599cee6a96e367f85907",
    "fig14": "ad0df5abe7f55d818a86d36ef56fe56099e4e3f5367b8521484d9a362ea4e3f3",
}


@pytest.fixture(scope="module")
def figure_reports(small_result):
    """The reports of every experiment with a figure, in the form
    ``python -m repro.experiments`` hands them over: from the runner."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_SCENARIO_CACHE", "off")
        patch.setattr(
            context, "_CACHE", {resolve("small", seed=7).digest: small_result}
        )
        outcomes = run_farm("small", 7, sorted(FIGURE_RENDERERS))
    return [outcome.report for outcome in outcomes]


class TestSvgCanvas:
    def test_render_is_valid_svg(self):
        canvas = SvgCanvas(100, 50)
        canvas.line(0, 0, 10, 10)
        canvas.circle(5, 5)
        canvas.rect(1, 1, 3, 3)
        canvas.text(2, 2, "hi & <bye>")
        svg = canvas.render()
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "&amp;" in svg and "&lt;bye&gt;" in svg  # escaped

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(AnalysisError):
            SvgCanvas(0, 10)


class TestChart:
    def test_plot_before_domain_rejected(self):
        chart = Chart()
        with pytest.raises(AnalysisError):
            chart.cdf([1.0, 2.0])

    def test_bad_domain_rejected(self):
        with pytest.raises(AnalysisError):
            Chart().set_domain(1.0, 1.0, 0.0, 1.0)

    def test_cdf_monotone_and_bounded(self):
        chart = Chart()
        chart.set_domain(0.0, 10.0, 0.0, 1.0)
        chart.cdf([1.0, 2.0, 5.0, 9.0])
        svg = chart.render()
        assert "polyline" in svg

    def test_cdf_decimation(self):
        chart = Chart()
        chart.set_domain(0.0, 100_000.0, 0.0, 1.0)
        chart.cdf(list(range(1, 50_000)), max_points=500)
        svg = chart.render()
        # Decimated CDF stays compact.
        assert len(svg) < 40_000

    def test_log_scale_positions(self):
        chart = Chart(log_x=True)
        chart.set_domain(1.0, 1000.0, 0.0, 1.0)
        # In log space 10 → one third, 100 → two thirds of the width.
        x1, x10, x100, x1000 = (chart._sx(v) for v in (1, 10, 100, 1000))
        assert x10 - x1 == pytest.approx(x100 - x10, rel=0.01)
        assert x100 - x10 == pytest.approx(x1000 - x100, rel=0.01)

    def test_series_length_mismatch_rejected(self):
        chart = Chart()
        chart.set_domain(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(AnalysisError):
            chart.series([1.0, 2.0], [1.0])

    def test_legend_and_labels_rendered(self):
        chart = Chart(title="T", x_label="X", y_label="Y")
        chart.set_domain(0.0, 1.0, 0.0, 1.0)
        chart.series([0.0, 1.0], [0.0, 1.0], label="mine")
        svg = chart.render()
        for needle in ("T", "X", "Y", "mine"):
            assert needle in svg


class TestFigureRendering:
    def test_all_figures_render(self, small_result, figure_reports, tmp_path):
        written = render_figures(small_result, figure_reports, tmp_path)
        assert len(written) >= len(FIGURE_RENDERERS)
        for path in written:
            content = path.read_text()
            assert content.startswith("<svg")
            assert content.rstrip().endswith("</svg>")

    def test_subset_rendering(self, small_result, figure_reports, tmp_path):
        fig02 = [r for r in figure_reports if r.experiment_id == "fig02"]
        written = render_figures(small_result, fig02, tmp_path)
        assert [p.name for p in written] == ["fig02.svg"]

    def test_unknown_figure_skipped(self, small_result, tmp_path):
        report = ExperimentReport(experiment_id="fig99", title="no figure")
        assert render_figures(small_result, [report], tmp_path) == []

    def test_svg_bytes_are_pinned(self, small_result, figure_reports, tmp_path):
        written = render_figures(small_result, figure_reports, tmp_path)
        digests = {
            path.stem: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in written
        }
        assert digests == SVG_SHA256
