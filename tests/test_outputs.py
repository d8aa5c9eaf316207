import hashlib
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from nf_aliaser import (
    ComplexField,
    EvalGrid,
    GridError,
    Scene,
    WaveParams,
    aliasing_mask,
    bistatic_image,
    build_uniform_array,
    magnitude_db,
    partial_image,
)
from nf_aliaser import outputs
from nf_aliaser.floatfmt import python_formatted
from nf_aliaser.outputs import (
    PAIR_ROWS,
    _grid_comments,
    _pgm_text,
    _write_pairs_csv,
    fmt,
    write_field_csv,
    write_field_pgm,
    write_manifest,
    write_mask_csv,
    write_mask_pgm,
    write_spectrum_csv,
)

WAVE = WaveParams(1.0)


def test_fmt_17_significant_digits_round_trip():
    values = [np.pi, 1.0 / 3.0, 6.02214076e23, -4.9e-324, 0.1]
    for v in values:
        assert float(fmt(v)) == v
    assert fmt(np.inf) == "inf"


def test_pgm_orientation_peak_row(tmp_path):
    # peak at max-y cell must land on the first pixel row (y up)
    grid = EvalGrid([0.0, 0.0], [3.0, 3.0], (3, 3))
    values = np.full((3, 3), 0.001, dtype=np.complex128)
    values[1, 2] = 1.0  # x index 1, y index 2 (top row)
    field = ComplexField(grid=grid, values=values,
                         excluded=np.zeros((3, 3), bool))
    path = tmp_path / "f.pgm"
    write_field_pgm(path, "f", field, -40.0)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[2] == "3 3" and lines[3] == "255"
    top_row = [int(v) for v in lines[4].split()]
    assert top_row == [0, 255, 0]


def test_mask_pgm_binary(tmp_path):
    mask = np.array([[True, False], [False, True]])
    path = tmp_path / "m.pgm"
    write_mask_pgm(path, "m", mask)
    body = path.read_text().splitlines()[4:]
    assert body == ["0 255", "255 0"]


def test_field_csv_row_major_and_excluded_count(tmp_path):
    grid = EvalGrid([0.0, 0.0], [2.0, 2.0], (2, 2))
    values = np.array([[1 + 1j, 2 + 0j], [0j, 3 - 1j]])
    excluded = np.array([[False, False], [True, False]])
    field = ComplexField(grid=grid, values=values, excluded=excluded)
    path = tmp_path / "f.csv"
    write_field_csv(path, "f", field, 1.0)
    text = path.read_text()
    assert "# excluded_cells: 1" in text
    rows = [l for l in text.splitlines() if not l.startswith("#")]
    assert rows == ["1,1", "2,0", "0,0", "3,-1"]


def test_mask_intersection_of_per_array_conjunctions():
    spacing = 500.0 / 64
    tx = build_uniform_array([500.0 - 63 / 2 * spacing, 0.0], [[1, 0]], [64],
                             [spacing], "transmit")
    rx = build_uniform_array([0.0, 500.0 - 63 / 2 * spacing], [[0, 1]], [64],
                             [spacing], "receive")
    grid = EvalGrid([150.0, 150.0], [1850.0, 1850.0], (32, 32))
    mask = aliasing_mask(tx, rx, Scene([1000.0, 1000.0]), WAVE, grid)

    def per_array(label):
        free = [layer.free for layer in mask.layers if layer.array_label == label]
        return np.logical_and.reduce(free) & ~mask.excluded

    np.testing.assert_array_equal(mask.combined, per_array("tx") & per_array("rx"))
    # per-array regions differ from each other and from the intersection
    assert per_array("tx").sum() > mask.combined.sum()
    assert per_array("rx").sum() > mask.combined.sum()


def test_pgm_rejects_non_2d():
    grid = EvalGrid([0.0], [2.0], (4,))
    field = ComplexField(grid=grid, values=np.ones(4, dtype=np.complex128),
                         excluded=np.zeros(4, bool))
    with pytest.raises(ValueError):
        write_field_pgm("unused.pgm", "f", field, -40.0)


# Per-value references: the writers' bytes as formatted one value at a time
# with fmt / str(int(v)).
EDGE_FLOATS = [-0.0, 5e-324, 1e308, 0.1, np.inf, -np.inf, -5e-324, 1.0, -1e-308]


def _reference_text(head: list, rows: list) -> str:
    return "\n".join(head + rows) + "\n"


def _reference_pgm(pixels, comment):
    width, height = pixels.shape
    rows = [" ".join(str(int(v)) for v in pixels[:, j]) for j in range(height - 1, -1, -1)]
    return f"P2\n# {comment}\n{width} {height}\n255\n" + "\n".join(rows) + "\n"


def _edge_values(rng, shape):
    n = int(np.prod(shape))
    re = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    im = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    m = min(n, len(EDGE_FLOATS))
    re[:m] = EDGE_FLOATS[:m]
    im[:m] = EDGE_FLOATS[::-1][:m]
    values = np.empty(n, dtype=np.complex128)
    values.real, values.imag = re, im
    return values.reshape(shape)


# A 1x1 grid stands in as a plain namespace: EvalGrid needs two cells per axis.
GRIDS = {
    "1x1": SimpleNamespace(corner_min=np.zeros(2), corner_max=np.ones(2), resolution=(1, 1)),
    "3x5": EvalGrid([0.0, -1.0], [3.0, 4.0], (3, 5)),
    "80x61": EvalGrid([0.5, 0.0], [1.5, 2.0], (80, 61)),
}
# The field CSV is written PAIR_ROWS rows at a time; 80x61 spans several writes.
assert 80 * 61 > PAIR_ROWS


@pytest.mark.parametrize("grid_name", sorted(GRIDS))
class TestWriterBytes:
    def test_field_csv(self, tmp_path, grid_name):
        grid = GRIDS[grid_name]
        values = _edge_values(np.random.default_rng(3), grid.resolution)
        excluded = np.zeros(grid.resolution, bool)
        path = tmp_path / "f.csv"
        write_field_csv(path, "f", ComplexField(grid=grid, values=values, excluded=excluded),
                        0.5)
        head = ["# nf-aliaser f", *_grid_comments(grid, 0.5), "# excluded_cells: 0",
                "# columns: re,im"]
        rows = [f"{fmt(v.real)},{fmt(v.imag)}" for v in values.ravel()]
        assert path.read_bytes() == _reference_text(head, rows).encode("ascii")

    def test_mask_csv_and_pgm(self, tmp_path, grid_name):
        grid = GRIDS[grid_name]
        mask = np.random.default_rng(5).random(grid.resolution) < 0.5
        write_mask_csv(tmp_path / "m.csv", "m", mask, grid, 0.5)
        head = ["# nf-aliaser m", *_grid_comments(grid, 0.5), "# columns: aliasing_free"]
        rows = [str(int(v)) for v in mask.ravel()]
        assert (tmp_path / "m.csv").read_bytes() == _reference_text(head, rows).encode("ascii")
        write_mask_pgm(tmp_path / "m.pgm", "m", mask)
        expected = _reference_pgm(np.where(mask, 255, 0), "nf-aliaser m")
        assert (tmp_path / "m.pgm").read_bytes() == expected.encode("ascii")

    def test_field_pgm(self, tmp_path, grid_name):
        grid = GRIDS[grid_name]
        rng = np.random.default_rng(7)
        values = rng.normal(size=grid.resolution) * np.exp(rng.uniform(-6, 0, grid.resolution))
        field = ComplexField(grid=grid, values=values.astype(complex),
                             excluded=np.zeros(grid.resolution, bool))
        write_field_pgm(tmp_path / "f.pgm", "f", field, -40.0)
        db = magnitude_db(field, -40.0)
        pixels = np.rint((db + 40.0) * (255.0 / 40.0)).astype(int)
        expected = _reference_pgm(pixels, "nf-aliaser f")
        assert (tmp_path / "f.pgm").read_bytes() == expected.encode("ascii")


# The PGM encoder against _reference_pgm: every gray level, rows of one cell,
# rows wider than the level count, and constant masks.
@pytest.mark.parametrize("width", [1, 2, 255, 383])
def test_pgm_every_level(width):
    height = -(-256 // width)
    pixels = np.resize(np.arange(256), width * height).reshape(width, height)
    assert set(pixels.ravel()) == set(range(256))
    assert _pgm_text(pixels, "levels") == _reference_pgm(pixels, "levels").encode("ascii")


@pytest.mark.parametrize("value", [False, True])
def test_mask_pgm_constant(tmp_path, value):
    mask = np.full((7, 4), value)
    write_mask_pgm(tmp_path / "m.pgm", "m", mask)
    expected = _reference_pgm(np.where(mask, 255, 0), "nf-aliaser m")
    assert (tmp_path / "m.pgm").read_bytes() == expected.encode("ascii")


@pytest.mark.parametrize("level", [-1, 256])
def test_pgm_level_out_of_range(tmp_path, monkeypatch, level):
    pixels = np.zeros((3, 2), dtype=int)
    pixels[1, 1] = level
    with pytest.raises(ValueError, match="0..255"):
        _pgm_text(pixels, "bad")
    # A magnitude_db outside [floor_db, 0] rounds to that level.
    grid = EvalGrid([0.0, 0.0], [3.0, 2.0], (3, 2))
    field = ComplexField(grid=grid, values=np.ones((3, 2), complex),
                         excluded=np.zeros((3, 2), bool))
    monkeypatch.setattr(outputs, "magnitude_db",
                        lambda f, floor_db: floor_db + pixels * (-floor_db / 255.0))
    with pytest.raises(ValueError, match="0..255"):
        write_field_pgm(tmp_path / "f.pgm", "f", field, -40.0)
    assert not (tmp_path / "f.pgm").exists()


def test_field_pgm_refuses_non_finite(tmp_path):
    grid = EvalGrid([0.0, 0.0], [4.0, 4.0], (4, 4))
    values = np.ones((4, 4), complex)
    values[2, 1] = np.nan
    field = ComplexField(grid=grid, values=values, excluded=np.zeros((4, 4), bool))
    with pytest.raises(GridError, match="non-finite"):
        write_field_pgm(tmp_path / "f.pgm", "f", field, -40.0)
    assert not (tmp_path / "f.pgm").exists()


def test_spectrum_csv_bytes(tmp_path):
    rng = np.random.default_rng(11)
    magnitude = np.abs(rng.normal(size=len(EDGE_FLOATS)))
    magnitude[2] = 0.0
    support = SimpleNamespace(frequencies=np.array(EDGE_FLOATS), magnitude=magnitude,
                              axis=1, support_max=0.1)
    write_spectrum_csv(tmp_path / "s.csv", "s", support, 0.5)
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(magnitude / magnitude.max())
    head = ["# nf-aliaser s", "# wavelength: 0.5", "# axis_index: 1",
            "# support_max: 0.10000000000000001", "# columns: wavenumber,magnitude_db"]
    rows = [f"{fmt(f)},{fmt(v)}" for f, v in zip(support.frequencies, db)]
    assert (tmp_path / "s.csv").read_bytes() == _reference_text(head, rows).encode("ascii")


# Differential checks of the vectorized pair writer against "%.17g" applied to
# one value at a time.
def _check_pairs(tmp_path, values):
    x = np.asarray(values, dtype=np.float64).ravel()
    if len(x) % 2:
        x = np.append(x, 0.5)
    pairs = x.reshape(-1, 2)
    path = tmp_path / "pairs.csv"
    _write_pairs_csv(path, ["# head"], pairs)
    expected = ["# head"] + ["%.17g,%.17g" % (a, b) for a, b in pairs.tolist()]
    assert path.read_text(encoding="ascii").split("\n") == expected + [""]


def _with_neighbours(values):
    v = np.asarray(values, dtype=np.float64)
    v = np.concatenate([v, -v])
    return np.concatenate([v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)])


BIG = np.finfo(np.float64).max
PAIR_CASES = {
    # Special values next to ordinary ones, within a row and across rows.
    "special": [v for s in (0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                            BIG, -BIG, 2.2250738585072014e-308, 1e-300, 1e-280, 1e280)
                for v in (s, 0.1, 0.1, s)],
    "powers_of_ten": _with_neighbours([float(f"1e{k}") for k in range(-30, 31)]
                                      + [10.0 ** k for k in range(-30, 31)]),
    "round_up_to_next_decade": _with_neighbours(
        [float(f"9.9999999999999999e{k}") for k in range(-30, 31)]
        + [float(f"9.99999999999999995e{k}") for k in range(-30, 31)]),
    "style_boundaries": _with_neighbours([1e-4, 1e-5, 1e16, 1e17, 1e18, 0.000123456789,
                                          123456789012345678.0]),
    # Exact halves at the 17th digit: (2**52 + 1) / 4 ends in .25 and
    # (2**52 + 3) / 8 in .375; 3 * 2**-24 and 2**-25 are halves at 10**23, 10**24.
    "exact_ties": _with_neighbours([(2 ** 52 + 1) / 4, (2 ** 52 + 3) / 8, (2 ** 52 + 5) / 4,
                                    3 * 2.0 ** -24, 2.0 ** -25, 3 * 2.0 ** -25, 0.5, 2.5e-5]),
    "random_bit_patterns": np.random.default_rng(7).integers(
        0, 2 ** 64, size=20_000, dtype=np.uint64).view(np.float64),
}


@pytest.mark.parametrize("case", sorted(PAIR_CASES))
def test_pairs_match_per_value_format(tmp_path, case):
    _check_pairs(tmp_path, PAIR_CASES[case])


def test_pairs_seeded_every_decade(tmp_path):
    rng = np.random.default_rng(2024)
    decades = np.arange(-324, 309)
    mantissa = rng.uniform(1.0, 10.0, size=(len(decades), 316))
    with np.errstate(over="ignore"):
        values = mantissa * 10.0 ** decades[:, None].astype(float)
    values *= rng.choice([-1.0, 1.0], size=values.shape)
    assert values.size > 200_000
    _check_pairs(tmp_path, rng.permutation(values.ravel()))


def test_pairs_python_formatted_count():
    values = [0.0, -0.0, 1.0, 0.1, np.inf, np.nan, 5e-324, 1e-300, 1e300, 2.0 ** -25]
    assert python_formatted(values) == 6


# The fig1 geometry on its 255 x 255 grid.
FIG1_SPACING = 500.0 / 64
FIG1_TX = build_uniform_array([500.0 - 63 / 2 * FIG1_SPACING, 0.0], [[1, 0]], [64],
                              [FIG1_SPACING], "transmit")
FIG1_RX = build_uniform_array([0.0, 500.0 - 63 / 2 * FIG1_SPACING], [[0, 1]], [64],
                              [FIG1_SPACING], "receive")
FIG1_SCENE = Scene([1000.0, 1000.0])
FIG1_GRID = EvalGrid([150.0, 150.0], [1850.0, 1850.0], (255, 255))
# Three whole-grid float arrays.
THREE_GRIDS = 3 * 8 * FIG1_GRID.num_cells


def _traced_peak(call):
    """Peak bytes the interpreter and numpy allocate during call(), after one
    untraced warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Each stage holds at most one whole-grid buffer besides what it returns.
class TestStagePeaks:
    @pytest.fixture(scope="class")
    def image(self):
        tx, rx = (partial_image(a, FIG1_SCENE, WAVE, FIG1_GRID) for a in (FIG1_TX, FIG1_RX))
        return bistatic_image(tx, rx, 1.0)

    def test_manifest_hashes_in_chunks(self, tmp_path):
        product = tmp_path / "big.bin"
        data = np.arange(1 << 20, dtype=np.float64).tobytes()
        product.write_bytes(data)
        expected = hashlib.sha256(data).hexdigest()
        del data
        peak = _traced_peak(lambda: write_manifest(tmp_path / "manifest.json", "0", {},
                                                   {"big": product}))
        assert product.stat().st_size == 8 << 20
        assert peak < 1 << 20
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["products"][0]["sha256"] == expected

    def test_bistatic_image_holds_only_its_product(self, image):
        product = image.values.nbytes + image.excluded.nbytes
        assert _traced_peak(lambda: bistatic_image(image, image, 1.0)) <= 1.05 * product

    def test_field_pgm(self, tmp_path, image):
        peak = _traced_peak(lambda: write_field_pgm(tmp_path / "f.pgm", "f", image, -60.0))
        assert peak < THREE_GRIDS

    def test_aliasing_mask(self):
        peak = _traced_peak(lambda: aliasing_mask(FIG1_TX, FIG1_RX, FIG1_SCENE, WAVE,
                                                  FIG1_GRID, threads=1))
        assert peak < THREE_GRIDS
