import re

import numpy as np
import pytest

from condcov import (
    Grid,
    Metric,
    Observations,
    ValidationError,
    chordal,
    chordal_distance,
    load_mesh,
    load_observations,
    regular_grid,
    save_mesh,
    save_observations,
)


def test_regular_grid_1d():
    g = regular_grid([(-1.0, 1.0)], [200])
    assert g.vertices.shape == (200, 1)
    assert np.allclose(g.weights, 0.01)
    assert abs(g.weights.sum() - 2.0) < 1e-12
    # cell centers, not endpoints
    assert np.isclose(g.vertices[0, 0], -1.0 + 0.005)
    assert np.isclose(g.vertices[-1, 0], 1.0 - 0.005)


def test_regular_grid_single_cell():
    g = regular_grid([(0.0, 1.0)], [1])
    assert g.vertices.shape == (1, 1)
    assert g.vertices[0, 0] == 0.5
    assert g.weights[0] == 1.0


def test_regular_grid_2d():
    g = regular_grid([(0.0, 1.0), (0.0, 2.0)], [10, 20])
    assert g.vertices.shape == (200, 2)
    assert np.allclose(g.weights, 0.01)
    assert abs(g.weights.sum() - 2.0) < 1e-12


def test_regular_grid_rejects_degenerate():
    with pytest.raises(ValidationError):
        regular_grid([(1.0, 1.0)], [10])
    with pytest.raises(ValidationError):
        regular_grid([(1.0, 0.0)], [10])
    with pytest.raises(ValidationError):
        regular_grid([(0.0, 1.0)], [0])
    with pytest.raises(ValidationError):
        regular_grid([(0.0, 1.0)], [10, 10])  # counts/bounds mismatch


def test_grid_distance_euclidean():
    g = regular_grid([(0.0, 1.0)], [2])
    d = g.distance_matrix()
    assert d.shape == (2, 2)
    assert d[0, 0] == 0.0
    assert np.isclose(d[0, 1], 0.5)


@pytest.mark.parametrize("a, b", [
    # a 1-d point used to broadcast over both axes: [[5.]]
    ([[0.0]], [[3.0, 4.0]]),
    ([[0.0, 0.0]], [[1.0, 2.0, 3.0]]),
    ([[1.0, 2.0, 3.0]], [[0.0]]),
])
def test_pairwise_rejects_locations_of_different_dimension(a, b):
    with pytest.raises(ValidationError, match="location dimensions differ"):
        Metric().pairwise(a, b)
    with pytest.raises(ValidationError, match="location dimensions differ"):
        chordal(6371.0).pairwise(a, b)


def test_a_2d_grid_rejects_1d_points():
    g = regular_grid([(0.0, 1.0), (0.0, 1.0)], [2, 2])
    with pytest.raises(ValidationError, match="location dimensions differ"):
        g.distance_matrix(np.array([[0.5]]))
    with pytest.raises(ValidationError, match="location dimensions differ"):
        g.distance_matrix(None, np.array([[0.5], [0.25]]))


class TestChordal:
    def test_coincident(self):
        assert chordal_distance((10.0, 20.0), (10.0, 20.0), 6371.0) == 0.0

    def test_antipodal(self):
        d = chordal_distance((0.0, 0.0), (0.0, 180.0), 6371.0)
        assert np.isclose(d, 12742.0, rtol=0, atol=1e-9)

    def test_quarter_circle(self):
        # (lat 0, lon 0) to (lat 90, lon 0): chord R*sqrt(2)
        d = chordal_distance((0.0, 0.0), (90.0, 0.0), 6371.0)
        assert np.isclose(d, 9009.95460587899, rtol=0, atol=1e-8)

    def test_chord_below_arc(self):
        rng = np.random.default_rng(7)
        R = 6371.0
        for _ in range(50):
            a = (float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180)))
            b = (float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180)))
            chord = chordal_distance(a, b, R)
            # great circle from the chord: gc = 2R asin(chord/(2R))
            gc = 2 * R * np.arcsin(min(chord / (2 * R), 1.0))
            assert chord <= gc + 1e-9

    def test_metric_on_grid(self):
        m = chordal(6371.0)
        assert m.kind == "chordal"
        g = Grid(np.array([[0.0, 0.0], [90.0, 0.0]]), np.array([1.0, 1.0]), m)
        d = g.distance_matrix()
        assert np.isclose(d[0, 1], 9009.95460587899)
        assert d[0, 0] == 0.0


def test_mesh_roundtrip(tmp_path):
    g = regular_grid([(-1.0, 1.0), (0.0, 0.5)], [7, 3])
    path = tmp_path / "mesh.csv"
    save_mesh(g, path)
    g2 = load_mesh(path)
    # 17 significant digit formatting makes the roundtrip exact
    assert np.array_equal(g.vertices, g2.vertices)
    assert np.array_equal(g.weights, g2.weights)


def test_mesh_and_observations_are_written_with_newline_line_ends(tmp_path):
    save_mesh(regular_grid([(0.0, 1.0)], [2]), tmp_path / "mesh.csv")
    assert (tmp_path / "mesh.csv").read_bytes() == b"x,weight\n0.25,0.5\n0.75,0.5\n"
    obs = [Observations(0, np.zeros((0, 2)), np.zeros(0)),
           Observations(1, [[0.5, -1.0], [2.0, 0.25]], [1.5, -2.0])]
    save_observations(obs, ["a", 'p"q'], tmp_path / "obs.csv")
    assert (tmp_path / "obs.csv").read_bytes() == (
        b'variable,x,y,value\n"p""q",0.5,-1,1.5\n"p""q",2,0.25,-2\n')
    assert load_observations(tmp_path / "obs.csv", ["a", 'p"q']) == obs


def test_files_with_crlf_line_ends_still_load(tmp_path):
    # save_mesh and save_observations ended lines with "\r\n" before they
    # went through the one table writer; such files still read back
    mesh = tmp_path / "mesh.csv"
    mesh.write_bytes(b"x,y,weight\r\n0.5,1.5,0.25\r\n-1,2,0.75\r\n")
    grid = load_mesh(mesh)
    assert grid.vertices.tolist() == [[0.5, 1.5], [-1.0, 2.0]]
    assert grid.weights.tolist() == [0.25, 0.75]
    data = tmp_path / "obs.csv"
    data.write_bytes(b"variable,x,value\r\npres,0.25,1.5\r\ntemp,0.5,-2\r\n")
    temp, pres = load_observations(data, ["temp", "pres"])
    assert (temp.locations.tolist(), temp.values.tolist()) == ([[0.5]], [-2.0])
    assert (pres.locations.tolist(), pres.values.tolist()) == ([[0.25]], [1.5])


def test_mesh_rejects_nonpositive_weight(tmp_path):
    path = tmp_path / "mesh.csv"
    path.write_text("x,weight\n0.0,1.0\n0.5,0.0\n")
    with pytest.raises(ValidationError):
        load_mesh(path)


def test_a_bad_weight_is_named_at_its_line(tmp_path):
    path = tmp_path / "mesh.csv"
    path.write_text("x,weight\n0,1\n0.5,0\n")
    with pytest.raises(ValidationError, match=re.escape(
            f"{path}: line 3: quadrature weight must be positive, got 0.0")):
        load_mesh(path)
    path.write_text("x,y,weight\n0,0,1\n\n0,1,-2\n")
    with pytest.raises(ValidationError, match=re.escape(f"{path}: line 4: ")):
        load_mesh(path)


@pytest.mark.parametrize("text, message", [
    ("x,weight\n0.5,1\n0.5,2\n", "line 3: vertex (0.5,) repeats line 2"),
    ("x,weight\n0.25,1\n\n0.5,1\n-0,1\n0.5,1\n",
     "line 6: vertex (0.5,) repeats line 4"),
    ("x,y,weight\n0,1,1\n0.5,1,1\n1,0,1\n0.5,1,2\n0,1,1\n",
     "line 5: vertex (0.5, 1.0) repeats line 3"),
    ("x,y,weight\n0,0,1\n0.5,-0,1\n0.5,0,1\n", "line 4: vertex (0.5, 0.0) "
     "repeats line 3"),
])
def test_a_repeated_vertex_names_both_lines(tmp_path, text, message):
    path = tmp_path / "mesh.csv"
    path.write_text(text)
    with pytest.raises(ValidationError, match=re.escape(f"{path}: {message}")):
        load_mesh(path)


@pytest.mark.parametrize("vertices, message", [
    ([[0.5], [0.5]], "vertex 1 (0.5,) repeats vertex 0"),
    ([[0.25], [0.5], [-0.0], [0.0]], "vertex 3 (0.0,) repeats vertex 2"),
    ([[0, 1], [0.5, 1], [1, 0], [0.5, 1]], "vertex 3 (0.5, 1.0) repeats vertex 1"),
])
def test_a_grid_rejects_a_repeated_vertex(vertices, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        Grid(vertices, np.ones(len(vertices)))


def test_observations_immutable():
    o = Observations(0, np.array([[0.1], [0.2]]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        o.values[0] = 9.0
    with pytest.raises(ValueError):
        o.locations[0, 0] = 9.0


def test_observations_shape_checks():
    with pytest.raises(ValidationError):
        Observations(0, np.array([[0.1], [0.2]]), np.array([1.0]))
    with pytest.raises(ValidationError):
        Observations(-1, np.array([[0.1]]), np.array([1.0]))


def test_observations_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    obs = [
        Observations(0, rng.uniform(-1, 1, (5, 1)), rng.normal(size=5)),
        Observations(1, rng.uniform(-1, 1, (3, 1)), rng.normal(size=3)),
    ]
    path = tmp_path / "obs.csv"
    save_observations(obs, ["temp", "pres"], path)
    back = load_observations(path, ["temp", "pres"])
    assert len(back) == 2
    for a, b in zip(obs, back):
        assert a.variable == b.variable
        assert np.array_equal(a.locations, b.locations)
        assert np.array_equal(a.values, b.values)


def test_observations_accept_index_labels(tmp_path):
    # variable column may carry the declared name or the 1-based position
    path = tmp_path / "obs.csv"
    path.write_text("variable,x,value\n1,0.25,1.5\ntemp,0.5,2.5\npres,0.75,-1.0\n")
    back = load_observations(path, ["temp", "pres"])
    assert back[0].variable == 0
    assert np.allclose(sorted(back[0].values), [1.5, 2.5])
    assert back[1].values.tolist() == [-1.0]


def test_observations_unknown_variable(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("variable,x,value\nwind,0.25,1.5\n")
    with pytest.raises(ValidationError):
        load_observations(path, ["temp", "pres"])


@pytest.mark.parametrize("over", ["longer", "shorter", "symlink"])
def test_outputs_are_rewritten_in_place(tmp_path, over):
    # over a longer or shorter file or through a symlink, the rewrite gives
    # the bytes of a fresh write and keeps the inode, the mode and the link,
    # as open(path, "w") did
    grid = regular_grid([(0.0, 1.0)], [4])
    fresh = tmp_path / "fresh.csv"
    save_mesh(grid, fresh)
    want = fresh.read_bytes()
    target = tmp_path / "target.csv"
    target.write_bytes({"longer": want * 3, "shorter": want[:7],
                        "symlink": want * 2}[over])
    target.chmod(0o640)
    path = target
    if over == "symlink":
        path = tmp_path / "link.csv"
        path.symlink_to(target)
    before = target.stat()
    save_mesh(grid, path)
    after = target.stat()
    assert target.read_bytes() == want
    assert path.is_symlink() == (over == "symlink")
    assert (after.st_mode, after.st_ino) == (before.st_mode, before.st_ino)


def test_a_rewrite_does_not_truncate_on_open(tmp_path):
    # truncating a just-written file to zero on open is what made each
    # rewrite wait on the disk; until the writer is done, the old tail stays
    from condcov.domain import _rewrite

    path = tmp_path / "out.csv"
    path.write_bytes(b"old,old,old\n")
    with _rewrite(path) as fh:
        fh.write("new")
        fh.flush()
        assert path.read_bytes() == b"new,old,old\n"
    assert path.read_bytes() == b"new"


def test_a_new_output_gets_the_mode_open_gives(tmp_path):
    plain = tmp_path / "plain.csv"
    with open(plain, "w"):
        pass
    fresh = tmp_path / "fresh.csv"
    save_mesh(regular_grid([(0.0, 1.0)], [4]), fresh)
    assert fresh.stat().st_mode == plain.stat().st_mode
