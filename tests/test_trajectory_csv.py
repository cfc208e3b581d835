"""The trajectory CSV written in chunks of rows and read without row lists.

`simulate` writes the CSV `cli.CSV_CHUNK_ROWS` time levels at a time, each
chunk from `pde.trajectory_csv` with a `rows` slice; the chunks must join
into the one-call text, and into the text of the whole-text writer kept
below.  `pde.read_trajectory_csv` must give the arrays, or the exception,
of the list-of-rows reader kept below, bit for bit.  A `simulate` through
`cli.main` must peak at a bounded number of bytes per trace float.
"""

import gc
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from wavecert import cli, pde

CHUNK = cli.CSV_CHUNK_ROWS
ODD_VALUES = [-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1.0 / 3.0, 0.1]


def whole_text_csv(trace, energies, lyapunovs=None):
    """The whole-text writer: every row string, then the joined text."""
    samples = trace.samples
    levels, columns = samples.shape
    header = "t,E,V," + ",".join("trace%d" % j for j in range(columns))
    if lyapunovs is None:
        lyapunovs = energies
    if not (np.all(np.isfinite(energies)) and np.all(np.isfinite(lyapunovs))):
        raise ValueError("non-finite energy or Lyapunov value in the trajectory")
    times = trace.t0 + np.arange(levels) * trace.dt
    table = np.column_stack((times, energies, lyapunovs, samples))
    row = ",".join(["%.17g"] * (3 + columns))
    lines = [header]
    lines.extend(row % tuple(values) for values in table.tolist())
    return "\n".join(lines) + "\n"


def list_of_rows_read(text):
    """The reader that built a list of lists of Python floats."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines:
        raise ValueError("trajectory CSV is empty")
    header = lines[0].split(",")
    width = len(header)
    if width < 4 or header != ["t", "E", "V"] + ["trace%d" % j for j in range(width - 3)]:
        raise ValueError("expected the header t,E,V,trace0,...,trace{m-1}")
    rows = []
    for number, line in enumerate(lines[1:], 1):
        cells = line.split(",")
        if len(cells) != width:
            raise ValueError("row %d carries %d values, the header names %d"
                             % (number, len(cells), width))
        rows.append([float(c) for c in cells])
    if len(rows) < 2:
        raise ValueError("trajectory needs at least two time levels")
    rows = np.array(rows)
    if not np.all(np.isfinite(rows[:, 1:3])):
        raise ValueError("trajectory E and V values must be finite")
    times = rows[:, 0]
    dts = np.diff(times)
    dt = float(dts[0])
    if not np.all(np.abs(dts - dt) <= 1e-9 * max(dt, 1.0)):
        raise ValueError("trace sample times must be uniform")
    return pde.BoundaryTrace(rows[:, 3:], dt, float(times[0])), rows[:, 1], rows[:, 2]


def odd_trajectory(levels, columns, seed):
    """A trace and series that mix signed zeros, subnormals and 1e308."""
    rng = np.random.default_rng(seed)

    def pick(*shape):
        odd = rng.choice(ODD_VALUES, size=shape)
        return np.where(rng.random(shape) < 0.5, odd, rng.normal(size=shape))

    samples = pick(levels, columns)
    samples.flat[:len(ODD_VALUES)] = ODD_VALUES[:samples.size]
    trace = pde.BoundaryTrace(samples, 1.0 / 3.0, -0.0 if seed % 2 else 0.25)
    return trace, pick(levels), pick(levels)


def chunked(trace, energies, lyapunovs, size):
    return "".join(pde.trajectory_csv(trace, energies, lyapunovs, slice(i, i + size))
                   for i in range(0, trace.steps + 1, size))


class TestChunkedWriter:
    @pytest.mark.parametrize("levels", [2, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
    @pytest.mark.parametrize("with_lyapunov", [False, True])
    def test_chunks_join_into_the_whole_text(self, levels, with_lyapunov):
        trace, energies, lyap = odd_trajectory(levels, 5, levels)
        lyap = lyap if with_lyapunov else None
        whole = pde.trajectory_csv(trace, energies, lyap)
        assert whole == whole_text_csv(trace, energies, lyap)
        assert chunked(trace, energies, lyap, CHUNK) == whole
        for size in (1, 7, levels - 1, levels, levels + 1):
            if size >= 1:
                assert chunked(trace, energies, lyap, size) == whole
        for value in (",-0,", "4.9406564584124654e-324", "e+308"):
            assert value in whole

    def test_only_the_rows_from_level_zero_carry_the_header(self):
        trace, energies, _ = odd_trajectory(5, 2, 0)
        head = pde.trajectory_csv(trace, energies, rows=slice(0, 2))
        tail = pde.trajectory_csv(trace, energies, rows=slice(2, None))
        assert head.startswith("t,E,V,trace0,trace1\n") and head.count("\n") == 3
        assert not tail.startswith("t,") and tail.count("\n") == 3

    def test_the_header_chunk_checks_the_whole_series(self):
        trace = pde.BoundaryTrace(np.zeros(5), 0.1)
        energies = np.array([0.0, 1.0, 1.0, 1.0, math.inf])
        with pytest.raises(ValueError, match="non-finite"):
            pde.trajectory_csv(trace, energies, rows=slice(0, 2))
        with pytest.raises(ValueError, match="non-finite"):
            pde.trajectory_csv(trace, energies, rows=slice(3, 5))
        assert pde.trajectory_csv(trace, energies, rows=slice(1, 3)) == (
            "0.10000000000000001,1,1,0\n0.20000000000000001,1,1,0\n")

    @pytest.mark.parametrize("mode", ["plant", "observer-forward", "observer-backward"])
    def test_simulate_writes_the_same_bytes_at_any_chunk_size(self, tmp_path, capsys,
                                                              monkeypatch, mode):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sim": {
            "points_per_axis": 21, "horizon": 0.5, "mode": mode, "k": 1.0,
            "nonlinearity": {"form": "sine", "coeff": 0.1},
            "initial": {"preset": "paper-example2"}}}))
        texts = []
        for size in (CHUNK, 1, 2, 12, 13, 14):  # the run writes 13 levels
            monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", size)
            out = tmp_path / ("trace%d.csv" % size)
            assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
            texts.append(out.read_text())
        capsys.readouterr()
        levels = texts[0].count("\n") - 1
        assert levels == 13 and texts[1:] == texts[:1] * 5


# ---------------------------------------------------------------- the reader


MALFORMED = [
    "t,E,V,trace0\n0,1,1,0,5\n0.1,1,1,0,5\n",
    "t,E,V,trace0,trace1\n0,1,1,0\n0.1,1,1,0\n",
    "t,E,V,trace0\n0,1,1,0\n0.1,1,1,0,7\n",
    "t,E,V,foo\n0,1,1,0\n0.1,1,1,0\n",
    "t,E,V,trace1\n0,1,1,0\n0.1,1,1,0\n",
    "t,E,V,trace0,trace2\n0,1,1,0,0\n0.1,1,1,0,0\n",
    "t,V,E,trace0\n0,1,1,0\n0.1,1,1,0\n",
    "t,E,V,trace0,\n0,1,1,0,\n0.1,1,1,0,\n",
    "t,E,V\n0,1,1\n0.1,1,1\n",
    "t,E,V,trace0\n0,nan,1,0\n0.1,1,1,0\n",
    "t,E,V,trace0\n0,1,1,0\n0.1,1,inf,0\n",
    "t,E,V,trace0\n0,-inf,1,0\n0.1,1,1,0\n",
    # the bad input of test_trajectory_bad_input and a few more
    "a,b\n1,2\n",
    "t,E,V,trace0\n0,1,1,0\n",
    "t,E,V,trace0\n0,1,1,0\n0.1,1,1,0\n0.3,1,1,0\n",
    "", " \t\n\x0b  ", "t,E,V,trace0", "t,E,V,trace0\n",
    "t,E,V,trace0\n0,1,1,nan\n0.1,1,1,0\n",
    "t,E,V,trace0\n0,1,1,0\n-0.1,1,1,0\n",
    "t,E,V,trace0\n0,1,1,0\n0,1,1,0\n",
    "t,E,V,trace0\n0,1,1,0\n1e308,1,1,0\n",
    # a bad float in row k ahead of a ragged row k + 1, and the other way
    "t,E,V,trace0\n0,1,1,0\n0.1,1,x,0\n0.2,1,1\n",
    "t,E,V,trace0\n0,1,1,0\n0.1,1,1\n0.2,1,x,0\n",
    "t,E,V,trace0\n0,1,1,0\n0.1,1,1,0 \n \n0.2,1,1,0\n",
    # a header of very many columns over a short row
    "t,E,V," + ",".join("trace%d" % j for j in range(100_000)) + "\n0,1,1,0\n0.1,1,1,0\n",
    # cells that float() reads or refuses in its own way
    "t,E,V,trace0\n0,1,1, 1_0 \n0.1,1,1, 2\n",
    "t,E,V,trace0\n0,1,1,1__0\n0.1,1,1,0\n",
    "t,E,V,trace0\n0,1,1,\n0.1,1,1,0\n",
    "t,E,V,trace0\n0,1,1,infinity\n0.1,1,1,0\n",
    "t,E,V,trace0\n0,1,1,\u0661\u0662\n0.1,1,1,-0\n",
    "t,E,V,trace0\n0,1,1,0\n0.1,1,1,abc  \t\n",
    "t,E,V,trace0 \n0,1,1,0\n0.1,1,1,0\n",
    "  t,E,V,trace0\n0,1,1,0\n0.1,1,1,0",
    "t,E,V,trace0\n0,1,1,0\n0.1,1,1,0\r",
    "t,E,V,trace0\r\n0,1,1,0\r\n\r\n0.1,1,1,0\r\n",
]

BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
          "\u2028", "\u2029"]
SPACES = [" ", "\t", "\x1f", "\xa0", "\u3000", "\x0b", "\n", "\r\n"]
CELLS = ["x", "", "1e", "--1", "nan", "inf", "-0", "5e-324", "1e309", " 3 ", "0x10"]


def outcome(read, text):
    """What a reader makes of text: its arrays and floats as bytes, or its error."""
    try:
        trace, energies, lyap = read(text)
    except Exception as exc:  # noqa: BLE001 - compared by type and text
        return type(exc), str(exc)
    return ("read", trace.samples.shape, trace.samples.tobytes(), float(trace.dt).hex(),
            float(trace.t0).hex(), energies.tobytes(), lyap.tobytes())


def mutated(text, rng):
    """text with its line breaks, blank lines, edges and one cell or row varied."""
    lines = text.split("\n")[:-1]
    kind = rng.integers(6)
    if kind == 1 and len(lines) > 1:  # one cell of a data row
        k = rng.integers(1, len(lines))
        cells = lines[k].split(",")
        cells[rng.integers(len(cells))] = str(rng.choice(CELLS))
        lines[k] = ",".join(cells)
    elif kind == 2 and len(lines) > 1:  # one row a value short or long
        k = rng.integers(1, len(lines))
        lines[k] = lines[k] + ",0" if rng.random() < 0.5 else lines[k].rsplit(",", 1)[0]
    elif kind == 3:  # blank and whitespace-only lines
        for _ in range(rng.integers(1, 4)):
            lines.insert(rng.integers(len(lines) + 1), "".join(rng.choice(SPACES, 2)))
    out = ""
    for line in lines:
        out += line + str(rng.choice(BREAKS))
    if rng.random() < 0.5:
        out = "".join(rng.choice(SPACES, rng.integers(1, 4))) + out
    if rng.random() < 0.5:
        out += "".join(rng.choice(SPACES, rng.integers(1, 4)))
    return out


def seeded_texts(seed):
    """A good file of the old writer's and twelve variations of it."""
    rng = np.random.default_rng(seed)
    levels, columns = int(rng.integers(2, 9)), int(rng.integers(1, 5))
    trace, energies, lyap = odd_trajectory(levels, columns, seed)
    good = whole_text_csv(trace, energies, lyap)
    return [good] + [mutated(good, rng) for _ in range(12)]


SEEDS = range(40)


def test_corpus_holds_both_answers():
    texts = MALFORMED + [text for seed in SEEDS for text in seeded_texts(seed)]
    kinds = [outcome(list_of_rows_read, text)[0] for text in texts]
    assert kinds.count("read") > 100 and kinds.count(ValueError) > 100


@pytest.mark.parametrize("text", MALFORMED, ids=range(len(MALFORMED)))
def test_reader_refuses_as_the_list_of_rows_reader(text):
    assert outcome(pde.read_trajectory_csv, text) == outcome(list_of_rows_read, text)


@pytest.mark.parametrize("seed", SEEDS)
def test_reader_matches_the_list_of_rows_reader(seed):
    for text in seeded_texts(seed):
        assert outcome(pde.read_trajectory_csv, text) == outcome(list_of_rows_read, text), text


def test_a_good_file_reads_back_bit_for_bit():
    trace, energies, lyap = odd_trajectory(CHUNK + 3, 4, 7)
    back, e, v = pde.read_trajectory_csv(chunked(trace, energies, lyap, CHUNK))
    assert back.samples.tobytes() == trace.samples.tobytes()
    assert e.tobytes() == energies.tobytes() and v.tobytes() == lyap.tobytes()


def test_a_wide_header_over_short_rows_is_refused_before_any_array():
    # 20,000 header columns over 50,000 rows of 4 values: an array sized
    # from the header and the row count would take 8 GB
    text = ("t,E,V," + ",".join("trace%d" % j for j in range(20_000)) + "\n"
            + "0,1,1,0\n" * 50_000)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(
                "row 1 carries 4 values, the header names 20003")):
            pde.read_trajectory_csv(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6, peak


# ------------------------------------------------------------ simulate memory


@pytest.mark.parametrize("mode", ["plant", "observer-forward"])
def test_simulate_memory_per_trace_float(tmp_path, capsys, mode):
    # a mid-size 2-D simulate: 4,715 steps over 29 measured nodes, 136,764
    # trace floats, of which the run's trace array itself takes 8 bytes
    # each; a run a quarter as long gives the bytes per further trace float
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "trace.csv"
    peaks, floats = [], []
    for horizon in (50.0, 200.0):  # 1,179 and 4,715 steps
        cfg.write_text(json.dumps({"sim": {
            "dim": 2, "points_per_axis": 16, "horizon": horizon, "mode": mode, "k": 1.0,
            "initial": {"fourier-sine": {"z": [[0.2, 0.05], [0.05, 0.02]],
                                         "zt": [[0.1, 0.0], [0.0, 0.05]]}}}}))
        gc.collect()
        tracemalloc.start()
        try:
            code = cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
        floats.append(pde.read_trajectory_csv(out.read_text())[0].samples.size)
    capsys.readouterr()
    assert floats == [34220, 136764]
    assert peaks[1] / floats[1] < 20.0, peaks[1] / floats[1]
    further = (peaks[1] - peaks[0]) / (floats[1] - floats[0])
    assert further < 10.0, further
