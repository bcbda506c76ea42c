"""Tests for synthetic score workloads and the score-driven evaluator."""

import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from zipvl import budget, numkit, workload
from zipvl.engine import SparsityPolicy
from zipvl.errors import ConfigError, DomainError, FormatError


def _csv_text(scores) -> str:
    buf = io.StringIO()
    workload.write_workload_csv(buf, scores)
    return buf.getvalue()


class TestGenerate:
    def test_shapes_and_mass(self):
        scores = workload.generate_workload("peaked", 100, 3, 8.0, seed=1)
        assert scores.shape == (3, 100)
        assert scores.dtype == np.float32
        assert np.all(scores >= 0)
        for row in scores:
            assert abs(float(row.sum()) - 100.0) <= 1e-3 * 100

    def test_deterministic(self):
        a = workload.generate_workload("diffuse", 50, 2, 4.0, seed=7)
        b = workload.generate_workload("diffuse", 50, 2, 4.0, seed=7)
        assert np.array_equal(a, b)

    def test_peaked_concentrates_mass(self):
        # at matched concentration the top-10 tokens hold most of a peaked
        # row's mass and a sliver of a diffuse row's (10/200 = 5% baseline)
        peaked = workload.generate_workload("peaked", 200, 1, 16.0, seed=3)[0]
        diffuse = workload.generate_workload("diffuse", 200, 1, 16.0, seed=3)[0]
        top10 = lambda v: float(np.sort(v)[::-1][:10].sum()) / float(v.sum())
        assert top10(peaked) > 0.5
        assert top10(diffuse) < 0.1

    def test_infinite_concentration_is_uniform(self):
        scores = workload.generate_workload("diffuse", 64, 2, float("inf"), seed=9)
        assert np.all(scores == 1.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            workload.generate_workload("spiky", 10, 1, 1.0, seed=0)
        with pytest.raises(DomainError):
            workload.generate_workload("peaked", 0, 1, 1.0, seed=0)
        with pytest.raises(DomainError):
            workload.generate_workload("peaked", 10, 1, 0.0, seed=0)
        # a tiny concentration overflows the draws (NaN rows) or the row sum (all-zero rows)
        for kind in workload.KINDS:
            for n, concentration in [(16, 1e-320), (16384, 1e-306)]:
                with pytest.raises(DomainError, match="layer 0 has no finite nonzero mass"):
                    workload.generate_workload(kind, n, 2, concentration, seed=0)


class TestCsvRoundTrip:
    def test_roundtrip_bitwise(self):
        scores = workload.generate_workload("peaked", 40, 3, 8.0, seed=2)
        text = _csv_text(scores)
        back = workload.read_workload_csv(io.StringIO(text))
        assert np.array_equal(back, scores)

    def test_header_enforced(self):
        with pytest.raises(FormatError):
            workload.read_workload_csv(io.StringIO("a,b,c\n0,0,1.0\n"))

    def test_ragged_rejected(self):
        # a short last layer: the line its missing row would hold is named
        text = "layer,token,score\n0,0,1.0\n0,1,1.0\n1,0,1.0\n"
        with pytest.raises(FormatError, match=r"^line 5: workload rows are ragged: layer 1 ends"):
            workload.read_workload_csv(io.StringIO(text))

    def test_ragged_short_layer_names_the_next_layers_first_line(self):
        rows = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
        text = "layer,token,score\n" + "".join(f"{a},{b},1.0\n" for a, b in rows)
        with pytest.raises(FormatError) as err:
            workload.read_workload_csv(io.StringIO(text))
        assert str(err.value) == (
            "line 7: workload rows are ragged: layer 1 ends after 2 of layer 0's 3 tokens"
        )

    def test_ragged_long_layer_names_its_first_extra_row(self):
        rows = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (1, 3), (2, 0)]
        text = "layer,token,score\n" + "".join(f"{a},{b},1.0\n" for a, b in rows)
        with pytest.raises(FormatError) as err:
            workload.read_workload_csv(io.StringIO(text))
        assert str(err.value) == (
            "line 8: workload rows are ragged: layer 1 runs past layer 0's 3 tokens"
        )

    def test_out_of_order_rejected(self):
        text = "layer,token,score\n0,1,1.0\n0,0,1.0\n"
        with pytest.raises(FormatError):
            workload.read_workload_csv(io.StringIO(text))

    def test_non_numeric_rejected(self):
        text = "layer,token,score\n0,0,abc\n"
        with pytest.raises(FormatError):
            workload.read_workload_csv(io.StringIO(text))

    def test_empty_rejected(self):
        with pytest.raises(FormatError):
            workload.read_workload_csv(io.StringIO("layer,token,score\n"))


class _Unseekable(io.StringIO):
    """Text the reader cannot rewind, so it parses it row by row."""

    def seekable(self):
        return False


def _read_outcome(fh):
    """The array read_workload_csv returns for fh, or the type and text of its error."""
    try:
        return workload.read_workload_csv(fh)
    except (FormatError, csv.Error) as exc:
        return f"{type(exc).__name__}: {exc}"


def _same(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _replace_line(i, line):
    def mutate(text):
        lines = text.splitlines(keepends=True)
        lines[i] = line
        return "".join(lines)

    return mutate


def _join_line(i, sep):
    """End line i with sep instead of its newline, so it runs on into line i + 1."""

    def mutate(text):
        lines = text.splitlines(keepends=True)
        lines[i] = lines[i][:-1] + sep
        return "".join(lines)

    return mutate


# str.splitlines ends a line at each of these; readlines and csv do not
SPLITLINES_ONLY = {
    "vertical tab": "\x0b",
    "form feed": "\x0c",
    "file separator": "\x1c",
    "group separator": "\x1d",
    "record separator": "\x1e",
    "next line": "\x85",
    "line separator": "\u2028",
    "paragraph separator": "\u2029",
}

# each turns a valid 3x4 workload CSV into one the batched parser must read
# as the row parser does; rows 1-4 are layer 0, rows 5-8 layer 1
MUTATIONS = {
    "unchanged": lambda t: t,
    "blank line in the middle": _replace_line(5, "\n1,0,1.0\n"),
    "trailing blank line": lambda t: t + "\n",
    "no final newline": lambda t: t[:-1],
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "cr only": lambda t: t.replace("\n", "\r"),
    "lone cr inside a line": _replace_line(2, "0,1,\r2.0\n"),
    "quoted fields": _replace_line(3, '"0","2","2.5"\n'),
    "surrounding spaces": _replace_line(3, " 0 , 2 , 2.5 \n"),
    "plus sign": _replace_line(3, "+0,+2,+2.5\n"),
    "underscore digit": _replace_line(3, "0,2,1_0\n"),
    "hash": _replace_line(3, "0,2,2.5 # note\n"),
    "hash line": _replace_line(3, "#\n"),
    "nan": _replace_line(3, "0,2,nan\n"),
    "inf": _replace_line(3, "0,2,inf\n"),
    "negative zero": _replace_line(3, "0,2,-0.0\n"),
    "float64 overflow": _replace_line(3, "0,2,1e400\n"),
    "float32 overflow": _replace_line(3, "0,2,3.5e38\n"),
    "negative score": _replace_line(3, "0,2,-1e-3\n"),
    "full-width digit": _replace_line(3, "0,\uff12,2.5\n"),
    "control character": _replace_line(3, "0,\x1c2,2.5\n"),
    "float token": _replace_line(3, "0,2.0,2.5\n"),
    "exponent token": _replace_line(3, "0,2e0,2.5\n"),
    "ragged layer": _replace_line(8, ""),
    "long layer": _replace_line(8, "1,3,1.0\n1,4,1.0\n"),
    "out of order": _replace_line(3, "0,3,1.0\n"),
    "layer skipped": lambda t: t.replace("\n2,", "\n3,"),
    "first row in layer 1": lambda t: t.replace("\n0,", "\n1,", 1),
    "field too many": _replace_line(3, "0,2,2.5,\n"),
    "field too few": _replace_line(3, "0,2\n"),
    "header only": lambda t: t.splitlines(keepends=True)[0],
    "quoted header": lambda t: t.replace("layer,token,score", '"layer","token","score"', 1),
    "bad header": lambda t: t.replace("layer", "layers", 1),
    **{f"{name} between rows": _join_line(3, sep) for name, sep in SPLITLINES_ONLY.items()},
}


class TestBatchedReader:
    BASE = _csv_text(
        np.array([[4.0, 2.5, 1e-5, 0.0], [1.0, 1.0, 3.0, 1.5], [0.25, 2.0, 1.25, 3.0]])
    )

    # 1 character makes a batch of each line, 40 batches of a few rows that
    # layers span; a warning, such as numpy's on a batch of blank lines, fails
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("batch_chars", [1, 40, workload._BATCH_CHARS])
    @pytest.mark.parametrize("name", MUTATIONS)
    def test_matches_row_parser(self, name, batch_chars, tmp_path, monkeypatch):
        monkeypatch.setattr(workload, "_BATCH_CHARS", batch_chars)
        text = MUTATIONS[name](self.BASE)
        # newline="" splits lines at \r too; the CLI opens workload files so
        for newline in ("\n", ""):
            expect = _read_outcome(_Unseekable(text, newline=newline))
            assert _same(_read_outcome(io.StringIO(text, newline=newline)), expect)
        path = tmp_path / "w.csv"
        path.write_bytes(text.encode())
        with open(path, "r", newline="") as fh:
            assert _same(_read_outcome(fh), _read_outcome(_Unseekable(text, newline="")))

    @pytest.mark.parametrize("sep", SPLITLINES_ONLY.values())
    def test_splitlines_only_separator_joins_two_rows(self, sep):
        # one line of 5 fields, not two rows, so a reader that splits with
        # str.splitlines would accept what the row parser rejects
        text = _join_line(3, sep)(self.BASE)
        assert workload._read_valid(io.StringIO(text, newline="")) is None
        with pytest.raises(FormatError, match="^line 4: expected 3 fields, got 5$"):
            workload.read_workload_csv(io.StringIO(text, newline=""))

    @pytest.mark.parametrize("batch_chars", [40, workload._BATCH_CHARS])
    def test_valid_file_skips_the_row_parser(self, monkeypatch, batch_chars):
        def row_parser(fh):
            raise AssertionError("row parser ran")

        scores = workload.generate_workload("peaked", 300, 3, 8.0, seed=4)
        monkeypatch.setattr(workload, "_read_rows", row_parser)
        monkeypatch.setattr(workload, "_BATCH_CHARS", batch_chars)
        back = workload.read_workload_csv(io.StringIO(_csv_text(scores)))
        assert np.array_equal(back, scores)


# zero, subnormals, the smallest normal, the largest finite, a tie at the ninth
# digit (2^-13 = 0.0001220703125), and values on either side of the exponents
# below -4 or at least 9, where "%.9g" switches to exponent form
special_scores = st.sampled_from(
    [
        float(np.float32(x))
        for x in (
            0.0, 1e-45, 1e-40, 1.1754944e-38, 5e-5, 9.9e-5, 2.0**-13, 1.0,
            123456789.0, 1e9, 3.4028235e38,
        )
    ]
)


def grid_shapes(min_side):
    return hnp.array_shapes(min_dims=2, max_dims=2, min_side=min_side, max_side=12)


class _CountingSink:
    """A text sink that keeps only the number of characters written."""

    chars = 0

    def write(self, text):
        self.chars += len(text)


class TestWriter:
    def test_holds_one_layer_of_floats_at_a_time(self):
        scores = workload.generate_workload("peaked", 16384, 32, 8.0, seed=3)
        sink = _CountingSink()
        tracemalloc.start()
        try:
            workload.write_workload_csv(sink, scores)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.chars == len(_csv_text(scores))
        # the whole array as Python floats is 32 x 16384 x 24 B = 12 MiB, plus the lists
        assert peak < 4 * 2**20

    @given(hnp.arrays(np.float32, grid_shapes(0), elements=special_scores | st.floats(width=32)))
    @settings(max_examples=100, deadline=None)
    def test_property_bytes_match_rowwise_writer(self, scores):
        expect = io.StringIO()
        oracles.write_workload_csv_rowwise(expect, scores)
        got = io.StringIO()
        workload.write_workload_csv(got, scores)
        assert got.getvalue() == expect.getvalue()

    @given(
        hnp.arrays(
            np.float32,
            grid_shapes(1),
            elements=special_scores | st.floats(0.0, allow_infinity=False, width=32),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_property_roundtrip_bitwise(self, scores):
        back = workload.read_workload_csv(io.StringIO(_csv_text(scores)))
        assert back.tobytes() == scores.tobytes()


def _float32_patterns() -> np.ndarray:
    """About 1e5 random finite nonnegative float32 bit patterns and the format's edges.

    The edges are 0 and every pattern below 2^16, the patterns within 4096
    ulps of the smallest normal, each power of two +-3 ulps and the top
    65536 finite patterns.
    """
    top = 0x7F7FFFFF  # the largest finite float32
    powers = np.concatenate([1 << np.arange(23), np.arange(1, 255) << 23])
    bits = np.concatenate(
        [
            np.arange(1 << 16),
            np.arange(0x00800000 - 4096, 0x00800000 + 4097),
            (powers[:, None] + np.arange(-3, 4)).ravel(),
            np.arange(top - 65535, top + 1),
            numkit.make_rng(32).integers(0, top + 1, size=100_000),
        ]
    )
    return np.unique(np.clip(bits, 0, top)).astype(np.uint32).view(np.float32)


class TestFloat32Text:
    """Nine significant digits bring every float32 back; more digits read the same."""

    def test_nine_digits_round_trip_sampled_patterns(self):
        scores = _float32_patterns()
        back = np.array([float("%.9g" % x) for x in scores.tolist()]).astype(np.float32)
        assert back.tobytes() == scores.tobytes()
        read = workload.read_workload_csv(io.StringIO(_csv_text(scores[None, :])))
        assert read.tobytes() == scores.tobytes()

    def test_repr_digits_read_as_nine_digits(self):
        # a file of the older format, each score the repr of its float64 widening
        scores = _float32_patterns()[None, :]
        text = "layer,token,score\n" + "".join(
            f"0,{token},{v!r}\n" for token, v in enumerate(scores[0].tolist())
        )
        assert text != _csv_text(scores)
        old = workload.read_workload_csv(io.StringIO(text))
        assert old.tobytes() == workload.read_workload_csv(io.StringIO(_csv_text(scores))).tobytes()
        assert old.tobytes() == scores.tobytes()


class TestEvaluate:
    def test_adaptive_budgets_match_oracle(self):
        scores = workload.generate_workload("peaked", 80, 4, 8.0, seed=5)
        pol = SparsityPolicy(mode="zipvl-exact", tau=0.9)
        reports = workload.evaluate_score_workload(scores, pol)
        assert len(reports) == 4
        for layer, r in enumerate(reports):
            vec = scores[layer]
            mass = float(np.sum(vec, dtype=np.float64))
            assert r.p == oracles.budget_oracle(vec, 0.9, mass)
            assert r.retained_mass >= 0.9 - 1e-12

    def test_peaked_needs_fewer_tokens_than_diffuse(self):
        peaked = workload.generate_workload("peaked", 128, 2, 16.0, seed=6)
        diffuse = workload.generate_workload("diffuse", 128, 2, 16.0, seed=6)
        pol = SparsityPolicy(mode="zipvl-exact", tau=0.9)
        p_peaked = np.mean([r.p for r in workload.evaluate_score_workload(peaked, pol)])
        p_diffuse = np.mean([r.p for r in workload.evaluate_score_workload(diffuse, pol)])
        assert p_peaked < p_diffuse

    def test_fixed_mode_reports_actual_mass(self):
        scores = workload.generate_workload("diffuse", 64, 2, 8.0, seed=7)
        pol = SparsityPolicy(mode="fixed", fixed_ratio=0.25)
        reports = workload.evaluate_score_workload(scores, pol)
        for layer, r in enumerate(reports):
            assert r.p == 16
            mass = float(np.sum(scores[layer], dtype=np.float64))
            expect = budget.top_mass_fraction(scores[layer], 16, mass)
            assert abs(r.retained_mass - expect) <= 1e-12

    def test_probe_mode_rejected(self):
        scores = workload.generate_workload("peaked", 16, 1, 4.0, seed=8)
        with pytest.raises(ConfigError):
            workload.evaluate_score_workload(scores, SparsityPolicy(mode="zipvl-probe"))

    def test_bad_shape_rejected(self):
        with pytest.raises(DomainError):
            workload.evaluate_score_workload(np.ones(5), SparsityPolicy())

    def test_keep_last_raises_every_budget_to_the_window(self):
        scores = workload.generate_workload("peaked", 256, 2, 8.0, seed=11)
        plain = SparsityPolicy(mode="zipvl-exact", tau=0.5)
        kept = workload.evaluate_score_workload(scores, plain)
        assert all(r.p < 64 for r in kept)  # the window must matter here
        pol = SparsityPolicy(mode="zipvl-exact", tau=0.5, keep_last=64)
        for layer, r in enumerate(workload.evaluate_score_workload(scores, pol)):
            assert r.p == r.kv_rows == 64
            assert r.kv_bytes == 2 * 64 * 4
            plan = budget.plan_layer(pol, 256, lambda probe: (scores[layer], scores[layer]))
            assert plan.important.tolist() == list(range(192, 256))

    def test_retained_mass_is_the_budgets_top_mass(self):
        # the keep_last window outgrows the budget: p counts the kept tokens,
        # retained_mass stays the share of the budget's own top-p tokens
        scores = workload.generate_workload("peaked", 256, 2, 8.0, seed=11)
        pol = SparsityPolicy(mode="zipvl-exact", tau=0.5, keep_last=64)
        for layer, r in enumerate(workload.evaluate_score_workload(scores, pol)):
            vec = scores[layer]
            mass = float(np.sum(vec, dtype=np.float64))
            budget_p, _ = budget.adaptive_budget(vec, 0.5, mass)
            assert budget_p < r.p == 64
            assert r.retained_mass == budget.top_mass_fraction(vec, budget_p, mass)
            kept_mass = float(np.sum(vec[-64:], dtype=np.float64)) / mass
            assert kept_mass < r.retained_mass

    def test_quantize_rejected(self):
        scores = workload.generate_workload("peaked", 16, 1, 4.0, seed=8)
        with pytest.raises(ConfigError):
            workload.evaluate_score_workload(scores, SparsityPolicy(quantize=True))

    @given(st.integers(2, 60), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_property_tau_monotone_mean_ratio(self, n, layers, seed):
        scores = workload.generate_workload("peaked", n, layers, 8.0, seed=seed)
        ratios = []
        for tau in (0.5, 0.8, 0.95, 1.0):
            pol = SparsityPolicy(mode="zipvl-exact", tau=tau)
            reports = workload.evaluate_score_workload(scores, pol)
            ratios.append(np.mean([r.ratio for r in reports]))
        assert ratios == sorted(ratios)
        assert ratios[-1] == 1.0
