"""Config parsing, log round trips, hologram export, bench harness, CLI."""

import contextlib
import csv
import io
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import phaseloc
import phaseloc.io_eval.logs as logs_mod
import phaseloc.solver as solver_mod
from phaseloc import (
    METHOD_NAMES,
    CarrierConfig,
    DifferentialScheme,
    GridEvaluator,
    Hologram,
    MethodSpec,
    NoiseModel,
    Position3D,
    SampleStream,
    Scenario,
    SearchRegion,
    TagTruth,
    argmax_estimate,
    evaluate_hologram,
    linear_track,
    synthesize,
)
from phaseloc.io_eval import (
    ConfigError,
    LogFormatError,
    export_hologram,
    export_phase_log,
    ingest_log,
    load_scenario,
    parse_scheme,
    read_hologram,
    resolve_method,
    run_bench,
    write_bench_report,
)
from phaseloc.io_eval.bench import BenchReport, TrialRecord
from phaseloc.io_eval.cli import cli
from phaseloc.likelihood import linear_form

TWO_PI = 2.0 * math.pi

BASE_CONFIG = """\
# test scenario
seed = 7
carrier.frequency_hz = 866.9e6

trajectory.x = 1.4
trajectory.z = 0.0
trajectory.y_start = -0.3
trajectory.y_stop = 0.3
trajectory.spacing = 0.02

noise.constant_sigma = 0.0

region.x = 0.0
region.y_min = -0.3
region.y_max = 0.3
region.z_min = 0.0
region.z_max = 0.5
region.resolution = 0.02

tag.1.id = T01
tag.1.x = 0.0
tag.1.y = 0.12
tag.1.z = 0.24
tag.1.phi0 = 1.9

tag.2.id = T02
tag.2.x = 0.0
tag.2.y = -0.1
tag.2.z = 0.4
tag.2.phi0 = random
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(BASE_CONFIG)
    return path


def config_with(path, overrides: dict[str, str]):
    """BASE_CONFIG with each key in overrides set (replaced or added)."""
    lines = [l for l in BASE_CONFIG.splitlines() if l.split("=")[0].strip() not in overrides]
    lines += [f"{key} = {value}" for key, value in overrides.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


FUZZ_KEYS = (
    "seed", "carrier.frequency_hz",
    "tag.1.id", "tag.1.x", "tag.1.y", "tag.1.z", "tag.1.phi0",
    "noise.sigma_slope", "noise.sigma_intercept", "noise.constant_sigma",
    "jump.probability", "jump.guard_band",
    "interference.bias_rad", "interference.period", "interference.offset",
    "trajectory.x", "trajectory.z", "trajectory.y_start", "trajectory.y_stop",
    "trajectory.spacing",
    "region.x", "region.y", "region.x_min", "region.y_min", "region.y_max",
    "region.z_min", "region.z_max", "region.resolution",
)
FUZZ_VALUES = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.sampled_from(["nan", "-inf", "1e400", "random", "10", "2.7"]),
    st.text(min_size=1).filter(lambda t: t.splitlines() == [t]),
)


class TestConfig:
    def test_load_full_scenario(self, config_path):
        scenario, region = load_scenario(config_path)
        assert scenario.rng_seed == 7
        assert scenario.carrier.frequency == 866.9e6
        assert len(scenario.trajectory.poses) == 31
        assert [t.tag_id for t in scenario.tags] == ["T01", "T02"]
        assert scenario.tags[0].phi0 == 1.9
        assert 0.0 <= scenario.tags[1].phi0 < TWO_PI
        assert region is not None
        assert region.shape == (1, 31, 26)

    def test_random_phi0_deterministic_per_seed(self, config_path):
        a, _ = load_scenario(config_path)
        b, _ = load_scenario(config_path)
        c, _ = load_scenario(config_path, seed_override=8)
        assert a.tags[1].phi0 == b.tags[1].phi0
        assert a.tags[1].phi0 != c.tags[1].phi0

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("carrier.frequency_hz = 866.9e6\n")
        with pytest.raises(ConfigError):
            load_scenario(path)

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("carrier.frequency_hz 866.9e6\n")
        with pytest.raises(ConfigError, match="bad.cfg:1"):
            load_scenario(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_scenario(path)

    def test_region_axis_conflict(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(
            BASE_CONFIG + "region.x_min = 0.0\nregion.x_max = 1.0\n"
        )
        with pytest.raises(ConfigError, match="region.x"):
            load_scenario(path)

    def test_interference_needs_both_keys(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CONFIG + "interference.bias_rad = 0.5\n")
        with pytest.raises(ConfigError, match="interference"):
            load_scenario(path)

    @pytest.mark.parametrize("overrides, match", [
        ({"tag.1.x": "nan"}, "tag.1.x"),
        ({"tag.1.phi0": "inf"}, "tag.1.phi0"),
        ({"interference.bias_rad": "nan", "interference.period": "10"}, "bias_rad"),
        ({"noise.sigma_intercept": "nan"}, "sigma_intercept"),
        ({"interference.bias_rad": "0.5", "interference.period": "inf"}, "period"),
        ({"carrier.frequency_hz": "-5"}, "carrier frequency"),
        ({"seed": "-1"}, "seed"),
        ({"noise.constant_sigma": "-1"}, "constant_sigma"),
        ({"interference.bias_rad": "0.5", "interference.period": "2.7"}, "period"),
        ({"interference.bias_rad": "0.5", "interference.period": "10",
          "interference.offset": "1.5"}, "offset"),
        ({"trajectory.spacing": "1e-8"}, "cap"),
        ({"jump.probabilty": "0.9"}, "'jump.probabilty'"),
        ({"tag.2.ph0": "1.0"}, "'tag.2.ph0'"),
    ])
    def test_bad_values_are_config_errors(self, tmp_path, overrides, match):
        with pytest.raises(ConfigError, match=match):
            load_scenario(config_with(tmp_path / "bad.cfg", overrides))

    def test_integral_interference_values_parse(self, tmp_path):
        path = config_with(tmp_path / "ok.cfg", {
            "interference.bias_rad": "0.5", "interference.period": "10",
            "interference.offset": "5.0",
        })
        scenario, _ = load_scenario(path)
        assert (scenario.interference.period, scenario.interference.offset) == (10, 5)

    @settings(max_examples=300, deadline=None)
    @given(overrides=st.dictionaries(st.sampled_from(FUZZ_KEYS), FUZZ_VALUES, max_size=6))
    def test_fuzzed_values_load_or_raise_config_error(self, tmp_path_factory, overrides):
        path = config_with(tmp_path_factory.mktemp("fuzz") / "fuzz.cfg", overrides)
        try:
            load_scenario(path)
        except ConfigError:
            pass


def scenario_for_logs():
    return Scenario(
        tags=(
            TagTruth("A", Position3D(0.0, 0.1, 0.2), phi0=0.4),
            TagTruth("B", Position3D(0.0, -0.15, 0.35), phi0=2.2),
        ),
        trajectory=linear_track(x=1.4, z=0.0, y_start=-0.2, y_stop=0.2, spacing=0.05),
        carrier=CarrierConfig(866.9e6),
        noise=NoiseModel(),
        rng_seed=13,
    )


class TestPhaseLogs:
    def test_round_trip_exact(self, tmp_path):
        streams = synthesize(scenario_for_logs())
        path = tmp_path / "log.csv"
        export_phase_log(streams, path)
        back = ingest_log(path)
        assert list(back) == list(streams)
        for tag_id, samples in streams.items():
            got = back[tag_id]
            assert len(got) == len(samples)
            for s, g in zip(samples, got):
                assert g.phase_wrapped == s.phase_wrapped  # bit-exact
                assert g.antenna_pose == s.antenna_pose
                assert g.carrier.frequency == s.carrier.frequency
            assert got.poses.tobytes() == samples.poses.tobytes()  # same read order

    def test_quoted_tag_ids_round_trip(self, tmp_path):
        streams = synthesize(scenario_for_logs())
        streams = {"T,01": streams["A"], 'T"1': streams["B"]}
        path = tmp_path / "log.csv"
        export_phase_log(streams, path)
        back = ingest_log(path)
        assert list(back) == ["T,01", 'T"1']
        for tag_id, samples in streams.items():
            got = back[tag_id]
            assert len(got) == len(samples)
            assert [g.antenna_pose for g in got] == [s.antenna_pose for s in samples]
            assert [g.phase_wrapped for g in got] == [s.phase_wrapped for s in samples]

    @pytest.mark.parametrize("tag_id", [" T1", "T1 ", "\tT1", "T1\n", "a\rb", "a\0b"])
    def test_ids_that_do_not_read_back_rejected(self, tmp_path, tag_id):
        # ingest strips ids, a bare carriage return is written unquoted, and
        # the csv reader of Python 3.10 rejects a NUL
        streams = synthesize(scenario_for_logs())
        path = tmp_path / "log.csv"
        with pytest.raises(ValueError, match=re.escape(repr(tag_id))):
            export_phase_log({"A": streams["A"], tag_id: streams["B"]}, path)
        assert not path.exists()

    def test_tick_conversion(self, tmp_path):
        path = tmp_path / "ticks.csv"
        path.write_text(
            "tag_id,ant_x,ant_y,ant_z,freq_hz,phase,phase_unit\n"
            "T,1.4,0.0,0.0,866.9e6,2048,ticks\n"
        )
        samples = ingest_log(path)["T"]
        assert samples[0].phase_wrapped == pytest.approx(math.pi, rel=1e-15)

    def test_ticks_file_round_trip_byte_identical(self, tmp_path):
        streams = synthesize(scenario_for_logs())
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        export_phase_log(streams, first, unit="ticks")
        export_phase_log(ingest_log(first), second, unit="ticks")
        assert first.read_bytes() == second.read_bytes()

    def test_out_of_range_phase_rejected_with_line(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(
            "tag_id,ant_x,ant_y,ant_z,freq_hz,phase,phase_unit\n"
            "T,1.4,0.0,0.0,866.9e6,1.0,radians\n"
            "T,1.4,0.1,0.0,866.9e6,7.0,radians\n"
        )
        with pytest.raises(LogFormatError, match="line 3"):
            ingest_log(path)
        samples = ingest_log(path, auto_wrap=True)["T"]
        assert samples[1].phase_wrapped == pytest.approx(7.0 - TWO_PI)

    def test_unknown_unit_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(
            "tag_id,ant_x,ant_y,ant_z,freq_hz,phase,phase_unit\n"
            "T,1.4,0.0,0.0,866.9e6,1.0,degrees\n"
        )
        with pytest.raises(LogFormatError, match="line 2"):
            ingest_log(path)

    @pytest.mark.parametrize("rows", ["", "T,1.4,0.0,0.0,866.9e6,1.0,radians\n"], ids=["no-reads", "one-read"])
    def test_unknown_unit_argument_rejected_before_reading(self, tmp_path, rows):
        # the caller's argument is at fault, not the file, whatever it holds
        path = tmp_path / "log.csv"
        path.write_text("tag_id,ant_x,ant_y,ant_z,freq_hz,phase,phase_unit\n" + rows)
        with pytest.raises(ValueError, match="unknown phase unit 'degrees'") as caught:
            ingest_log(path, unit="degrees")
        assert not isinstance(caught.value, LogFormatError)

    def test_malformed_number_reports_line(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(
            "tag_id,ant_x,ant_y,ant_z,freq_hz,phase,phase_unit\n"
            "T,1.4,oops,0.0,866.9e6,1.0,radians\n"
        )
        with pytest.raises(LogFormatError, match="line 2"):
            ingest_log(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("tag_id,ant_x\nT,1.4\n")
        with pytest.raises(LogFormatError, match="missing columns"):
            ingest_log(path)

    @pytest.mark.parametrize("reader", ["ingest_log", "_ingest_rows"])
    @pytest.mark.parametrize("unit", [None, ""])
    def test_missing_unit_column_needs_a_unit(self, tmp_path, reader, unit):
        # the rows read unit "" as "use the phase_unit column", so the header
        # check treats it as no unit on both readers
        path = tmp_path / "log.csv"
        path.write_text("tag_id,ant_x,ant_y,ant_z,freq_hz,phase\nT,1.4,0.0,0.0,866.9e6,1.0\n")
        with pytest.raises(LogFormatError, match="^no phase_unit column; pass an explicit unit$"):
            getattr(logs_mod, reader)(path, sign_flip=False, unit=unit, auto_wrap=False)
        assert ingest_log(path, unit="radians")["T"].phases.tolist() == [1.0]

    def test_sign_flip(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(
            "tag_id,ant_x,ant_y,ant_z,freq_hz,phase,phase_unit\n"
            "T,1.4,0.0,0.0,866.9e6,1.0,radians\n"
        )
        samples = ingest_log(path, sign_flip=True)["T"]
        assert samples[0].phase_wrapped == pytest.approx(TWO_PI - 1.0)

    def test_error_names_physical_line_after_multiline_id(self, tmp_path):
        # the quoted id "a\nb" spans two lines, so the bad row starts on line 6, record 4
        stream = SampleStream(np.array([[1.4, 0.0, 0.0], [1.4, 0.1, 0.0]]), np.array([1.0, 2.0]),
                              CarrierConfig(866.9e6))
        path = tmp_path / "log.csv"
        export_phase_log({"a\nb": stream}, path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write("T,1.4,0.2,0.0,866.9e6,oops,radians\n")
        assert path.read_text(encoding="utf-8").splitlines()[5].startswith("T,")
        with pytest.raises(LogFormatError, match=r"^line 6: phase is not a number: 'oops'$"):
            ingest_log(path)

    @pytest.mark.parametrize("unit, options", [
        ("radians", {}),
        ("ticks", {"sign_flip": True}),
        ("radians", {"unit": "radians", "auto_wrap": True}),
    ])
    def test_valid_unquoted_log_takes_column_path(self, tmp_path, unit, options):
        options = {"sign_flip": False, "unit": None, "auto_wrap": False, **options}
        path = tmp_path / "log.csv"
        export_phase_log(synthesize(scenario_for_logs()), path, unit=unit)
        want = logs_mod._ingest_rows(path, **options)
        with mock.patch.object(logs_mod, "_ingest_rows", side_effect=AssertionError("row loop")):
            got = ingest_log(path, **options)
        assert _log_outcome(got) == _log_outcome(want)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def tag_streams(draw):
    """Streams under arbitrary text ids: finite poses, phases in [0, 2*pi)
    and one positive finite carrier per tag."""
    streams = {}
    for tag_id in draw(st.lists(st.text(max_size=6), min_size=1, max_size=3, unique=True)):
        n = draw(st.integers(1, 4))
        streams[tag_id] = SampleStream(
            draw(arrays(float, (n, 3), elements=FINITE)),
            draw(arrays(float, n, elements=st.floats(0.0, TWO_PI, exclude_max=True))),
            CarrierConfig(draw(st.floats(0.0, exclude_min=True, allow_infinity=False))),
        )
    return streams


@settings(max_examples=200, deadline=None)
@given(streams=tag_streams())
def test_phase_log_round_trip_property(tmp_path_factory, streams):
    path = tmp_path_factory.mktemp("log") / "log.csv"
    try:
        export_phase_log(streams, path)
    except ValueError:
        assert not path.exists()
        return
    back = ingest_log(path)
    assert list(back) == list(streams)
    for tag_id, stream in streams.items():
        assert back[tag_id].poses.tobytes() == stream.poses.tobytes()
        assert back[tag_id].phases.tobytes() == stream.phases.tobytes()
        assert back[tag_id].carrier == stream.carrier


def _log_outcome(streams):
    """A reader's result, bit for bit: ids in order, poses, phases, carriers."""
    return [(tag_id, s.poses.tobytes(), s.phases.tobytes(), repr(s.carrier.frequency))
            for tag_id, s in streams.items()]


def _read_outcome(read, path, **options):
    try:
        return _log_outcome(read(path, **options))
    except LogFormatError as exc:
        return f"LogFormatError: {exc}"


# ids and numbers the column reader takes, and others only the row loop reads
LOG_IDS = st.sampled_from(["T1", "T2", " T1", "T\x0c#"])
ODD_IDS = st.text(st.sampled_from(list('Tb1 ,"\n\r\x0c#\0\t')), min_size=1, max_size=4)
LOG_NUMBERS = st.one_of(FINITE.map(repr), st.sampled_from(["+1", " 1.5 ", "-0.0", "2e-3"]))
ODD_NUMBERS = st.sampled_from(
    ["1_0", "\u0661", "nan", "inf", "-inf", "1e400", "", "0x1p3", "0", "-1.0", "7.0", "4096"]
)


def rare(common, odd):
    """Draws from common, and from odd one time in twenty."""
    return st.sampled_from([common] * 19 + [odd]).flatmap(lambda strategy: strategy)


@st.composite
def phase_logs(draw):
    """(text, ingest options) of a phase log: shuffled and extra columns, a
    missing phase_unit, ticks, auto_wrap, sign_flip; rarely an odd id or
    number spelling, a short or long row, a quoted row, a blank line or
    another line end."""

    def pick(common, odd):
        return draw(rare(common, odd))

    columns = draw(st.permutations([*logs_mod.LOG_FIELDS, *draw(st.sampled_from(
        [(), ("timestamp",), ("timestamp", "ant_x")]))]))
    options = {"sign_flip": draw(st.booleans()), "auto_wrap": draw(st.booleans()), "unit": None}
    if draw(st.booleans()):
        columns.remove("phase_unit")
        options["unit"] = draw(st.sampled_from(["radians", "ticks"]))
    ids = draw(st.lists(rare(LOG_IDS, ODD_IDS), min_size=1, max_size=3))
    carriers = {tag_id: pick(st.sampled_from(["866.9e6", "9.2e8"]), ODD_NUMBERS) for tag_id in ids}
    lines = [",".join(columns)]
    for _ in range(draw(st.integers(0, 6))):
        tag_id = draw(st.sampled_from(ids))
        row = {"tag_id": tag_id, "freq_hz": pick(st.just(carriers[tag_id]), LOG_NUMBERS),
               "timestamp": "12", "ant_x": pick(LOG_NUMBERS, ODD_NUMBERS),
               "ant_y": pick(LOG_NUMBERS, ODD_NUMBERS), "ant_z": pick(LOG_NUMBERS, ODD_NUMBERS),
               "phase_unit": pick(st.sampled_from(["radians", "ticks", " ticks "]),
                                  st.just("degrees"))}
        row["phase"] = pick(
            st.one_of(st.floats(0.0, TWO_PI, exclude_max=True).map(repr),
                      st.integers(0, 6).map(str), st.floats(-20.0, 20.0).map(repr)),
            st.one_of(ODD_NUMBERS, st.just("4095")))
        fields = [row[name] for name in columns]
        fields = pick(st.just(fields), st.sampled_from([fields[:-1], [*fields, "x"]]))
        out = io.StringIO()
        csv.writer(out, lineterminator="").writerow(fields)
        lines.append(pick(st.just(",".join(fields)), st.just(out.getvalue())))
        lines.extend(pick(st.just([]), st.sampled_from([[""], ["  "], ["\x0c"], ["\t,"]])))
    ends = [pick(st.just("\n"), st.sampled_from(["\r\n", "\r"])) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends)), options


@settings(max_examples=300, deadline=None)
@given(log=phase_logs())
def test_column_reader_matches_row_loop_property(tmp_path_factory, log):
    text, options = log
    path = tmp_path_factory.mktemp("log") / "log.csv"
    path.write_bytes(text.encode("utf-8"))
    want = _read_outcome(logs_mod._ingest_rows, path, **options)
    assert _read_outcome(ingest_log, path, **options) == want


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_hologram_round_trip_property(tmp_path_factory, data):
    region = SearchRegion(x=(0.0, 0.0), y=(-0.02, 0.02), z=(0.0, 0.03), resolution=0.01)
    scores = data.draw(arrays(float, region.shape, elements=FINITE))
    raw_min, raw_max = data.draw(FINITE), data.draw(FINITE)
    path = tmp_path_factory.mktemp("holo") / "holo.csv"
    export_hologram(Hologram(region=region, scores=scores, raw_min=raw_min, raw_max=raw_max), path)
    back = read_hologram(path)
    assert back.scores.tobytes() == scores.tobytes()
    assert np.array([back.raw_min, back.raw_max]).tobytes() == np.array([raw_min, raw_max]).tobytes()


def test_hologram_numpy_scalars_read_back(tmp_path):
    # numpy 2 reprs a numpy scalar as "np.float64(...)"; the file must hold plain floats
    region = SearchRegion(x=(np.float64(0.0),) * 2, y=(np.float64(-0.01), np.float64(0.01)),
                          z=(0.0, 0.0), resolution=0.01)
    holo = Hologram(region=region, scores=np.ones(region.shape),
                    raw_min=np.float64(-1.5), raw_max=np.float64(2.5))
    export_hologram(holo, tmp_path / "holo.csv")
    back = read_hologram(tmp_path / "holo.csv")
    assert (back.raw_min, back.raw_max) == (-1.5, 2.5)
    assert back.region.bounds == ((0.0, 0.0), (-0.01, 0.01), (0.0, 0.0))


class TestHologramExport:
    def holo(self, region):
        samples = synthesize(scenario_for_logs())["A"]
        return evaluate_hologram(samples, region, MethodSpec("clf"))

    def test_single_cell_export(self, tmp_path):
        region = SearchRegion(x=(0.0, 0.0), y=(0.1, 0.1), z=(0.2, 0.2))
        path = tmp_path / "holo.csv"
        export_hologram(self.holo(region), path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines == ["score", "1.0"]

    def test_row_count_matches_cells(self, tmp_path):
        region = SearchRegion(x=(0.0, 0.0), y=(-0.1, 0.1), z=(0.0, 0.1), resolution=0.05)
        path = tmp_path / "holo.csv"
        export_hologram(self.holo(region), path)
        data = [l for l in path.read_text().splitlines() if not l.startswith("#")][1:]
        assert len(data) == region.cell_count
        assert data[0].count(",") == 2  # y, z, score

    def test_round_trip_exact(self, tmp_path):
        region = SearchRegion(x=(0.0, 0.0), y=(-0.2, 0.2), z=(0.0, 0.3), resolution=0.05)
        holo = self.holo(region)
        path = tmp_path / "holo.csv"
        export_hologram(holo, path)
        back = read_hologram(path)
        assert np.array_equal(back.scores, holo.scores)
        assert back.raw_min == holo.raw_min and back.raw_max == holo.raw_max
        assert back.region.shape == holo.region.shape
        assert back.region.bounds == holo.region.bounds

    @pytest.mark.parametrize("region", [
        SearchRegion(x=(0.0, 0.0), y=(-0.5, 0.5), z=(0.0, 0.7), resolution=0.02),
        SearchRegion(x=(0.0, 0.03), y=(-0.02, 0.02), z=(0.1, 0.13), resolution=0.01),
        SearchRegion(x=(0.0, 0.0), y=(0.1, 0.1), z=(0.2, 0.2)),
    ], ids=["plane", "volume", "one-cell"])
    def test_export_matches_row_by_row_formatting(self, tmp_path, region):
        holo = self.holo(region)
        path = tmp_path / "holo.csv"
        export_hologram(holo, path)
        # the reference: every field formatted on its own, row by row
        active = [axis for axis in range(3) if region.shape[axis] > 1]
        rows = [
            ",".join([repr(float(cell[a])) for a in active] + [repr(float(score))])
            for cell, score in zip(region.candidates(), holo.scores.ravel())
        ]
        text = path.read_text(encoding="utf-8")
        header = [line for line in text.splitlines() if line.startswith("#")]
        names = ",".join(["xyz"[a] for a in active] + ["score"])
        want = "\n".join(header + [names] + rows) + "\n"
        assert path.read_bytes() == want.encode("utf-8")

    def test_export_byte_deterministic(self, tmp_path):
        region = SearchRegion(x=(0.0, 0.0), y=(-0.2, 0.2), z=(0.0, 0.3), resolution=0.05)
        holo = self.holo(region)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_hologram(holo, a)
        export_hologram(holo, b)
        assert a.read_bytes() == b.read_bytes()


class TestMethodResolution:
    def test_all_names(self):
        scheme = DifferentialScheme.reference(0)
        assert resolve_method("nlf", scheme) == MethodSpec("nlf", scheme)
        assert resolve_method("wclf", scheme) == MethodSpec("wclf", scheme)
        assert resolve_method("wslf", scheme) == MethodSpec("wslf", scheme)
        assert resolve_method("sarfid") == MethodSpec("sarfid")
        assert resolve_method("sarfid", scheme) == MethodSpec("sarfid")
        assert resolve_method("tagoram", tagoram_sigma=0.05) == MethodSpec("tagoram", tagoram_sigma=0.05)
        assert resolve_method("tagoram", parse_scheme("reference")) == MethodSpec("tagoram")
        for name in METHOD_NAMES:
            assert resolve_method(name).name == name

    @pytest.mark.parametrize("name", ["sarfid", "tagoram"])
    @pytest.mark.parametrize("scheme", ["misaligned", "reference:50"])
    def test_baselines_reject_scheme(self, name, scheme):
        with pytest.raises(ValueError, match="reference:0"):
            resolve_method(name, parse_scheme(scheme))

    def test_wnlf_rejected(self):
        with pytest.raises(ValueError, match="wnlf"):
            resolve_method("wnlf")

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            resolve_method("music")

    def test_parse_scheme(self):
        assert parse_scheme("misaligned") == DifferentialScheme.misaligned()
        assert parse_scheme("reference") == DifferentialScheme.reference(0)
        assert parse_scheme("reference:3") == DifferentialScheme.reference(3)
        with pytest.raises(ValueError):
            parse_scheme("reference:x")
        with pytest.raises(ValueError):
            parse_scheme("adjacent")


# mc-plane's scene: the stock plane's 7171 cells under 101 poses, two noisy tags with jumps
STOCK_SCENE = Scenario(
    tags=(TagTruth("T01", Position3D(0.0, 0.12, 0.24), phi0=1.9),
          TagTruth("T02", Position3D(0.0, -0.1, 0.4), phi0=4.0)),
    trajectory=linear_track(x=1.4, z=0.0, y_start=-0.5, y_stop=0.5, spacing=0.01),
    carrier=CarrierConfig(866.9e6),
    noise=NoiseModel(sigma_slope=0.006, sigma_intercept=0.0084),
    jump_probability=0.05,
    rng_seed=1,
)
STOCK_REGION = SearchRegion(x=(0.0, 0.0), y=(-0.5, 0.5), z=(0.0, 0.7), resolution=0.01)


def seven_methods(ref):
    """The seven methods as bench resolves them, the five likelihoods under
    reference:ref; sarfid and tagoram take only reference:0."""
    scheme = DifferentialScheme.reference(ref)
    return [(name, resolve_method(name, scheme if name not in ("sarfid", "tagoram")
                                  else DifferentialScheme.reference(0)))
            for name in ("nlf", "clf", "slf", "wclf", "wslf", "sarfid", "tagoram")]


class TestBench:
    def bench_inputs(self, config_path):
        scenario, region = load_scenario(config_path)
        scheme = DifferentialScheme.reference(0)
        methods = [(n, resolve_method(n, scheme)) for n in ("wclf", "wslf")]
        return scenario, region, methods

    def test_noise_free_single_trial(self, config_path):
        scenario, region, methods = self.bench_inputs(config_path)
        report = run_bench(scenario, region, methods, trials=1)
        diag = math.hypot(0.02, 0.02)
        for mean in report.method_means().values():
            assert mean <= diag + 1e-12
        assert report.trials == 1
        assert report.methods == ("wclf", "wslf")

    def test_reports_reproducible(self, config_path, tmp_path):
        scenario, region, methods = self.bench_inputs(config_path)
        a = run_bench(scenario, region, methods, trials=3, base_seed=5)
        b = run_bench(scenario, region, methods, trials=3, base_seed=5)
        assert a.to_text() == b.to_text()
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        write_bench_report(a, dir_a)
        write_bench_report(b, dir_b)
        for name in ("report.txt", "report.csv", "errors.csv"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_stats_match_raw_error_file(self, config_path, tmp_path):
        scenario, region, methods = self.bench_inputs(config_path)
        scenario = Scenario(
            tags=scenario.tags,
            trajectory=scenario.trajectory,
            carrier=scenario.carrier,
            noise=NoiseModel(),  # real noise so errors vary
            rng_seed=scenario.rng_seed,
        )
        report = run_bench(scenario, region, methods, trials=4)
        paths = write_bench_report(report, tmp_path / "out")

        raw = {}
        lines = paths["errors"].read_text().splitlines()
        assert lines[0] == "trial,method,tag_id,est_x,est_y,est_z,err_x,err_y,err_z,err_combined"
        for line in lines[1:]:
            f = line.split(",")
            raw.setdefault((f[1], f[2]), []).append(float(f[9]))

        for line in paths["summary"].read_text().splitlines()[1:]:
            f = line.split(",")
            errs = raw[(f[0], f[1])]
            assert float(f[3]) == float(np.mean(errs))
            assert float(f[4]) == float(np.median(errs))
            assert float(f[5]) == float(np.max(errs))

    def test_bad_trials_rejected(self, config_path):
        scenario, region, methods = self.bench_inputs(config_path)
        with pytest.raises(ValueError):
            run_bench(scenario, region, methods, trials=0)

    def test_failing_method_named_in_batched_pass(self, config_path):
        # 2 trials x the scenario's tags are scored in one pass per method;
        # reference:999 fails there, before any trial or tag is in hand
        scenario, region, methods = self.bench_inputs(config_path)
        far = ("clf-far", MethodSpec("clf", DifferentialScheme.reference(999)))
        with pytest.raises(RuntimeError, match=r"^method clf-far: reference index 999 out of range"):
            run_bench(scenario, region, [*methods, far], trials=2)

    @pytest.mark.parametrize("per_pass", [2, 4, 7])
    def test_records_do_not_depend_on_pass_size(self, tmp_path, per_pass):
        # 3 noisy tags over 5 trials: passes of 2 end in a one-stream pass,
        # 4 holds a whole trial and 7 two trials with a one-trial last chunk;
        # every record must equal the one scored with one stream per pass
        path = config_with(tmp_path / "three.cfg", {
            "noise.constant_sigma": "0.4", "tag.3.id": "T03", "tag.3.x": "0.0",
            "tag.3.y": "0.2", "tag.3.z": "0.1", "tag.3.phi0": "random",
        })
        scenario, region = load_scenario(path)
        methods = [(name, resolve_method(name)) for name in METHOD_NAMES]

        def bench(streams):
            with mock.patch.object(GridEvaluator, "streams_per_pass", streams):
                return run_bench(scenario, region, methods, trials=5, base_seed=3).records

        records = bench(per_pass)
        assert records == bench(1)
        # trial, then method, then tag order
        assert [(r.trial, r.method, r.tag_id) for r in records] == [
            (t, name, tag) for t in range(5) for name, _ in methods for tag in ("T01", "T02", "T03")
        ]

    @pytest.mark.parametrize("ref", [0, 37])
    def test_methods_together_give_each_method_alone_records(self, ref):
        # in one run the methods read shared FFT passes; each method's
        # records equal those of a run of that method alone
        methods = seven_methods(ref)
        together = run_bench(STOCK_SCENE, STOCK_REGION, methods, trials=4, base_seed=5).records
        for name, spec in methods:
            alone = run_bench(STOCK_SCENE, STOCK_REGION, [(name, spec)], trials=4, base_seed=5).records
            assert [r for r in together if r.method == name] == list(alone), name

    @pytest.mark.parametrize("per_pass", [None, 4, 1])
    def test_one_fft_pass_per_power_and_batch(self, per_pass):
        # a seven-method run convolves each batch's stack once at power 1
        # (clf, sarfid, and nlf's and wclf's bounds) and once at power 2
        # (slf, and wslf's bound): 4 trials of 2 tags are one batch of 8
        # streams, in passes of 4 two, and in passes of 1 eight, two per
        # synthesized trial
        real_pass, real_best = GridEvaluator._track_scores, GridEvaluator.best_cells
        stacks, passes = set(), []

        def best_cells(self, streams, method):
            stacks.add(np.stack([s.phases for s in streams]).tobytes())
            return real_best(self, streams, method)

        def track_scores(self, spec, phases, out, wavelength, **options):
            form = linear_form(spec, phases)
            if form is not None:
                passes.append((form.power, phases.tobytes()))
            return real_pass(self, spec, phases, out, wavelength, **options)

        with contextlib.ExitStack() as stack:
            stack.enter_context(mock.patch.object(GridEvaluator, "best_cells", best_cells))
            stack.enter_context(mock.patch.object(GridEvaluator, "_track_scores", track_scores))
            if per_pass is not None:
                stack.enter_context(mock.patch.object(GridEvaluator, "streams_per_pass", per_pass))
            run_bench(STOCK_SCENE, STOCK_REGION, seven_methods(0), trials=4)
        assert len(stacks) == {None: 1, 4: 2, 1: 8}[per_pass]
        assert sorted(passes) == sorted((power, stack) for stack in stacks for power in (1, 2))

    def test_memory_does_not_grow_with_trials(self, config_path):
        # passes of 4 streams: 2 trials of the scenario's 2 tags at a time
        scenario, region, methods = self.bench_inputs(config_path)
        peaks = []
        for trials in (2, 30):
            with mock.patch.object(GridEvaluator, "streams_per_pass", 4):
                tracemalloc.start()
                try:
                    run_bench(scenario, region, methods, trials=trials)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        # 112 more records take about 90 KiB; scoring all 60 streams of
        # 30 trials in one pass (806 cells) takes about 730 KiB more
        assert peaks[1] < peaks[0] + 160 * 1024, peaks


    def test_grouped_statistics_match_full_rescan(self):
        # records out of (trial, method, tag) order; the oracle rescans all of them per cell
        rng = np.random.default_rng(9)
        recs = tuple(
            TrialRecord(t, m, tag, Position3D(0.0, 0.0, 0.0), *rng.uniform(size=4))
            for t in (1, 0, 2) for m in ("b", "a") for tag in ("Y", "X")
        )
        report = BenchReport(methods=("a", "b"), tag_ids=("X", "Y"), trials=3, base_seed=0,
                             records=recs, runtime_s=0.0)
        stats, means = report.stats(), report.method_means()
        for m in report.methods:
            assert means[m] == float(np.mean([r.err_combined for r in recs if r.method == m]))
            for tag in (None, "X", "Y"):
                want = [np.mean([r.err_combined for r in recs
                                 if r.trial == t and r.method == m and tag in (None, r.tag_id)])
                        for t in range(3)]
                assert report.trial_errors(m, tag).tolist() == want
            for tag in report.tag_ids:
                cell = [r for r in recs if r.method == m and r.tag_id == tag]
                assert stats[(m, tag)].median == float(np.median([r.err_combined for r in cell]))
                assert stats[(m, tag)].mean_z == float(np.mean([r.err_z for r in cell]))

    def test_statistics_are_computed_once_per_report(self, tmp_path):
        # report.txt and report.csv read the same statistics; a caller's
        # changes to the dict stats() returned do not reach the next call
        recs = tuple(TrialRecord(t, m, "X", Position3D(0.0, 0.0, 0.0), 0.1 * t, 0.2, 0.3, 0.4 + t)
                     for t in range(2) for m in ("a", "b"))
        report = BenchReport(methods=("a", "b"), tag_ids=("X",), trials=2, base_seed=0,
                             records=recs, runtime_s=0.0)
        with mock.patch.object(BenchReport, "_group", autospec=True, side_effect=BenchReport._group) as group:
            first = report.stats()
            write_bench_report(report, tmp_path)
            first.clear()
            assert report.stats()[("a", "X")].max == 1.4
        # one grouping for the statistics, one for to_text's method means
        assert group.call_count == 2, group.call_args_list


class TestCli:
    def test_simulate_locate_end_to_end(self, config_path, tmp_path, capsys):
        log = tmp_path / "log.csv"
        assert cli(["simulate", "--config", str(config_path), "--seed", "7", "--out", str(log)]) == 0
        assert cli([
            "locate", "--input", str(log), "--method", "wslf",
            "--scheme", "reference:0", "--config", str(config_path),
        ]) == 0
        out = capsys.readouterr().out.splitlines()
        rows = [l for l in out if l.startswith(("T01", "T02"))]
        assert len(rows) == 2
        diag = math.hypot(0.02, 0.02)
        for row in rows:
            err_combined = float(row.split(",")[6])
            assert err_combined <= diag + 1e-12

    def test_locate_without_truth_leaves_errors_blank(self, config_path, tmp_path, capsys):
        log = tmp_path / "log.csv"
        cli(["simulate", "--config", str(config_path), "--seed", "7", "--out", str(log)])
        assert cli([
            "locate", "--input", str(log), "--method", "clf",
            "--region", "x=0,y=-0.3:0.3,z=0:0.5", "--resolution", "0.02",
        ]) == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if l.startswith("T0")]
        assert rows and all(r.split(",")[4] == "" for r in rows)

    def test_hologram_subcommand(self, config_path, tmp_path, capsys):
        log = tmp_path / "log.csv"
        cli(["simulate", "--config", str(config_path), "--seed", "7", "--out", str(log)])
        out = tmp_path / "holo.csv"
        assert cli([
            "hologram", "--input", str(log), "--method", "clf",
            "--config", str(config_path), "--out", str(out),
        ]) == 0
        files = sorted(tmp_path.glob("holo.*.csv"))
        assert [f.name for f in files] == ["holo.T01.csv", "holo.T02.csv"]
        holo = read_hologram(files[0])
        assert holo.scores.max() == 1.0

    @pytest.mark.parametrize("tag_id", ["a/b", "a\0b"])
    def test_unusable_tag_id_is_data_error(self, config_path, tmp_path, capsys, tag_id):
        # locate takes any tag id; hologram puts it in a file name
        log = tmp_path / "log.csv"
        log.write_text("\n".join([
            "tag_id,ant_x,ant_y,ant_z,freq_hz,phase,phase_unit",
            "T,1.4,0.0,0.0,866.9e6,1.0,radians", "T,1.4,0.1,0.0,866.9e6,2.0,radians",
            f"{tag_id},1.4,0.0,0.0,866.9e6,1.0,radians", f"{tag_id},1.4,0.1,0.0,866.9e6,2.0,radians",
        ]))
        code = cli(["hologram", "--input", str(log), "--method", "clf",
                    "--config", str(config_path), "--out", str(tmp_path / "holo.csv")])
        assert code == 2
        # Python 3.10's csv reader rejects a NUL itself, naming the line
        nul_in_csv = "\0" in tag_id and sys.version_info < (3, 11)
        assert ("line 4" if nul_in_csv else f"tag {tag_id}") in capsys.readouterr().err
        assert not list(tmp_path.glob("holo*"))  # rejected before any file is written

    def test_comma_tag_id_simulate_then_locate(self, tmp_path, capsys):
        config = config_with(tmp_path / "comma.cfg", {"tag.1.id": "T,01"})
        log = tmp_path / "log.csv"
        assert cli(["simulate", "--config", str(config), "--out", str(log)]) == 0
        capsys.readouterr()
        assert cli(["locate", "--input", str(log), "--method", "clf", "--config", str(config)]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 3  # header and two tags
        assert [len(row) for row in rows] == [len(rows[0])] * 3
        assert [row[0] for row in rows[1:]] == ["T,01", "T02"]

    def test_comma_tag_id_bench_reports(self, tmp_path, capsys):
        config = config_with(tmp_path / "comma.cfg", {"tag.1.id": "T,01"})
        out = tmp_path / "bench"
        assert cli(["bench", "--config", str(config), "--method", "clf,sarfid",
                    "--trials", "2", "--out", str(out)]) == 0
        for name, n_rows in (("report.csv", 2 * 2), ("errors.csv", 2 * 2 * 2)):
            with (out / name).open(newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert [len(row) for row in rows] == [len(rows[0])] * (1 + n_rows)
            tag_col = rows[0].index("tag_id")
            assert sorted({row[tag_col] for row in rows[1:]}) == ["T,01", "T02"]

    def test_bench_subcommand_four_methods(self, config_path, tmp_path, capsys):
        out = tmp_path / "bench"
        assert cli([
            "bench", "--config", str(config_path),
            "--method", "wclf,wslf,sarfid,tagoram",
            "--trials", "2", "--seed", "3", "--out", str(out),
        ]) == 0
        summary = (out / "report.csv").read_text().splitlines()
        methods = {line.split(",")[0] for line in summary[1:]}
        assert methods == {"wclf", "wslf", "sarfid", "tagoram"}

    def test_scheme_goes_to_the_likelihoods_beside_the_baselines(self, config_path, tmp_path, capsys):
        # with a likelihood listed, --scheme goes to the five likelihoods and
        # sarfid and tagoram stay at reference:0: each method's records equal
        # a run of it alone; with none listed, or an index past the poses
        # (31 here) for any method, it is a usage error
        def run(out, methods, *scheme):
            return cli(["bench", "--config", str(config_path), "--method", methods, *scheme,
                        "--trials", "2", "--seed", "3", "--out", str(tmp_path / out)])

        def rows(out, method):
            lines = (tmp_path / out / "errors.csv").read_text().splitlines()[1:]
            return [line for line in lines if line.split(",")[1] == method]

        assert run("seven", "nlf,clf,slf,wclf,wslf,sarfid,tagoram", "--scheme", "reference:17") == 0
        for name in ("nlf", "clf", "slf", "wclf", "wslf", "sarfid", "tagoram"):
            scheme = ["--scheme", "reference:17"] if name not in ("sarfid", "tagoram") else []
            assert run(name, name, *scheme) == 0
            assert rows("seven", name) == rows(name, name) != [], name
        capsys.readouterr()
        for methods, scheme in (("sarfid,tagoram", "reference:17"), ("sarfid", "misaligned"),
                                ("sarfid,clf", "reference:31")):
            assert run("refused", methods, "--scheme", scheme) == 1
            assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "refused").exists()

    def test_wnlf_is_usage_error(self, config_path, tmp_path, capsys):
        log = tmp_path / "log.csv"
        cli(["simulate", "--config", str(config_path), "--seed", "7", "--out", str(log)])
        code = cli(["locate", "--input", str(log), "--method", "wnlf",
                    "--config", str(config_path)])
        assert code == 1
        assert "wnlf" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        ["--method", "tagoram", "--tagoram-sigma", "0"],
        ["--method", "tagoram", "--tagoram-sigma", "-1"],
        ["--method", "tagoram", "--tagoram-sigma", "inf"],
        ["--method", "tagoram", "--tagoram-sigma", "1e-320"],
        ["--method", "clf", "--tagoram-sigma", "0.05"],
        ["--method", "tagoram", "--scheme", "misaligned"],
    ])
    def test_bad_baseline_flags_are_usage_errors(self, config_path, tmp_path, capsys, extra):
        log = tmp_path / "log.csv"
        cli(["simulate", "--config", str(config_path), "--seed", "7", "--out", str(log)])
        capsys.readouterr()
        assert cli(["locate", "--input", str(log), "--config", str(config_path), *extra]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bench", "--method", "clf", "--trials", "0"],
        ["bench", "--method", "clf", "--trials", "-3"],
        ["bench", "--method", "clf", "--trials", "1", "--seed", "-4"],
        ["simulate", "--seed", "-4"],
        ["locate", "--method", "clf", "--scheme", "reference:-1"],
        ["locate", "--method", "clf", "--region", "x=0,x=1,y=0:0.1,z=0:0.1"],
        ["locate", "--method", "clf", "--region", "x=0,y=0:0.1"],
        ["locate", "--method", "clf", "--region", "x=0,y=a:b,z=0:0.1"],
        ["locate", "--method", "clf", "--region", "x=0,y=0:0.1,z=0:0.1",
         "--resolution", "1e-320"],
        ["bench", "--method", "nlf,clf", "--scheme", "reference:999", "--trials", "2"],
        ["locate", "--method", "clf", "--resolution", "inf"],
        ["bench", "--method", "clf", "--trials", "1", "--resolution", "inf"],
    ])
    def test_bad_flags_are_usage_errors(self, config_path, tmp_path, capsys, argv):
        log = tmp_path / "log.csv"
        cli(["simulate", "--config", str(config_path), "--seed", "7", "--out", str(log)])
        capsys.readouterr()
        needs = {
            "bench": ["--config", str(config_path), "--out", str(tmp_path / "bench")],
            "simulate": ["--config", str(config_path), "--out", str(tmp_path / "sim.csv")],
            "locate": ["--input", str(log), "--config", str(config_path)],
        }[argv[0]]
        assert cli([*argv, *needs]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "bench").exists()  # no report was written

    def test_resolution_flag_overrides_config_region(self, config_path, tmp_path):
        log = tmp_path / "log.csv"
        cli(["simulate", "--config", str(config_path), "--seed", "7", "--out", str(log)])
        out = tmp_path / "holo.csv"
        assert cli([
            "hologram", "--input", str(log), "--method", "clf", "--config", str(config_path),
            "--resolution", "0.05", "--out", str(out),
        ]) == 0
        region = read_hologram(tmp_path / "holo.T01.csv").region
        assert region.resolution == (0.05, 0.05, 0.05)
        assert region.bounds == ((0.0, 0.0), (-0.3, 0.3), (0.0, 0.5))

    @pytest.mark.parametrize("command", ["locate", "hologram"])
    @pytest.mark.parametrize("rows, extra, where", [
        (["T,1.4,0.0,0.0,0,1.0,radians", "T,1.4,0.1,0.0,866.9e6,1.0,radians"], [], "line 2"),
        (["T,1.4,0.0,0.0,866.9e6,1.0,radians"], [], "tag T"),
        (["T,1.4,0.0,0.0,866.9e6,1.0,radians", "T,1.4,0.1,0.0,867.5e6,1.0,radians"], [],
         "tag T"),
        (None, ["--scheme", "reference:500"], "tag T01"),
        (["T" * 131_073 + ",1.4,0.0,0.0,866.9e6,1.0,radians"], [], "line 2: field larger"),
    ])
    def test_unusable_log_is_data_error(
        self, config_path, tmp_path, capsys, command, rows, extra, where
    ):
        log = tmp_path / "log.csv"
        if rows is None:
            cli(["simulate", "--config", str(config_path), "--seed", "7", "--out", str(log)])
        else:
            log.write_text("\n".join(["tag_id,ant_x,ant_y,ant_z,freq_hz,phase,phase_unit", *rows]))
        capsys.readouterr()
        out = ["--out", str(tmp_path / "holo.csv")] if command == "hologram" else []
        code = cli([command, "--input", str(log), "--method", "clf",
                    "--config", str(config_path), *extra, *out])
        assert code == 2
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_unscorable_tag_is_data_error_on_every_worker_count(
        self, config_path, tmp_path, capsys, workers
    ):
        # reference:500 fails in every block of 4 cells, whichever share scores it
        log = tmp_path / "log.csv"
        cli(["simulate", "--config", str(config_path), "--seed", "7", "--out", str(log)])
        capsys.readouterr()
        with mock.patch.multiple(solver_mod, BLOCK=workers * 4 * 31, WORKERS=workers):
            code = cli(["locate", "--input", str(log), "--method", "clf",
                        "--config", str(config_path), "--scheme", "reference:500"])
        assert code == 2
        assert "tag T01: reference index 500" in capsys.readouterr().err

    @pytest.mark.parametrize("per_pass", [1, 2, 4, None], ids=["1", "2", "4", "real"])
    def test_stacked_passes_change_no_output(self, tmp_path, capsys, per_pass):
        # consecutive tags share a pass while their poses and carrier match:
        # "short" lost a read, "far" is on another carrier and "one", a tag
        # with one read, cannot be scored; each command must print and write
        # what scoring every tag alone with evaluate_hologram gives
        a, b = synthesize(scenario_for_logs()).values()
        flipped = SampleStream(a.poses, b.phases[::-1], a.carrier)
        tags = {
            "A": a, "B": b, "G": flipped,
            "short": SampleStream(a.poses[1:], a.phases[1:], a.carrier),
            "C": SampleStream(b.poses, a.phases, b.carrier),
            "far": SampleStream(a.poses, b.phases, CarrierConfig(867.5e6)),
            "D": SampleStream(a.poses, a.phases[::-1], a.carrier),
            "one": SampleStream(a.poses[:1], a.phases[:1], a.carrier),
            "E": b, "F": a, "H": flipped, "I": b, "J": a,
        }
        spec = MethodSpec("wclf")

        def passes(runs):  # the pass sizes runs of matching tags split into
            size = per_pass or 1000
            return [min(size, run - lo) for run in runs for lo in range(0, run, size)]

        for resolution in (0.05, 0.03):  # on a track, then off one (0.03 is no step ratio)
            region = SearchRegion(x=(0.0, 0.0), y=(-0.2, 0.2), z=(0.0, 0.4), resolution=resolution)
            flags = ["--method", "wclf", "--region", "x=0,y=-0.2:0.2,z=0:0.4",
                     "--resolution", str(resolution)]
            for bad, runs in ((True, [3, 1, 1, 1, 1]), (False, [3, 1, 1, 1, 6])):
                logged = {k: v for k, v in tags.items() if bad or k != "one"}
                run_dir = tmp_path / f"{resolution}-{bad}"
                (run_dir / "want").mkdir(parents=True)
                (run_dir / "got").mkdir()
                log = run_dir / "log.csv"
                export_phase_log(logged, log)

                # the reference: every tag scored alone, in log order
                located = io.StringIO()
                rows = csv.writer(located, lineterminator="\n")
                rows.writerow("tag_id,est_x,est_y,est_z,err_y,err_z,err_combined,peak_ratio".split(","))
                wrote, err = [], ""
                for tag_id, stream in logged.items():
                    try:
                        holo = evaluate_hologram(stream, region, spec)
                    except ValueError as exc:
                        err = f"data error: tag {tag_id}: {exc}\n"
                        break
                    est = argmax_estimate(holo, tag_id=tag_id)
                    p = est.position
                    rows.writerow([tag_id, repr(p.x), repr(p.y), repr(p.z), "", "", "",
                                   repr(est.peak_ratio)])
                    export_hologram(holo, run_dir / "want" / f"holo.{tag_id}.csv")
                    wrote.append(f"wrote hologram for {tag_id} to {run_dir / 'got' / f'holo.{tag_id}.csv'}\n")
                assert bool(err) == bad

                fixed = (mock.patch.object(GridEvaluator, "streams_per_pass", per_pass)
                         if per_pass else contextlib.nullcontext())
                spy = mock.patch.object(GridEvaluator, "holograms", autospec=True,
                                        side_effect=GridEvaluator.holograms)
                with fixed, spy as scored:
                    code = cli(["locate", "--input", str(log), *flags])
                    assert capsys.readouterr() == (located.getvalue(), err)
                    assert code == (2 if bad else 0)
                    sizes = [len(call.args[1]) for call in scored.call_args_list]
                    assert sizes == passes(runs)
                    code = cli(["hologram", "--input", str(log), *flags,
                                "--out", str(run_dir / "got" / "holo.csv")])
                    assert capsys.readouterr() == ("".join(wrote), err)
                    assert code == (2 if bad else 0)
                files = sorted(f.name for f in (run_dir / "want").iterdir())
                assert sorted(f.name for f in (run_dir / "got").iterdir()) == files
                for name in files:
                    got = (run_dir / "got" / name).read_bytes()
                    assert got == (run_dir / "want" / name).read_bytes(), name

    def test_missing_output_directory_fails_before_scoring(self, config_path, tmp_path, capsys):
        log = tmp_path / "log.csv"
        cli(["simulate", "--config", str(config_path), "--seed", "7", "--out", str(log)])
        capsys.readouterr()
        missing = tmp_path / "missing"
        with mock.patch.object(GridEvaluator, "raw_scores", side_effect=RuntimeError("scored")):
            code = cli(["hologram", "--input", str(log), "--method", "clf",
                        "--config", str(config_path), "--out", str(missing / "holo.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"data error: output directory {missing} does not exist\n"
        assert not missing.exists()

    @pytest.mark.parametrize("command, tags, rows_read", [
        ("locate", 1000, 1), ("locate", 1, 0), ("hologram", 1000, 1),
    ], ids=["locate-writing", "locate-at-exit", "hologram"])
    def test_closed_stdout_stops_silently(self, tmp_path, command, tags, rows_read):
        # 1000 tags with 200-character ids print far more than a pipe holds,
        # so lines are still being written when the reader leaves after one;
        # one tag's rows wait in stdout's buffer until the flush at exit (the
        # child's stdout is block-buffered, as for any pipe without -u).
        # locate's rows are its product, so it stops; hologram's files are,
        # so it drops its messages and writes every file
        log = tmp_path / "log.csv"
        tag_ids = [f"{'T' * 200}{k:04d}" for k in range(tags)]
        rows = [f"{tag_id},1.4,{y},0.0,866.9e6,1.0,radians" for tag_id in tag_ids for y in (0.0, 0.1)]
        log.write_text("\n".join(["tag_id,ant_x,ant_y,ant_z,freq_hz,phase,phase_unit", *rows]))
        out = tmp_path / "holo" / "h.csv"
        out.parent.mkdir()
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        paths = [str(Path(phaseloc.__file__).parents[1]), env.get("PYTHONPATH", "")]
        proc = subprocess.Popen(
            [sys.executable, "-c", "from phaseloc.io_eval.cli import main; main()",
             command, "--input", str(log), "--method", "clf",
             "--region", "x=0,y=0:0.1,z=0:0.1", "--resolution", "0.05",
             *(["--out", str(out)] if command == "hologram" else [])],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**env, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
        )
        try:
            for _ in range(rows_read):
                assert proc.stdout.readline().startswith(b"tag_id," if command == "locate" else b"wrote ")
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert err == b""
        assert proc.returncode == 0
        if command == "hologram":
            files = sorted(f.name for f in out.parent.iterdir())
            assert files == sorted(f"h.{tag_id}.csv" for tag_id in tag_ids)
            for name in files:
                # 4 header lines, the raw extremes, the column names, 9 cells
                assert (out.parent / name).read_text().count("\n") == 4 + 1 + 1 + 9

    def test_unknown_subcommand_usage_error(self, capsys):
        assert cli(["transmogrify"]) == 1

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code = cli(["locate", "--input", str(tmp_path / "nope.csv"), "--method", "clf",
                    "--region", "x=0,y=0:0.1,z=0:0.1"])
        assert code == 2

    @pytest.mark.parametrize("command", ["locate", "hologram"])
    def test_log_without_reads_is_data_error(self, config_path, tmp_path, capsys, command):
        log = tmp_path / "log.csv"
        log.write_text("tag_id,ant_x,ant_y,ant_z,freq_hz,phase,phase_unit\n")
        assert ingest_log(log) == {}
        out = ["--out", str(tmp_path / "holo.csv")] if command == "hologram" else []
        code = cli([command, "--input", str(log), "--method", "clf",
                    "--config", str(config_path), *out])
        captured = capsys.readouterr()
        assert code == 2
        assert f"data error: {log}: " in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log.csv", "scenario.cfg"]

    @pytest.mark.parametrize("command", ["locate", "hologram"])
    def test_log_not_utf8_is_data_error(self, config_path, tmp_path, capsys, command):
        log = tmp_path / "log.csv"
        header = b"tag_id,ant_x,ant_y,ant_z,freq_hz,phase,phase_unit\n"
        log.write_bytes(header + b"".join(
            b"T\xff1,1.4,%r,0.0,866.9e6,1.0,radians\n" % (0.02 * k) for k in range(11)
        ))
        with pytest.raises(LogFormatError, match=re.escape(f"{log}: not valid UTF-8: ")):
            ingest_log(log)
        out = ["--out", str(tmp_path / "holo.csv")] if command == "hologram" else []
        code = cli([command, "--input", str(log), "--method", "clf",
                    "--config", str(config_path), *out])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"data error: {log}: not valid UTF-8: invalid start byte b'\\xff'\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log.csv", "scenario.cfg"]

    @pytest.mark.parametrize("command", ["locate", "hologram"])
    def test_coincident_poses_are_data_error(self, tmp_path, capsys, command):
        # five reads of one tag, all at one pose, determine no position
        log = tmp_path / "log.csv"
        log.write_text("tag_id,ant_x,ant_y,ant_z,freq_hz,phase,phase_unit\n" + "".join(
            f"T01,1.4,0.0,0.0,866.9e6,{0.3 * k!r},radians\n" for k in range(5)
        ))
        out = ["--out", str(tmp_path / "holo.csv")] if command == "hologram" else []
        header = "tag_id,est_x,est_y,est_z,err_y,err_z,err_combined,peak_ratio\n"
        for method in ("wslf", "tagoram"):
            code = cli([command, "--input", str(log), "--method", method,
                        "--region", "x=0,y=-0.3:0.3,z=0:0.3", *out])
            captured = capsys.readouterr()
            assert code == 2, method
            assert captured.err == "data error: tag T01: poses hold fewer than two distinct positions\n"
            assert captured.out == (header if command == "locate" else "")
            assert [p.name for p in tmp_path.iterdir()] == ["log.csv"]

    def test_malformed_log_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("tag_id,ant_x,ant_y,ant_z,freq_hz,phase,phase_unit\nT,1.4,x,0,866.9e6,1,radians\n")
        code = cli(["locate", "--input", str(bad), "--method", "clf",
                    "--region", "x=0,y=0:0.1,z=0:0.1"])
        assert code == 2

    def test_misspelled_config_key_is_data_error(self, tmp_path, capsys):
        path = config_with(tmp_path / "bad.cfg", {"jump.probabilty": "0.9"})
        log = tmp_path / "log.csv"
        assert cli(["simulate", "--config", str(path), "--out", str(log)]) == 2
        assert "unknown key 'jump.probabilty'" in capsys.readouterr().err
        assert not log.exists()

    def test_help_exits_zero(self, capsys):
        assert cli(["--help"]) == 0

    def test_imports_leave_scipy_special_and_ndimage_out(self):
        # tagoram's erfc and find_peak_regions' labelling import them when
        # first called, so a fresh command that needs neither never pays
        code = (
            "import sys\n"
            "wanted = ('scipy.special', 'scipy.ndimage')\n"
            "import phaseloc\n"
            "print([m for m in wanted if m in sys.modules])\n"
            "import phaseloc.io_eval.cli\n"
            "print([m for m in wanted if m in sys.modules])\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split("\n") == ["[]", "[]", ""]

    def test_simulate_ticks_then_locate(self, config_path, tmp_path, capsys):
        log = tmp_path / "ticks.csv"
        assert cli([
            "simulate", "--config", str(config_path), "--seed", "7",
            "--out", str(log), "--phase-unit", "ticks",
        ]) == 0
        assert ",ticks" in log.read_text().splitlines()[1]
        assert cli([
            "locate", "--input", str(log), "--method", "clf",
            "--config", str(config_path),
        ]) == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if l.startswith("T0")]
        # tick quantization (~1.5e-3 rad) barely moves a noise-free peak
        for row in rows:
            assert float(row.split(",")[6]) <= math.hypot(0.02, 0.02) + 1e-12

    def test_bench_byte_identical_reports(self, config_path, tmp_path, capsys):
        args = lambda out: [
            "bench", "--config", str(config_path), "--method", "wclf,wslf",
            "--trials", "2", "--seed", "11", "--out", str(out),
        ]
        assert cli(args(tmp_path / "r1")) == 0
        assert cli(args(tmp_path / "r2")) == 0
        for name in ("report.txt", "report.csv", "errors.csv"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()
