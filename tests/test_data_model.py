import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freshkit.data_model import (
    SPLITS,
    BinaryMask,
    RecordTable,
    RgbImage,
    _parse_pnm_header,
    class_indices,
    grayscale_as_rgb,
    read_feature_csv,
    read_logit_csv,
    read_pgm,
    read_pgm_values,
    read_ppm,
    write_logit_csv,
    write_pgm,
    write_ppm,
)
from freshkit.errors import (
    BadLabelIndex,
    BadMagic,
    BadSplitTag,
    DimensionMismatch,
    InconsistentWidth,
    InputFormatError,
    MalformedHeader,
    NonFiniteLogit,
    TruncatedPayload,
    UnsupportedMaxval,
)


def assert_same_table(a, b):
    assert a.ids == b.ids
    assert a.splits == b.splits
    assert a.labels.dtype == b.labels.dtype == np.int64
    assert np.array_equal(a.labels, b.labels)
    assert a.values.dtype == b.values.dtype == np.float64
    assert a.values.shape == b.values.shape
    # bit for bit, so -0.0 and 0.0 differ
    assert a.values.tobytes() == b.values.tobytes()


def test_logit_csv_round_trip(tmp_path):
    table = RecordTable(
        ("a", "b", "c"), ("train", "test", "ood"), [0, 2, -1],
        [(0.1, -2.5, 3.25), (1e-17, 0.30000000000000004, -0.0), (5.0, 5.0, 5.0)],
    )
    path = tmp_path / "logits.csv"
    write_logit_csv(path, table)
    back = read_logit_csv(path)
    assert_same_table(back, table)
    # logit values survive the text round trip bit for bit
    assert back.values[1, 0] == 1e-17
    assert back.values[1, 1] == 0.30000000000000004


def test_splits_read_back_as_the_tag_strings(tmp_path):
    path = tmp_path / "tags.csv"
    write_logit_csv(path, RecordTable(("a", "b", "c", "d"), ("train", "val", "test", "ood"),
                                      [0, 0, 0, -1], [[1.0]] * 4))
    back = read_logit_csv(path)
    assert back.splits == SPLITS == ("train", "val", "test", "ood")
    assert all(type(split) is str for split in back.splits)


@pytest.mark.parametrize("split", ["holdout", "TEST", "", None])
def test_record_table_rejects_a_split_that_is_not_a_tag(split):
    # it would write a file that read_logit_csv refuses
    with pytest.raises(BadSplitTag) as err:
        RecordTable(("a", "b"), ("test", split), [0, 0], [[1.0], [2.0]])
    assert str(err.value) == f"unknown split {split!r}"


def test_record_table_columns_are_read_only():
    table = RecordTable(("a",), ("test",), [1], [[0.5, 1.5]])
    assert not table.labels.flags.writeable
    assert not table.values.flags.writeable
    with pytest.raises(ValueError):
        table.values[0, 0] = 2.0


@pytest.mark.parametrize("ids, splits, labels, values", [
    (("a", "b"), ("test",), [0, 0], [[1.0], [2.0]]),
    (("a", "b"), ("test", "test"), [0], [[1.0], [2.0]]),
    (("a", "b"), ("test", "test"), [0, 0], [[1.0]]),
    (("a", "b"), ("test", "test"), [0, 0], [1.0, 2.0]),
    (("a", "b"), ("test", "test"), [0, 0], np.zeros((2, 0))),
])
def test_record_table_rejects_misaligned_columns(ids, splits, labels, values):
    with pytest.raises(DimensionMismatch, match="columns do not line up"):
        RecordTable(ids, splits, labels, values)


def test_reader_gives_empty_table_for_header_only_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("id,split,label,x_0,x_1,x_2\n")
    table = read_feature_csv(path)
    assert table.ids == () and table.splits == ()
    assert table.labels.shape == (0,) and table.labels.dtype == np.int64
    assert table.values.shape == (0, 3) and table.values.dtype == np.float64
    with pytest.raises(DimensionMismatch, match="zero records"):
        write_logit_csv(tmp_path / "out.csv", table)


def test_feature_reader_rejects_labels_beyond_int64(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text(f"id,split,label,x_0\na,train,{2 ** 63 - 1},0.5\nb,train,{2 ** 63},0.5\n")
    with pytest.raises(BadLabelIndex) as err:
        read_feature_csv(path)
    assert str(err.value) == f"{path}:3: label {2 ** 63} does not fit in int64"


def test_logit_csv_empty_label_means_unlabeled(tmp_path):
    path = tmp_path / "unlabeled.csv"
    path.write_text("id,split,label,logit_0,logit_1\nb,ood,,1.0,1.0\n")
    table = read_logit_csv(path)
    assert table.labels.tolist() == [-1]
    # and the writer puts the empty field back
    out = tmp_path / "back.csv"
    write_logit_csv(out, table)
    assert ",ood,,1.0,1.0" in out.read_text()


def test_logit_csv_header_is_strict(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,split,label,score_0,score_1\na,train,0,1.0,2.0\n")
    with pytest.raises(MalformedHeader):
        read_logit_csv(path)
    # but a caller may rename the prefix explicitly
    table = read_logit_csv(path, column_prefix="score")
    assert table.values.tolist() == [[1.0, 2.0]]


def test_logit_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("id,split,label,logit_0,logit_1\na,train,0,1.0,2.0\nb,val,1,3.0\n")
    with pytest.raises(InconsistentWidth) as err:
        read_logit_csv(path)
    assert ":3:" in str(err.value)


def test_logit_csv_rejects_non_finite(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("id,split,label,logit_0,logit_1\na,train,0,nan,2.0\n")
    with pytest.raises(NonFiniteLogit):
        read_logit_csv(path)
    path.write_text("id,split,label,logit_0,logit_1\na,train,0,inf,2.0\n")
    with pytest.raises(NonFiniteLogit):
        read_logit_csv(path)


def test_logit_csv_rejects_bad_label(tmp_path):
    path = tmp_path / "label.csv"
    path.write_text("id,split,label,logit_0,logit_1\na,train,7,1.0,2.0\n")
    with pytest.raises(BadLabelIndex):
        read_logit_csv(path)
    path.write_text("id,split,label,logit_0,logit_1\na,train,-2,1.0,2.0\n")
    with pytest.raises(BadLabelIndex):
        read_logit_csv(path)


def test_logit_csv_rejects_bad_split(tmp_path):
    path = tmp_path / "split.csv"
    path.write_text("id,split,label,logit_0,logit_1\na,holdout,0,1.0,2.0\n")
    with pytest.raises(BadSplitTag):
        read_logit_csv(path)


def test_feature_csv_labels_are_not_bounded_by_width(tmp_path):
    # two feature columns, four classes: fine for features, not for logits
    path = tmp_path / "features.csv"
    path.write_text("id,split,label,x_0,x_1\na,train,3,0.5,-1.0\nb,ood,,0.0,0.0\n")
    table = read_feature_csv(path)
    assert table.labels.tolist() == [3, -1]
    with pytest.raises(BadLabelIndex):
        read_logit_csv(path, column_prefix="x")


def test_feature_csv_still_rejects_negative_labels(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text("id,split,label,x_0\na,train,-2,0.5\n")
    with pytest.raises(BadLabelIndex):
        read_feature_csv(path)


LOGITS_2 = "id,split,label,logit_0,logit_1\n"


@pytest.mark.parametrize("read, text, error, message", [
    (read_logit_csv, "", MalformedHeader, ": empty file"),
    (read_logit_csv, "id,split,label\n", MalformedHeader,
     ": header must start with id,split,label"),
    (read_logit_csv, "id,split,lable,logit_0\n", MalformedHeader,
     ": header must start with id,split,label"),
    (read_logit_csv, "id,split,label,logit_0,logit_2\n", MalformedHeader,
     ": logit columns must be logit_0..logit_1"),
    (read_logit_csv, LOGITS_2 + "a,train,0,1.0,2.0\nb,val,1,3.0\n", InconsistentWidth,
     ":3: expected 5 fields, got 4"),
    (read_logit_csv, LOGITS_2 + "a,holdout,0,1.0,2.0\n", BadSplitTag,
     ":2: unknown split 'holdout'"),
    (read_logit_csv, LOGITS_2 + "a,train,0,1.0,2.0\nb,test,1.0,1.0,2.0\n", BadLabelIndex,
     ":3: label '1.0' is not an integer"),
    (read_logit_csv, LOGITS_2 + "a,train,2,1.0,2.0\n", BadLabelIndex,
     ":2: label 2 outside [-1, 2)"),
    (read_logit_csv, LOGITS_2 + "a,train,-2,1.0,2.0\n", BadLabelIndex,
     ":2: label -2 outside [-1, 2)"),
    (read_feature_csv, "id,split,label,x_0\na,train,-2,0.5\n", BadLabelIndex,
     ":2: label -2 outside [-1, inf)"),
    (read_logit_csv, LOGITS_2 + "a,train,0,1.0,2.0\nb,ood,,abc,2.0\n", NonFiniteLogit,
     ":3: logit 'abc' is not a float"),
    (read_logit_csv, LOGITS_2 + "a,train,0,1.0,-inf\n", NonFiniteLogit,
     ":2: non-finite logit '-inf'"),
])
def test_reader_errors_name_path_and_row(tmp_path, read, text, error, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(error) as err:
        read(path)
    assert str(err.value) == f"{path}{message}"


@pytest.mark.parametrize("cell, value", [("1_0", 10.0), (" 1", 1.0), ("-0.0", -0.0),
                                         ("1e-320", 1e-320)])
def test_reader_accepts_what_float_accepts(tmp_path, cell, value):
    path = tmp_path / "t.csv"
    path.write_text(f"id,split,label,logit_0\na,test,0,{cell}\n")
    got = read_logit_csv(path).values[0, 0]
    assert got == value
    assert math.copysign(1.0, got) == math.copysign(1.0, value)


@pytest.mark.parametrize("cell, message", [
    ("nan", "non-finite logit 'nan'"),
    ("inf", "non-finite logit 'inf'"),
    ("1e400", "non-finite logit '1e400'"),
    ("0x1", "logit '0x1' is not a float"),
    ("", "logit '' is not a float"),
])
def test_reader_rejects_what_float_rejects_or_overflows(tmp_path, cell, message):
    path = tmp_path / "t.csv"
    path.write_text(f"id,split,label,logit_0\na,test,0,{cell}\n")
    with pytest.raises(NonFiniteLogit) as err:
        read_logit_csv(path)
    assert str(err.value) == f"{path}:2: {message}"


def test_writer_accepts_numpy_scalars(tmp_path):
    value = np.float64(0.1) + np.float64(0.2)
    table = RecordTable(("a",), ("train",), [np.int64(0)], [(value,)])
    path = tmp_path / "np.csv"
    write_logit_csv(path, table)
    assert path.read_text().splitlines()[1] == "a,train,0,0.30000000000000004"
    assert read_logit_csv(path).values[0, 0] == float(value)


def test_binary_mask_validation():
    mask = BinaryMask(np.zeros((3, 4), dtype=bool))
    assert mask.pixels.shape == (3, 4)
    assert not mask.pixels.flags.writeable
    with pytest.raises(DimensionMismatch):
        BinaryMask(np.zeros((3, 4, 2), dtype=bool))


def test_rgb_image_validation():
    img = RgbImage(np.zeros((2, 2, 3), dtype=np.uint8))
    assert img.pixels.dtype == np.uint8
    with pytest.raises(DimensionMismatch):
        RgbImage(np.zeros((2, 2), dtype=np.uint8))


def test_mask_equality_is_by_content():
    a = BinaryMask(np.eye(3, dtype=bool))
    b = BinaryMask(np.eye(3, dtype=bool))
    c = BinaryMask(np.zeros((3, 3), dtype=bool))
    assert a == b
    assert a != c


def test_pgm_round_trip(tmp_path):
    mask = BinaryMask(np.array([[True, False], [False, True], [True, True]]))
    path = tmp_path / "m.pgm"
    write_pgm(path, mask)
    assert read_pgm(path) == mask


def test_pgm_thresholds_at_128(tmp_path):
    path = tmp_path / "gray.pgm"
    payload = bytes([0, 127, 128, 255])
    path.write_bytes(b"P5\n2 2\n255\n" + payload)
    mask = read_pgm(path)
    assert mask.pixels.tolist() == [[False, False], [True, True]]
    assert read_pgm_values(path).tolist() == [[0, 127], [128, 255]]


def test_pnm_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n\x00\xff")
    assert read_pgm(path).pixels.tolist() == [[False, True]]


def test_pnm_bad_magic(tmp_path, monkeypatch):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P7\n1 1\n255\n\x00")
    monkeypatch.chdir(tmp_path)
    # a str is named as its Path is, ./ and doubled slashes dropped
    for given, shown in ((path, path), (str(path), path), ("./x.pgm", "x.pgm"),
                         (Path("./x.pgm"), "x.pgm"), (f"{tmp_path}//./x.pgm", path)):
        with pytest.raises(BadMagic) as err:
            read_pgm(given)
        assert str(err.value) == f"{shown}: expected P5 file"


def test_pnm_unsupported_maxval(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(UnsupportedMaxval):
        read_pgm(path)


@pytest.mark.parametrize("header, digits", [(b"P6\n" + b"1" * 19 + b" 1\n255\n", 19),
                                            (b"P6 1 " + b"9" * 5000 + b" 255\n", 5000)])
def test_pnm_header_number_too_long_to_read(tmp_path, header, digits):
    # int() raised a raw ValueError past 4300 digits
    path = tmp_path / "x.ppm"
    path.write_bytes(header + bytes(3))
    with pytest.raises(InputFormatError) as info:
        read_ppm(path)
    assert str(info.value) == f"{path}: header number has {digits} digits, over 18"


def test_pnm_header_leading_zeros_do_not_count():
    data = b"P5 " + b"0" * 5000 + b"2 1 255\n\x00\xff"
    assert _parse_pnm_header(data, Path("z.pgm"), b"P5") == (2, 1, len(data) - 2)


def test_pnm_truncated_payload(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n2 2\n255\n\x00\x01")
    with pytest.raises(TruncatedPayload):
        read_pgm(path)


# header pieces: every whitespace byte, CR LF, comments, leading zeros,
# zero dimensions and other maxvals, and no byte or a payload byte after maxval
PNM_SPACES = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\r\n", b"\x0b", b"\x0c", b"  \n"])
PNM_GAPS = st.one_of(PNM_SPACES, st.sampled_from([b"# note\n", b"\n#\tx\r\n ", b"#", b""]))
PNM_DIGITS = st.one_of(st.integers(0, 70).map(lambda v: str(v).encode()),
                       st.sampled_from([b"0", b"00", b"007", b"0255", b"255", b"256", b"65535",
                                        b"9" * 18, b"1" * 19, b"0" * 5000 + b"7", b"9" * 5000]))
PNM_NUMBERS = st.one_of(PNM_DIGITS, st.just(b"x"))
PNM_ENDS = st.sampled_from([b"", b" ", b"\n", b"\r\n", b"\t\x00", b"\n\n\xff", b"\xff", b"#"])


# magic, width, height (up to 18 digits) and maxval 255, each after whitespace,
# then one whitespace byte: \s and \d of a bytes pattern are bytes.isspace and isdigit
PLAIN_PNM_HEADER = re.compile(rb"(P[56])\s+(\d{1,18})\s+(\d{1,18})\s+255\s")


@settings(derandomize=True, max_examples=600, deadline=None)
@given(st.data())
def test_pnm_header_parser_reads_plain_headers_as_the_regex_does(data):
    expect = data.draw(st.sampled_from([b"P5", b"P6"]), label="expect")
    if data.draw(st.booleans(), label="plain"):  # the shape the regex reads, give or take
        magic = data.draw(st.sampled_from([b"P5", b"P6"]))  # a PGM read as PPM, or not
        gaps, numbers = PNM_SPACES, PNM_DIGITS
    else:
        magic = data.draw(st.sampled_from([expect, b"P5", b"P6", b"P7", b"P"]))
        gaps, numbers = PNM_GAPS, PNM_NUMBERS
    fields = [data.draw(numbers), data.draw(numbers),
              data.draw(st.one_of(st.just(b"255"), numbers))]
    header = magic + b"".join(data.draw(gaps) + field for field in fields) + data.draw(PNM_ENDS)
    plain = PLAIN_PNM_HEADER.match(header)
    if plain and plain[1] == expect and int(plain[2]) >= 1 and int(plain[3]) >= 1:
        assert _parse_pnm_header(header, Path("h.pnm"), expect) == (
            int(plain[2]), int(plain[3]), plain.end())
        return
    try:
        width, height, offset = _parse_pnm_header(header, Path("h.pnm"), expect)
    except InputFormatError:  # any other exception type fails the test
        return
    assert header.startswith(expect) and width >= 1 and height >= 1
    assert 0 < offset <= len(header) and header[offset - 1:offset].isspace()


@pytest.mark.parametrize("header, magic", [(b"P52 1 255\n\x00\x00", b"P5"),
                                           (b"P61 1 255\n\x00\x00\x00", b"P6"),
                                           (b"P5007 1 255\n", b"P5")])
def test_pnm_header_number_glued_to_the_magic_is_rejected(header, magic):
    # P52 1 255 was read as width 2, though Netpbm requires whitespace after the magic
    with pytest.raises(BadMagic, match=rf"^g\.pnm: no whitespace after {magic.decode()}$"):
        _parse_pnm_header(header, Path("g.pnm"), magic)


def test_pnm_comment_right_after_the_magic_parses():
    data = b"P5#c\n2 1 255\n\x00\x00"
    assert _parse_pnm_header(data, Path("c.pgm"), b"P5") == (2, 1, len(data) - 2)


# --- class indices -----------------------------------------------------------

def _class_indices_reference(labels: np.ndarray, n_classes: int, name: str):
    """The int64 indices, or the BadLabelIndex message, read one Python label at a time."""
    if labels.dtype.kind not in "biuf":
        return f"{name} dtype {labels.dtype} is not bool, integer or float"
    values = labels.tolist()  # Python bool, int or float, each exactly as stored
    for v in values:
        if not (math.isfinite(v) and v == math.floor(v)):
            return f"{name} {v!r} is not an integer"
    for v in values:
        if not 0 <= v < n_classes:
            return f"{name} {v!r} outside [0, {n_classes})"
    return [int(v) for v in values]


INT_EDGES = [-2 ** 63, -2 ** 63 + 1, -1, 0, 1, 2, 3, 4, 5, 127, 255, 2 ** 31, 2 ** 63 - 1,
             2 ** 63, 2 ** 64 - 1]
FLOAT_EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 0.5, 1.5, -1.0, 1.0, 2.0, 3.0,
               4.0, 5.0, -2.0 ** 63, 2.0 ** 63, 1e30, -1e-300, 4.000000000000001]


@st.composite
def label_arrays(draw):
    dtype = np.dtype(draw(st.sampled_from(
        ["b", "i1", "i2", "i4", "i8", "u1", "u2", "u4", "u8", "f2", "f4", "f8", "U", "c16", "O"])))
    if dtype.kind == "b":
        return np.array(draw(st.lists(st.booleans(), max_size=6)), dtype=dtype)
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        ints = st.sampled_from([v for v in INT_EDGES if info.min <= v <= info.max])
        return np.array(draw(st.lists(ints, max_size=6)), dtype=dtype)
    if dtype.kind == "f":
        floats = st.one_of(st.sampled_from(FLOAT_EDGES), st.floats(-10.0, 10.0))
        with np.errstate(over="ignore"):  # float16 holds 1e30 and 2**63 as inf
            return np.array(draw(st.lists(floats, max_size=6)), dtype=dtype)
    if dtype.kind == "U":
        return np.array([str(v) for v in draw(st.lists(st.integers(0, 3), max_size=6))])
    if dtype.kind == "c":
        return np.array(draw(st.lists(st.integers(0, 3), max_size=6)), dtype=dtype)
    return np.array(draw(st.lists(st.sampled_from([0, 1, None, 2 ** 64]), max_size=6)),
                    dtype=object)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(labels=label_arrays(), n_classes=st.integers(1, 5))
def test_class_indices_equal_a_per_label_reference(labels, n_classes):
    expected = _class_indices_reference(labels, n_classes, "y")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a cast that warns is a failure
        try:
            got = class_indices(labels, n_classes, "y")
        except BadLabelIndex as err:
            assert str(err) == expected
        else:
            assert got.dtype == np.int64 and got.tolist() == expected


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = RgbImage(rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8))
    path = tmp_path / "img.ppm"
    write_ppm(path, img)
    assert read_ppm(path) == img


def test_ppm_rejects_pgm_magic(tmp_path):
    path = tmp_path / "x.ppm"
    path.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(BadMagic):
        read_ppm(path)


def test_grayscale_as_rgb():
    gray = np.array([[0, 128], [255, 7]], dtype=np.uint8)
    img = grayscale_as_rgb(gray)
    assert img.pixels.shape == (2, 2, 3)
    assert np.array_equal(img.pixels[..., 0], gray)
    assert np.array_equal(img.pixels[..., 1], gray)
    assert np.array_equal(img.pixels[..., 2], gray)
