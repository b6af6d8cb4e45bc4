import math
import os
import re
import warnings

import numpy as np
import pytest

from fairmix.dataset import (
    ColumnMeta,
    Dataset,
    ModalityTable,
    SampleMeta,
    atomic_write,
    binarize_panas,
    load_dataset,
    save_dataset,
)
from fairmix.errors import (
    AlignmentError,
    DataError,
    DegenerateGroupWarning,
    InputError,
    ParseError,
    SchemaError,
)

from conftest import make_dataset


def write(path, text):
    path.write_text(text, encoding="utf-8")


def make_files(tmp_path, n_rows=4, missing_id=False, bad_cell=False, dup_id=False):
    ids = [f"c{i}" for i in range(n_rows)]
    face_rows = []
    for i, sid in enumerate(ids):
        if missing_id and i == n_rows - 1:
            continue
        face_rows.append(f"{sid},{i * 1.5},{'oops' if bad_cell and i == 1 else i + 0.25}")
    if dup_id:
        face_rows.append(face_rows[0])
    write(tmp_path / "face.csv", "sample_id,f1,f2\n" + "\n".join(face_rows) + "\n")
    meta_rows = [f"{sid},subj{i % 2},{30 + 2 * i},{i % 2}" for i, sid in enumerate(ids)]
    write(tmp_path / "meta.csv", "sample_id,subject_id,pa_score,gender\n" + "\n".join(meta_rows) + "\n")
    write(tmp_path / "levels.csv", "feature_name,level\nf1,high\nf2,low\n")
    write(
        tmp_path / "manifest.txt",
        "modality.face=face.csv\nlevels.face=levels.csv\nmetadata=meta.csv\npanas_threshold=33.3\n",
    )
    return tmp_path / "manifest.txt"


class TestBinarizePanas:
    def test_above_threshold(self):
        assert binarize_panas(40.0, 33.3) == 1

    def test_below_threshold(self):
        assert binarize_panas(20.0, 33.3) == 0

    def test_exactly_at_threshold_is_low(self):
        # boundary fixed by the strict-inequality rule
        assert binarize_panas(33.3, 33.3) == 0

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            binarize_panas(math.nan)


class TestLoadDataset:
    def test_happy_path(self, tmp_path):
        ds = load_dataset(str(make_files(tmp_path)))
        assert ds.n_samples == 4
        assert ds.modality_names == ("face",)
        assert ds.declared_attributes == ("gender",)
        # pa_scores 30,32,34,36 at threshold 33.3 -> labels 0,0,1,1
        assert list(ds.labels()) == [0, 0, 1, 1]
        assert ds.modality("face").column_meta[0].level == "high"

    def test_row_order_follows_metadata(self, tmp_path):
        ds = load_dataset(str(make_files(tmp_path)))
        assert ds.sample_ids() == ["c0", "c1", "c2", "c3"]
        assert ds.modality("face").samples[2, 0] == 3.0

    def test_missing_sample_id_in_modality(self, tmp_path):
        with pytest.raises(AlignmentError, match="c3"):
            load_dataset(str(make_files(tmp_path, missing_id=True)))

    def test_non_numeric_cell(self, tmp_path):
        with pytest.raises(ParseError, match="f2"):
            load_dataset(str(make_files(tmp_path, bad_cell=True)))

    @pytest.mark.parametrize("threshold", ["abc", "nan"])
    def test_bad_panas_threshold(self, tmp_path, threshold):
        manifest = make_files(tmp_path)
        write(manifest, manifest.read_text().replace("=33.3", f"={threshold}"))
        with pytest.raises(ParseError, match="panas_threshold"):
            load_dataset(str(manifest))

    def test_duplicate_sample_id(self, tmp_path):
        with pytest.raises(SchemaError, match="duplicate"):
            load_dataset(str(make_files(tmp_path, dup_id=True)))

    @pytest.mark.parametrize("lines, named", [
        ("panas_treshold=90", "['panas_treshold']"),
        ("modalty.x=face.csv", "['modalty.x']"),
        ("levels.audio=levels.csv", "['levels.audio']"),  # no modality.audio
        ("panas_treshold=90\nmodalty.x=face.csv", "['panas_treshold', 'modalty.x']"),
    ])
    def test_unknown_manifest_keys_named(self, tmp_path, lines, named):
        manifest = make_files(tmp_path)
        write(manifest, manifest.read_text() + lines + "\n")
        with pytest.raises(SchemaError, match=re.escape(f"unknown keys {named}")):
            load_dataset(str(manifest))

    def test_empty_modality_name(self, tmp_path):
        manifest = make_files(tmp_path)
        write(manifest, manifest.read_text() + "modality.=face.csv\n")
        with pytest.raises(SchemaError) as info:
            load_dataset(str(manifest))
        assert str(info.value) == f"{manifest}: key 'modality.' has an empty modality name"

    def test_levels_row_for_an_absent_feature(self, tmp_path):
        manifest = make_files(tmp_path)
        write(tmp_path / "levels.csv", "feature_name,level\nf1,high\nf9,low\nf2,low\n")
        with pytest.raises(SchemaError, match="levels.csv: features \\['f9'\\] are not in"):
            load_dataset(str(manifest))

    def test_repeated_attribute_column_rejected(self, tmp_path):
        write(tmp_path / "f.csv", "sample_id,f1\na,1.0\nb,2.0\n")
        write(tmp_path / "m.csv", "sample_id,subject_id,label,gender,gender\na,s0,1,1,0\nb,s1,0,0,1\n")
        write(tmp_path / "man.txt", "modality.f=f.csv\nmetadata=m.csv\n")
        with pytest.raises(SchemaError, match="attribute 'gender' is declared more than once"):
            load_dataset(str(tmp_path / "man.txt"))

    def test_single_row_warns_degenerate(self, tmp_path):
        write(tmp_path / "f.csv", "sample_id,f1\na,1.0\n")
        write(tmp_path / "m.csv", "sample_id,subject_id,label,gender\na,s0,1,1\n")
        write(tmp_path / "man.txt", "modality.f=f.csv\nmetadata=m.csv\n")
        with pytest.warns(DegenerateGroupWarning):
            ds = load_dataset(str(tmp_path / "man.txt"))
        assert ds.n_samples == 1

    def test_missing_cells_loaded_as_nan(self, tmp_path):
        write(tmp_path / "f.csv", "sample_id,f1\na,\nb,2.0\n")
        write(tmp_path / "m.csv", "sample_id,subject_id,label,g\na,s0,1,1\nb,s1,0,0\n")
        write(tmp_path / "man.txt", "modality.f=f.csv\nmetadata=m.csv\n")
        ds = load_dataset(str(tmp_path / "man.txt"))
        assert math.isnan(ds.modality("f").samples[0, 0])


class TestRoundTrip:
    def test_save_then_load_is_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        ds = make_dataset(
            {"face": rng.normal(size=(6, 3)), "audio": rng.normal(size=(6, 2))},
            labels=[0, 1, 0, 1, 1, 0],
            attrs=[[1], [0], [1], [0], [1], [1]],
        )
        manifest = save_dataset(ds, str(tmp_path))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            back = load_dataset(manifest)
        assert back.sample_ids() == ds.sample_ids()
        assert back.meta == ds.meta
        for a, b in zip(ds.modalities, back.modalities):
            assert a.modality_name == b.modality_name
            assert a.column_meta == b.column_meta
            np.testing.assert_array_equal(a.samples, b.samples)  # bitwise

    def test_save_then_load_gives_equal_columns(self, tmp_path):
        rng = np.random.default_rng(6)
        ds = make_dataset(
            {"face": rng.normal(size=(5, 2))},
            labels=[1, 0, 0, 1, 1],
            attrs=[[1, 0], [0, 0], [1, 1], [0, 1], [1, 1]],
            subject_ids=["p", "p", "q", "r", "r"],
            attr_names=("gender", "race"),
        )
        back = load_dataset(save_dataset(ds, str(tmp_path)))
        assert back.declared_attributes == ds.declared_attributes
        for column in ("sample_id", "subject_id", "label", "attrs"):
            np.testing.assert_array_equal(getattr(back, column), getattr(ds, column))
        assert back.attrs.shape == (5, 2)

    def test_nan_cells_survive_round_trip(self, tmp_path):
        X = np.array([[1.0, np.nan], [3.0, 4.0]])
        ds = make_dataset({"m": X}, labels=[0, 1], attrs=[[0], [1]])
        back = load_dataset(save_dataset(ds, str(tmp_path)))
        out = back.modality("m").samples
        assert math.isnan(out[0, 1]) and out[1, 1] == 4.0


class TestAtomicWrite:
    def test_bytes_on_disk_are_the_string(self, tmp_path):
        atomic_write(str(tmp_path / "sub" / "f.txt"), "a\r\nb\nc\r")
        assert (tmp_path / "sub" / "f.txt").read_bytes() == b"a\r\nb\nc\r"
        assert os.listdir(tmp_path / "sub") == ["f.txt"]

    @pytest.mark.parametrize("old", [None, "old text"])
    def test_failed_replace_leaves_no_temporary_file(self, tmp_path, monkeypatch, old):
        target = tmp_path / "f.txt"
        if old is not None:
            target.write_text(old)

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(DataError, match=re.escape(f"cannot write {target}: replace refused")):
            atomic_write(str(target), "new text")
        assert os.listdir(tmp_path) == ([] if old is None else ["f.txt"])
        if old is not None:
            assert target.read_text() == old


class TestAlignmentInvariant:
    def test_subset_keeps_alignment(self, two_group_dataset):
        sub = two_group_dataset.subset([3, 1, 5])
        assert [m.sample_id for m in sub.meta] == ["id3", "id1", "id5"]
        np.testing.assert_array_equal(
            sub.modality("face").samples[1],
            two_group_dataset.modality("face").samples[1],
        )


def _columns(n=3, attr_names=("gender", "race")):
    return dict(
        modalities=(ModalityTable("m", np.zeros((n, 1)), (ColumnMeta("f"),)),),
        sample_id=[f"r{i}" for i in range(n)],
        subject_id=[f"s{i}" for i in range(n)],
        label=[i % 2 for i in range(n)],
        attrs=[[i % 2, (i + 1) % 2] for i in range(n)],
        declared_attributes=attr_names,
    )


class TestColumns:
    @pytest.mark.parametrize("column, value", [
        ("sample_id", ["r0", "r1"]),
        ("subject_id", ["s0", "s1", "s2", "s3"]),
        ("label", [0, 1]),
        ("attrs", [[0, 1], [1, 0]]),
        ("attrs", [[0], [1], [0]]),  # one attribute column for two declared
    ])
    def test_mismatched_column_raises_schema_error(self, column, value):
        kwargs = _columns()
        kwargs[column] = value
        with pytest.raises(SchemaError, match="column shapes"):
            Dataset(**kwargs)

    def test_duplicate_sample_id_named(self):
        kwargs = _columns(4)
        kwargs["sample_id"] = ["a", "b", "a", "b"]
        with pytest.raises(SchemaError, match="duplicate sample_id 'a'$"):
            Dataset(**kwargs)

    def test_repeated_attribute_name_rejected(self):
        kwargs = _columns(attr_names=("race", "race"))
        with pytest.raises(SchemaError, match="attribute 'race' is declared more than once"):
            Dataset(**kwargs)

    def test_meta_is_built_from_the_columns(self):
        ds = Dataset(**_columns())
        assert ds.meta == (
            SampleMeta("r0", "s0", 0, (("gender", 0), ("race", 1))),
            SampleMeta("r1", "s1", 1, (("gender", 1), ("race", 0))),
            SampleMeta("r2", "s2", 0, (("gender", 0), ("race", 1))),
        )
        assert all(type(m.sample_id) is str and type(m.label) is int for m in ds.meta)

    def test_accessors_return_the_columns(self):
        ds = Dataset(**_columns())
        assert ds.sample_ids() == ["r0", "r1", "r2"]
        assert all(type(s) is str for s in ds.subject_ids())
        np.testing.assert_array_equal(ds.attribute_values("race"), [1, 0, 1])
        with pytest.raises(KeyError):
            ds.attribute_values("age")

    def test_degenerate_columns_warn(self):
        kwargs = _columns()
        kwargs["attrs"] = [[1, 0], [1, 1], [1, 0]]
        with pytest.warns(DegenerateGroupWarning, match="'gender'"):
            Dataset(**kwargs)


FACE = "sample_id,f1,f2\nc0,0.5,1.25\nc1,1.5,2.25\nc2,2.5,3.25\n"
META = "sample_id,subject_id,label,gender\nc0,s0,0,1\nc1,s1,1,0\nc2,s0,1,1\n"
META2 = "sample_id,subject_id,label,gender,race\nc0,s0,0,1,0\nc1,s1,1,0,1\nc2,s0,1,1,1\n"


def load_error(tmp_path, face=FACE, meta=META, levels=None):
    """The exception load_dataset raises on the given feature, metadata and
    (when given) levels text."""
    write(tmp_path / "face.csv", face)
    write(tmp_path / "meta.csv", meta)
    manifest = "modality.face=face.csv\nmetadata=meta.csv\n"
    if levels is not None:
        write(tmp_path / "levels.csv", levels)
        manifest += "levels.face=levels.csv\n"
    write(tmp_path / "man.txt", manifest)
    with pytest.raises(Exception) as info:
        load_dataset(str(tmp_path / "man.txt"))
    return info.value


class TestLoadErrorMessages:
    """Full messages: each names the file, the first offending row (counting
    the header as row 1) and, for a cell, its column and text."""

    @pytest.mark.parametrize("face, error, message", [
        (FACE.replace("2.25", "x2"), ParseError,
         "row 3, column 'f2': non-numeric value 'x2'"),
        (FACE.replace("1.5", "-inf"), ParseError, "row 3, column 'f1': infinite value"),
        (FACE.replace("c1,1.5,2.25", "c1,1.5"), SchemaError, "row 3: expected 3 cells, got 2"),
        (FACE.replace("c2,2.5", "c0,2.5"), SchemaError, "duplicate sample_id 'c0'"),
        # the first offending cell in reading order wins over later faults
        (FACE.replace("2.25", "x2").replace("3.25", "y").replace("0.5", "1e999"),
         ParseError, "row 2, column 'f1': infinite value"),
        (FACE.replace("2.25", "x2").replace("c2,2.5,3.25", "c2"), ParseError,
         "row 3, column 'f2': non-numeric value 'x2'"),
        (FACE.replace("c0,0.5,1.25", "c0,0.5").replace("2.25", "x2"), SchemaError,
         "row 2: expected 3 cells, got 2"),
        (FACE.replace("c1,1.5", "c0,1.5").replace("2.25", "x2"), SchemaError,
         "duplicate sample_id 'c0'"),
        (FACE.replace("sample_id,f1,f2", "sample_id,f1,f1"), SchemaError,
         "row 1: column 'f1' is named more than once"),
        ("sample_id\nc0\nc1\nc2\n", SchemaError, "no feature columns after 'sample_id'"),
    ])
    def test_feature_file(self, tmp_path, face, error, message):
        exc = load_error(tmp_path, face=face)
        assert type(exc) is error
        assert str(exc) == f"{tmp_path / 'face.csv'}: {message}"

    @pytest.mark.parametrize("meta, error, message", [
        (META.replace("c2,s0,1,1", "c0,s0,1,1"), SchemaError, "duplicate sample_id 'c0'"),
        (META.replace("c1,s1,1,0", "c1,s1,2,0"), ParseError, "row 3: label must be 0 or 1, got '2'"),
        (META.replace("c1,s1,1,0", "c1,s1,0.5,0"), ParseError,
         "row 3: label must be 0 or 1, got '0.5'"),
        (META.replace("c2,s0,1,1", "c2,s0,1,yes"), ParseError,
         "row 4, column 'gender': non-numeric value 'yes'"),
        (META.replace("c2,s0,1,1", "c2,s0,1,2"), ParseError,
         "row 4: attribute 'gender' must be 0 or 1, got '2'"),
        (META.replace("c2,s0,1,1", "c2,s0,1,"), ParseError,
         "row 4: attribute 'gender' must be 0 or 1, got ''"),
        (META.replace("c1,s1,1,0", "c1,s1,,0"), ParseError, "row 3: missing label"),
        (META.replace("c1,s1,1,0", "c1,s1,inf,0"), ParseError,
         "row 3, column 'label': infinite value"),
        (META.replace("c1,s1,1,0", "c1,s1,1"), SchemaError, "row 3: expected 4 cells, got 3"),
        ("sample_id,subject_id,label,gender\n", SchemaError, "no data rows"),
        # within a row, the first offending cell in column order wins
        (META2.replace("c1,s1,1,0,1", "c1,s1,1,2,x"), ParseError,
         "row 3: attribute 'gender' must be 0 or 1, got '2'"),
        (META2.replace("c1,s1,1,0,1", "c1,s1,2,x,1"), ParseError,
         "row 3: label must be 0 or 1, got '2'"),
        # an attribute may not repeat one of the three fixed columns
        (META2.replace("label,gender", "label,subject_id"), SchemaError,
         "row 1: column 'subject_id' is named more than once"),
        (META2.replace("gender,race", "gender,sample_id"), SchemaError,
         "row 1: column 'sample_id' is named more than once"),
        (META.replace("gender", "label", 1), SchemaError,
         "row 1: column 'label' is named more than once"),
    ])
    def test_metadata_file(self, tmp_path, meta, error, message):
        exc = load_error(tmp_path, meta=meta)
        assert type(exc) is error
        assert str(exc) == f"{tmp_path / 'meta.csv'}: {message}"

    def test_pa_score_is_checked_before_attributes(self, tmp_path):
        meta = META.replace("label", "pa_score").replace("c1,s1,1,0", "c1,s1,abc,7")
        exc = load_error(tmp_path, meta=meta)
        assert str(exc) == f"{tmp_path / 'meta.csv'}: row 3, column 'pa_score': non-numeric value 'abc'"

    @pytest.mark.parametrize("levels, message", [
        ("feature_name,level\nf1,high\nf2,low\nf1,low\n",
         "row 4: feature 'f1' is listed more than once"),
        # the first offending row in reading order wins over later faults
        ("feature_name,level\nf1,high\nf1,high\nf2,mid\n",
         "row 3: feature 'f1' is listed more than once"),
        ("feature_name,level\nf1,high,oops\nf2,low\n", "row 2: expected 2 cells, got 3"),
        ("feature_name,level,extra\nf1,high\n", "expected header 'feature_name,level'"),
    ])
    def test_levels_file(self, tmp_path, levels, message):
        exc = load_error(tmp_path, levels=levels)
        assert type(exc) is SchemaError
        assert str(exc) == f"{tmp_path / 'levels.csv'}: {message}"

    @pytest.mark.parametrize("face, missing", [
        (FACE.replace("c1,1.5,2.25\n", ""), "c1"),
        ("sample_id,f1,f2\n", "c0"),  # a feature file with no rows
    ])
    def test_id_missing_from_a_modality(self, tmp_path, face, missing):
        exc = load_error(tmp_path, face=face)
        assert type(exc) is AlignmentError
        assert str(exc) == (f"modality 'face': sample_id '{missing}' present in metadata "
                            f"but missing from {tmp_path / 'face.csv'}")

    @pytest.mark.parametrize("face, extra", [
        (FACE + "zz,1.0,2.0\n", "zz"),
        (FACE.replace("c1,", "yy,3.0,4.0\nc1,") + "zz,1.0,2.0\n", "yy"),  # the first in file order
    ])
    def test_id_missing_from_the_metadata(self, tmp_path, face, extra):
        exc = load_error(tmp_path, face=face)
        assert type(exc) is AlignmentError
        assert str(exc) == (f"modality 'face': sample_id '{extra}' present in "
                            f"{tmp_path / 'face.csv'} but missing from {tmp_path / 'meta.csv'}")


class TestQuotedRoundTrip:
    def test_nan_cells_and_quoted_ids_round_trip(self, tmp_path):
        X = np.array([[1.0, np.nan, -0.0], [np.nan, np.nan, 5e-324], [0.1, 2.0, 1e300]])
        table = ModalityTable("m", X, tuple(ColumnMeta(f"f,{j}") for j in range(3)))
        sample_ids, subject_ids = ['i,"1"', "é 2", "3\n"], ['a,"b"', "c d", "x\ny"]
        ds = Dataset((table,), sample_ids, subject_ids, [0, 1, 1], [[0, 1], [1, 0], [1, 1]],
                     ("gender", "race"))
        back = load_dataset(save_dataset(ds, str(tmp_path)))
        assert back.sample_ids() == sample_ids
        assert back.subject_ids() == subject_ids
        np.testing.assert_array_equal(back.label, ds.label)
        np.testing.assert_array_equal(back.attrs, ds.attrs)
        assert back.modality("m").feature_names == ("f,0", "f,1", "f,2")
        out = back.modality("m").samples
        np.testing.assert_array_equal(out, X)  # NaN where X has NaN, bitwise elsewhere
        assert math.copysign(1.0, out[0, 2]) == -1.0
