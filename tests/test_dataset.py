import dataclasses
import math
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from fairmix.dataset import (
    PREDICTION_COLUMNS,
    RESERVED_ATTRIBUTES,
    ColumnMeta,
    Dataset,
    ModalityTable,
    SampleMeta,
    atomic_write,
    binarize_panas,
    load_dataset,
    modality_name_fault,
    name_fault,
    parse_keyvalue_file,
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

from fairmix.synthgen import SynthSpec

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
        with pytest.raises(ParseError, match=rf"^{re.escape(str(manifest))}: panas_threshold: "
                                             rf"expected a finite number, got '{threshold}'$"):
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
        assert str(info.value) == f"{manifest}: modality '' has an empty name"

    def test_levels_row_for_an_absent_feature(self, tmp_path):
        manifest = make_files(tmp_path)
        write(tmp_path / "levels.csv", "feature_name,level\nf1,high\nf9,low\nf2,low\n")
        with pytest.raises(SchemaError, match="levels.csv: features \\['f9'\\] are not in"):
            load_dataset(str(manifest))

    def test_repeated_attribute_column_rejected(self, tmp_path):
        write(tmp_path / "f.csv", "sample_id,f1\na,1.0\nb,2.0\n")
        write(tmp_path / "m.csv", "sample_id,subject_id,label,gender,gender\na,s0,1,1,0\nb,s1,0,0,1\n")
        write(tmp_path / "man.txt", "modality.f=f.csv\nmetadata=m.csv\n")
        path = re.escape(str(tmp_path / "m.csv"))
        with pytest.raises(SchemaError, match=f"^{path}: row 1: attribute 'gender' is named more than once$"):
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

    def test_a_name_with_a_directory_reloads(self, tmp_path):
        # the manifest lands in sub/ and used to name sub/x_face.csv, which
        # load_dataset looked for in sub/sub/
        ds = make_dataset({"face": np.arange(8.0).reshape(4, 2)}, labels=[0, 1, 1, 0],
                          attrs=[[1], [0], [0], [1]])
        manifest = save_dataset(ds, str(tmp_path), name="sub/x")
        assert manifest == str(tmp_path / "sub" / "x_manifest.txt")
        back = load_dataset(manifest)
        for column in ("sample_id", "subject_id", "label", "attrs"):
            np.testing.assert_array_equal(getattr(back, column), getattr(ds, column))
        np.testing.assert_array_equal(back.modality("face").samples, ds.modality("face").samples)

    def test_saved_manifest_sets_no_threshold(self, tmp_path):
        # labels are saved binarized, so the threshold they came from is not written
        ds = make_dataset({"face": np.arange(8.0).reshape(4, 2)}, labels=[0, 1, 1, 0],
                          attrs=[[1], [0], [0], [1]])
        manifest = save_dataset(ds, str(tmp_path))
        with open(manifest) as fh:
            keys = [line.partition("=")[0] for line in fh.read().splitlines()]
        assert keys == ["modality.face", "levels.face", "metadata"]
        back = load_dataset(manifest)
        for column in ("sample_id", "subject_id", "label", "attrs"):
            np.testing.assert_array_equal(getattr(back, column), getattr(ds, column))
        np.testing.assert_array_equal(back.modality("face").samples, ds.modality("face").samples)

    def test_nan_cells_survive_round_trip(self, tmp_path):
        X = np.array([[1.0, np.nan], [3.0, 4.0]])
        ds = make_dataset({"m": X}, labels=[0, 1], attrs=[[0], [1]])
        back = load_dataset(save_dataset(ds, str(tmp_path)))
        out = back.modality("m").samples
        assert math.isnan(out[0, 1]) and out[1, 1] == 4.0

    def test_save_peak_memory_stays_near_the_file_size(self, tmp_path):
        # each row is formatted straight into the open file: an object array
        # of the cells' reprs made 6 times the file, and a copy of the whole
        # text with its UTF-8 bytes 2 times
        X = np.random.default_rng(8).normal(size=(40, 2000))
        X[::7, ::3] = np.nan
        ds = make_dataset({"m": X}, labels=np.arange(40) % 2, attrs=np.arange(40) // 20)
        tracemalloc.start()
        try:
            manifest = save_dataset(ds, str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * os.path.getsize(tmp_path / "data_m.csv")
        back = load_dataset(manifest).modality("m").samples
        assert back.tobytes() == X.tobytes()


class TestAtomicWrite:
    def test_bytes_on_disk_are_the_string(self, tmp_path):
        atomic_write(str(tmp_path / "sub" / "f.txt"), lambda fh: fh.write("a\r\nb\nc\r"))
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
            atomic_write(str(target), lambda fh: fh.write("new text"))
        assert os.listdir(tmp_path) == ([] if old is None else ["f.txt"])
        if old is not None:
            assert target.read_text() == old

    @pytest.mark.parametrize("old", [None, "old text"])
    @pytest.mark.parametrize("error, raised, message", [
        (RuntimeError, RuntimeError, "writer failed"),
        (OSError, DataError, "cannot write {target}: writer failed"),
    ])
    def test_writer_that_raises_leaves_the_old_file(self, tmp_path, old, error, raised, message):
        target = tmp_path / "f.txt"
        if old is not None:
            target.write_text(old)

        def write(fh):
            fh.write("partial text\n" * 1000)  # past the file's buffer, so it reaches the disk
            raise error("writer failed")

        with pytest.raises(raised, match=re.escape(message.format(target=target))) as info:
            atomic_write(str(target), write)
        assert type(info.value) is raised
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
        with pytest.raises(SchemaError, match="^attribute 'race' is named more than once$"):
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
        assert all(type(s) is str for s in ds.subject_id.tolist())
        np.testing.assert_array_equal(ds.attribute_values("race"), [1, 0, 1])
        with pytest.raises(KeyError):
            ds.attribute_values("age")

    def test_degenerate_columns_warn(self):
        kwargs = _columns()
        kwargs["attrs"] = [[1, 0], [1, 1], [1, 0]]
        with pytest.warns(DegenerateGroupWarning, match="'gender'"):
            Dataset(**kwargs)

    # a 2 was refused only by metrics.counts after every fold was fitted, and
    # 0.5 was cast to 0; the column named is the first in label-then-declared
    # order to hold such a value, and the value its first in row order
    @pytest.mark.parametrize("column, values, message", [
        ("label", [0, 2, 3, 1], "label must be 0 or 1, got 2"),
        ("label", [0, 1, 0.5, 1], "label must be 0 or 1, got 0.5"),
        ("label", [0, np.nan, 1, 1], "label must be 0 or 1, got nan"),
        ("attrs", [[0, 1], [1, 0], [0, -1], [1, 0]], "attribute 'race' must be 0 or 1, got -1"),
        ("attrs", [[0, 1], [3, 2], [0, 1], [1, 0]], "attribute 'gender' must be 0 or 1, got 3"),
    ])
    def test_a_value_other_than_0_or_1_is_refused(self, column, values, message):
        ds = Dataset(**_columns(4))
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(ds, **{column: values})

    def test_float_and_bool_0_1_values_become_ints(self):
        ds = dataclasses.replace(Dataset(**_columns()), label=[1.0, 0.0, True])
        assert ds.label.dtype == int and ds.label.tolist() == [1, 0, 1]
        assert ds.attrs.dtype == int

    # each was accepted, and save_dataset then wrote files that load_dataset refused
    @pytest.mark.parametrize("name, message", [
        ("label", "attribute 'label' is an outcome column name"),
        ("sample_id", "attribute 'sample_id' is an id column name"),
        ("", "attribute '' has an empty name"),
    ])
    def test_attribute_a_saved_dataset_cannot_carry(self, name, message):
        with pytest.raises(SchemaError) as info:
            Dataset(**_columns(attr_names=("gender", name)))
        assert str(info.value) == message

    @pytest.mark.parametrize("names, message", [
        (("m", "m"), "modality 'm' is named more than once"),
        (("m", ""), "modality '' has an empty name"),
        ((), "dataset has no modalities"),
    ])
    def test_modality_names_a_saved_dataset_cannot_carry(self, names, message):
        kwargs = _columns()
        kwargs["modalities"] = tuple(ModalityTable(m, np.zeros((3, 1)), (ColumnMeta("f"),))
                                     for m in names)
        with pytest.raises(SchemaError) as info:
            Dataset(**kwargs)
        assert str(info.value) == message

    # each was accepted, and save_dataset then wrote a feature header that
    # load_dataset refused in the same words
    @pytest.mark.parametrize("features, fault", [
        (("f", "f"), "column 'f' is named more than once"),
        (("f1", "sample_id"), "column 'sample_id' is named more than once"),
    ])
    def test_feature_names_a_saved_dataset_cannot_carry(self, tmp_path, features, fault):
        with pytest.raises(SchemaError) as info:
            ModalityTable("face", np.zeros((3, 2)), tuple(map(ColumnMeta, features)))
        assert str(info.value) == f"modality 'face': {fault}"
        exc = load_error(tmp_path, face=FACE.replace("f1,f2", ",".join(features), 1))
        assert type(exc) is SchemaError
        assert str(exc) == f"{tmp_path / 'face.csv'}: row 1: {fault}"


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
         "row 1: attribute 'subject_id' is an id column name"),
        (META2.replace("gender,race", "gender,sample_id"), SchemaError,
         "row 1: attribute 'sample_id' is an id column name"),
        (META.replace("gender", "label", 1), SchemaError,
         "row 1: attribute 'label' is an outcome column name"),
        # nor a column that predictions.csv adds after the two ids
        (META.replace("gender", "true_label", 1), SchemaError,
         "row 1: attribute 'true_label' is a predictions.csv column"),
        (META2.replace("gender,race", "gender,predicted_label"), SchemaError,
         "row 1: attribute 'predicted_label' is a predictions.csv column"),
        (META2.replace("gender,race", "proba_0,race"), SchemaError,
         "row 1: attribute 'proba_0' is a predictions.csv column"),
        (META.replace("gender", "proba_1", 1), SchemaError,
         "row 1: attribute 'proba_1' is a predictions.csv column"),
        # nor the other outcome, or no name: saved, such a header would not load
        # again ("label,label" under pa_score)
        (META.replace("label,gender", "pa_score,label"), SchemaError,
         "row 1: attribute 'label' is an outcome column name"),
        (META.replace("gender", "pa_score", 1), SchemaError,
         "row 1: attribute 'pa_score' is an outcome column name"),
        (META2.replace("gender,race", "gender,"), SchemaError, "row 1: attribute '' has an empty name"),
        (META.replace("label,gender", "label,"), SchemaError, "row 1: attribute '' has an empty name"),
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
        ("feature_name,level\nf1,high\nf2,mid\n",
         "row 3: level: expected one of ('high', 'low'), got 'mid'"),
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
        assert back.subject_id.tolist() == subject_ids
        np.testing.assert_array_equal(back.label, ds.label)
        np.testing.assert_array_equal(back.attrs, ds.attrs)
        assert back.modality("m").feature_names == ("f,0", "f,1", "f,2")
        out = back.modality("m").samples
        np.testing.assert_array_equal(out, X)  # NaN where X has NaN, bitwise elsewhere
        assert math.copysign(1.0, out[0, 2]) == -1.0


def test_reserved_attributes_name_every_fixed_column():
    fixed = {"", "sample_id", "subject_id", "pa_score", "label", *PREDICTION_COLUMNS}
    assert fixed <= RESERVED_ATTRIBUTES.keys()


@pytest.mark.parametrize("name", sorted(RESERVED_ATTRIBUTES))
class TestReservedAttributes:
    """Every name in the one table is refused by each of its three readers,
    in the words of `name_fault`."""

    def test_dataset_rejects(self, name):
        with pytest.raises(SchemaError) as info:
            Dataset(**_columns(attr_names=("gender", name)))
        assert str(info.value) == f"attribute {name!r} {RESERVED_ATTRIBUTES[name]}"

    def test_synth_spec_rejects(self, name):
        with pytest.raises(InputError) as info:
            SynthSpec(attribute_props=(("gender", 0.5), (name, 0.5)))
        assert str(info.value) == f"attribute {name!r} {RESERVED_ATTRIBUTES[name]}"

    def test_metadata_header_rejects(self, tmp_path, name):
        # sample_id, subject_id and label, which also head this header, were
        # refused as a repeated column
        exc = load_error(tmp_path, meta=META2.replace("gender,race", f"gender,{name}"))
        assert type(exc) is SchemaError
        assert str(exc) == f"{tmp_path / 'meta.csv'}: row 1: attribute {name!r} {RESERVED_ATTRIBUTES[name]}"


def _with_modality(name):
    kwargs = _columns()
    kwargs["modalities"] = (ModalityTable(name, np.arange(3.0).reshape(3, 1), (ColumnMeta("f"),)),)
    return kwargs


# each but the empty name was accepted, and save_dataset then wrote a
# manifest that load_dataset refused or read back as another name (NUL:
# save_dataset raised ValueError)
@pytest.mark.parametrize("name, reason", [
    ("", "has an empty name"),
    ("a=b", "holds '=', which a saved manifest cannot carry"),
    ("a\nb", "holds '\\n', which a saved manifest cannot carry"),
    ("a\rb", "holds '\\r', which a saved manifest cannot carry"),
    ("a\0b", "holds '\\x00', which a saved manifest cannot carry"),
    ("face ", "has leading or trailing whitespace, which a manifest drops"),
    (" face", "has leading or trailing whitespace, which a manifest drops"),
    ("face\t", "has leading or trailing whitespace, which a manifest drops"),
])
class TestModalityNameRule:
    """`modality_name_fault` is the one modality-name rule, and `name_fault`
    reads it for Dataset, SynthSpec and the loader's manifest."""

    # the names that a manifest line carries back; a line break splits the
    # line, a second '=' ends the key and an edge tab or space is stripped
    IN_A_MANIFEST = ("", " face", "a\0b")

    def test_dataset_rejects(self, name, reason):
        with pytest.raises(SchemaError) as info:
            Dataset(**_with_modality(name))
        assert str(info.value) == f"modality {name!r} {reason}"

    def test_synth_spec_rejects(self, name, reason):
        with pytest.raises(InputError) as info:
            SynthSpec(modality_dims=(("audio", 2), (name, 2)))
        assert str(info.value) == f"modality {name!r} {reason}"

    def test_loader_rejects_where_a_manifest_names_it(self, tmp_path, name, reason):
        write(tmp_path / "face.csv", FACE)
        write(tmp_path / "meta.csv", META)
        manifest = tmp_path / "man.txt"
        write(manifest, f"modality.{name}=face.csv\nmetadata=meta.csv\n")
        try:
            keys = parse_keyvalue_file(str(manifest)).keys()
        except SchemaError:  # a line without '='
            keys = ()
        assert (f"modality.{name}" in keys) == (name in self.IN_A_MANIFEST)
        if name in self.IN_A_MANIFEST:
            with pytest.raises(SchemaError) as info:
                load_dataset(str(manifest))
            assert str(info.value) == f"{manifest}: modality {name!r} {reason}"


@pytest.mark.parametrize("name", ["a.b", "a b", "face_2", "gesicht\u00e4", "..", "manifest"])
def test_accepted_modality_name_round_trips(tmp_path, name):
    assert modality_name_fault(name) is None and name_fault("modality", [name]) is None
    ds = Dataset(**_with_modality(name))
    back = load_dataset(save_dataset(ds, str(tmp_path)))
    assert back.modality_names == (name,)
    assert back.declared_attributes == ds.declared_attributes
    for column in ("sample_id", "subject_id", "label", "attrs"):
        np.testing.assert_array_equal(getattr(back, column), getattr(ds, column))
    assert back.modality(name).column_meta == ds.modality(name).column_meta
    np.testing.assert_array_equal(back.modality(name).samples, ds.modality(name).samples)
    assert SynthSpec(modality_dims=((name, 2),)).modality_dims == ((name, 2),)
