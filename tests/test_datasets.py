import numpy as np
import pytest

from freqmia.datasets import (
    DatasetSpec,
    export_pgm_dir,
    generate_dataset,
    ingest_pgm_dir,
    read_pgm,
    write_pgm,
)
from freqmia.errors import ConfigurationError, IngestionError
from freqmia.spectral import high_frequency_content


class TestGenerateDataset:
    def test_shapes_labels_and_range(self):
        spec = DatasetSpec(kind="power_law", size=8, gamma_range=(0.5, 2.5),
                           n_member=3, n_holdout=2, seed=1)
        samples = generate_dataset(spec)
        assert len(samples) == 5
        assert [s.membership for s in samples] == [1, 1, 1, 0, 0]
        for s in samples:
            assert s.image.shape == (1, 8, 8)
            assert np.max(np.abs(s.image)) <= 1.0 + 1e-12

    def test_same_seed_is_bit_identical(self):
        spec = DatasetSpec(size=8, n_member=2, n_holdout=2, seed=7)
        a = generate_dataset(spec)
        b = generate_dataset(spec)
        for sa, sb in zip(a, b):
            assert sa.sample_id == sb.sample_id
            assert np.array_equal(sa.image, sb.image)

    def test_different_seeds_differ(self):
        a = generate_dataset(DatasetSpec(size=8, n_member=2, n_holdout=2, seed=1))
        b = generate_dataset(DatasetSpec(size=8, n_member=2, n_holdout=2, seed=2))
        assert not np.array_equal(a[0].image, b[0].image)

    def test_steep_exponent_kills_high_frequencies(self):
        spec = DatasetSpec(size=16, gamma_range=(50.0, 50.0),
                           n_member=5, n_holdout=5, seed=3)
        for s in generate_dataset(spec):
            assert high_frequency_content(s.image, 2.0) < 0.05

    def test_flat_exponent_gives_white_noise_band_share(self):
        spec = DatasetSpec(size=16, gamma_range=(0.0, 0.0),
                           n_member=10, n_holdout=10, seed=4)
        samples = generate_dataset(spec)
        measured = np.mean([high_frequency_content(s.image, 2.0) for s in samples])
        expected = 243.0 / 256.0  # coefficients beyond radius 2 on a 16x16 grid
        assert abs(measured - expected) / expected < 0.10

    def test_gamma_range_spreads_hf_content(self):
        spec = DatasetSpec(size=16, gamma_range=(0.5, 2.5),
                           n_member=30, n_holdout=30, seed=5)
        hf = [high_frequency_content(s.image, 2.0) for s in generate_dataset(spec)]
        assert max(hf) - min(hf) > 0.3

    def test_sharpened_generator_spreads_hf_content(self):
        spec = DatasetSpec(kind="sharpened", size=16, gamma_range=(1.5, 3.0),
                           n_member=30, n_holdout=30, seed=12)
        samples = generate_dataset(spec)
        hf = [high_frequency_content(s.image, 2.0) for s in samples]
        assert max(hf) - min(hf) > 0.1
        for s in samples:
            assert np.max(np.abs(s.image)) <= 1.0 + 1e-12

    def test_checkerboard_mix_generator(self):
        spec = DatasetSpec(kind="checkerboard_mix", size=8,
                           n_member=4, n_holdout=4, seed=6)
        samples = generate_dataset(spec)
        assert len(samples) == 8
        hf = [high_frequency_content(s.image, 2.0) for s in samples]
        assert max(hf) > min(hf)  # mixing weights vary per sample

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            DatasetSpec(kind="bogus")
        with pytest.raises(ConfigurationError):
            DatasetSpec(size=13)
        with pytest.raises(ConfigurationError):
            DatasetSpec(gamma_range=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            DatasetSpec(n_member=0)
        with pytest.raises(ConfigurationError):
            DatasetSpec(kind="pgm_dir", path=None)


class TestPgmRoundTrip:
    def test_all_white_reads_as_one(self, tmp_path):
        path = tmp_path / "white.pgm"
        path.write_bytes(b"P5\n4 3\n255\n" + bytes([255] * 12))
        image = read_pgm(path)
        assert image.shape == (1, 3, 4)
        assert np.all(image == 1.0)

    def test_all_black_reads_as_minus_one(self, tmp_path):
        path = tmp_path / "black.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        assert np.all(read_pgm(path) == -1.0)

    def test_maxval_sets_the_white_level(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n3 1\n15\n" + bytes([0, 5, 15]))
        assert np.array_equal(read_pgm(path)[0, 0], [-1.0, 2.0 * 5 / 15 - 1.0, 1.0])

    def test_pixel_above_maxval_rejected(self, tmp_path):
        path = tmp_path / "over.pgm"
        path.write_bytes(b"P5\n2 1\n15\n" + bytes([3, 16]))
        with pytest.raises(IngestionError, match="over.pgm"):
            read_pgm(path)

    def test_header_comments_allowed(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes(4))
        assert read_pgm(path).shape == (1, 2, 2)

    def test_write_read_is_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        original = rng.integers(0, 256, size=(6, 5), dtype=np.uint8)
        image = original.astype(np.float64)[None] / 127.5 - 1.0
        path = tmp_path / "x.pgm"
        write_pgm(path, image)
        again = read_pgm(path)
        assert np.array_equal(again, image)
        raw = path.read_bytes()
        assert raw.endswith(original.tobytes())

    def test_non_p5_rejected(self, tmp_path):
        path = tmp_path / "ascii.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(IngestionError, match="ascii.pgm"):
            read_pgm(path)

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(IngestionError, match="maxval"):
            read_pgm(path)

    @pytest.mark.parametrize("size", [b"0 0", b"0 2", b"2 0"])
    def test_zero_width_or_height_rejected(self, tmp_path, size):
        path = tmp_path / "hollow.pgm"
        path.write_bytes(b"P5\n" + size + b"\n255\n")
        with pytest.raises(IngestionError, match="hollow.pgm: PGM width and height must be >= 1"):
            read_pgm(path)

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(IngestionError, match="short.pgm"):
            read_pgm(path)


class TestIngestDir:
    def _write_sample_dir(self, root, entries):
        lines = []
        for name, membership, size in entries:
            write_pgm(root / name, np.zeros((1, size, size)))
            lines.append(f"{name},{membership}")
        (root / "manifest.csv").write_text("\n".join(lines) + "\n")

    def test_round_trip_through_export(self, tmp_path):
        spec = DatasetSpec(size=8, n_member=3, n_holdout=2, seed=9)
        samples = generate_dataset(spec)
        (tmp_path / "data").mkdir()
        export_pgm_dir(samples, (tmp_path / "data").joinpath)
        loaded = ingest_pgm_dir(tmp_path / "data")
        assert len(loaded) == len(samples)
        for before, after in zip(samples, loaded):
            assert after.membership == before.membership
            # quantized to 8 bits on export, so equal to half a bin
            assert np.max(np.abs(after.image - before.image)) <= 1.0 / 255.0 + 1e-12
        # a second ingest of the exported files is bit-exact
        (tmp_path / "data2").mkdir()
        export_pgm_dir(loaded, (tmp_path / "data2").joinpath)
        again = ingest_pgm_dir(tmp_path / "data2")
        for first, second in zip(loaded, again):
            assert np.array_equal(first.image, second.image)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(IngestionError, match="manifest"):
            ingest_pgm_dir(tmp_path)

    def test_entry_without_file_names_the_entry(self, tmp_path):
        self._write_sample_dir(tmp_path, [("a.pgm", 1, 4)])
        (tmp_path / "manifest.csv").write_text("a.pgm,1\nghost.pgm,0\n")
        with pytest.raises(IngestionError, match="ghost.pgm"):
            ingest_pgm_dir(tmp_path)

    def test_inconsistent_sizes_name_the_file(self, tmp_path):
        self._write_sample_dir(tmp_path, [("a.pgm", 1, 4), ("b.pgm", 0, 8)])
        with pytest.raises(IngestionError, match="b.pgm"):
            ingest_pgm_dir(tmp_path)

    def test_size_mismatch_also_names_the_first_entry(self, tmp_path):
        # the odd one out may be the first image, which set the size
        self._write_sample_dir(tmp_path, [("a.pgm", 1, 4), ("b.pgm", 0, 8), ("c.pgm", 0, 8)])
        with pytest.raises(IngestionError) as info:
            ingest_pgm_dir(tmp_path)
        assert str(info.value) == f"{tmp_path / 'b.pgm'}: size (8, 8) differs from (4, 4) of 'a.pgm'"

    def test_bad_membership_rejected(self, tmp_path):
        self._write_sample_dir(tmp_path, [("a.pgm", 1, 4)])
        (tmp_path / "manifest.csv").write_text("a.pgm,2\n")
        with pytest.raises(IngestionError, match="membership"):
            ingest_pgm_dir(tmp_path)

    def test_repeated_entry_names_both_lines(self, tmp_path):
        self._write_sample_dir(tmp_path, [("a.pgm", 1, 4), ("b.pgm", 0, 4)])
        (tmp_path / "manifest.csv").write_text("a.pgm,1\nb.pgm,0\n\na.pgm,0\n")
        with pytest.raises(IngestionError, match=r"manifest\.csv, line 4: 'a\.pgm' repeats line 1"):
            ingest_pgm_dir(tmp_path)

    def test_generate_dataset_delegates_for_pgm_kind(self, tmp_path):
        spec = DatasetSpec(size=8, n_member=2, n_holdout=2, seed=10)
        (tmp_path / "d").mkdir()
        export_pgm_dir(generate_dataset(spec), (tmp_path / "d").joinpath)
        loaded = generate_dataset(DatasetSpec(kind="pgm_dir", path=str(tmp_path / "d")))
        assert len(loaded) == 4
        assert sum(s.membership for s in loaded) == 2
