"""Image I/O, augmentation geometry, synthetic scenes, and mIoU metrics."""

import numpy as np
import pytest

from biseg.data import (
    CIRCLE_RADIUS_FRAC,
    IGNORE,
    RECT_SIDE_FRAC,
    SHAPES_PER_SCENE,
    AugmentConfig,
    ConfusionMatrix,
    Sample,
    SegDataset,
    augment,
    default_palette,
    miou,
    read_manifest,
    read_pgm,
    read_ppm,
    resize_nearest_labels,
    sample_rng,
    synth_shapes,
    write_color_mask,
    write_dataset,
    write_palette,
    write_pgm,
    write_ppm,
)
from biseg.errors import ArgumentError, DataError, FormatError
from biseg.tensor import Rng, Tensor

from oracles import brute_miou


def _random_image(h, w, seed=0):
    vals = np.floor(Rng(seed).uniform(3 * h * w) * 256).astype(np.float32)
    return Tensor(vals.reshape(1, 3, h, w))


class TestNetpbm:
    def test_ppm_round_trip_bitwise(self, tmp_path):
        img = _random_image(9, 7)
        path = tmp_path / "img.ppm"
        write_ppm(img.data, path)
        back = read_ppm(path)
        assert (back.data == img.data).all()

    def test_ppm_pixel_layout(self, tmp_path):
        raw = b"P6\n2 1\n255\n" + bytes([10, 20, 30, 40, 50, 60])
        path = tmp_path / "two.ppm"
        path.write_bytes(raw)
        t = read_ppm(path)
        assert t.data.shape == (1, 3, 1, 2)
        assert t.data[0, :, 0, 0].tolist() == [10.0, 20.0, 30.0]
        assert t.data[0, :, 0, 1].tolist() == [40.0, 50.0, 60.0]

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "ascii.ppm"
        path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(FormatError) as exc:
            read_ppm(path)
        assert exc.value.offset == 0

    def test_non_numeric_header_field(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n2 abc\n255\n" + bytes(6))
        with pytest.raises(FormatError) as exc:
            read_ppm(path)
        assert exc.value.offset == 5

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "deep.ppm"
        path.write_bytes(b"P6\n2 1\n65535\n" + bytes(12))
        with pytest.raises(FormatError) as exc:
            read_ppm(path)
        assert exc.value.offset == 7

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "cut.ppm"
        path.write_bytes(b"P6\n2")
        with pytest.raises(FormatError):
            read_ppm(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(11))
        with pytest.raises(FormatError):
            read_ppm(path)

    def test_header_comments_skipped(self, tmp_path):
        path = tmp_path / "com.ppm"
        path.write_bytes(b"P6\n# made by hand\n1 1\n# again\n255\n" + bytes([1, 2, 3]))
        t = read_ppm(path)
        assert t.data[0, :, 0, 0].tolist() == [1.0, 2.0, 3.0]

    def test_pgm_round_trip(self, tmp_path):
        lbl = (Rng(1).uniform(6 * 5) * 4).astype(np.uint8).reshape(6, 5)
        path = tmp_path / "lbl.pgm"
        write_pgm(lbl, path)
        assert (read_pgm(path) == lbl).all()

    def test_write_ppm_validates(self, tmp_path):
        with pytest.raises(ArgumentError):
            write_ppm(np.zeros((1, 4, 2, 2), dtype=np.float32), tmp_path / "x.ppm")

    def test_write_pgm_validates(self, tmp_path):
        with pytest.raises(DataError):
            write_pgm(np.full((2, 2), 300, dtype=np.int64), tmp_path / "x.pgm")
        with pytest.raises(ArgumentError):
            write_pgm(np.zeros((2, 2, 2), dtype=np.uint8), tmp_path / "x.pgm")


class TestPalette:
    def test_default_palette_layout(self):
        pal = default_palette(3)
        assert pal[IGNORE] == (0, 0, 0)
        assert set(pal) == {0, 1, 2, IGNORE}
        assert len({pal[c] for c in (0, 1, 2)}) == 3

    def test_round_trip(self, tmp_path):
        pal = default_palette(5)
        path = tmp_path / "palette.txt"
        write_palette(pal, path)
        rows = [tuple(map(int, line.split())) for line in path.read_text().splitlines()]
        assert {c: (r, g, b) for c, r, g, b in rows} == pal

    def test_color_mask_pixels(self, tmp_path):
        lbl = np.array([[0, 1], [2, IGNORE]], dtype=np.uint8)
        pal = default_palette(3)
        path = tmp_path / "mask.ppm"
        write_color_mask(lbl, pal, path)
        img = read_ppm(path).data[0]
        assert tuple(img[:, 0, 0].astype(int)) == pal[0]
        assert tuple(img[:, 0, 1].astype(int)) == pal[1]
        assert tuple(img[:, 1, 0].astype(int)) == pal[2]
        assert tuple(img[:, 1, 1].astype(int)) == (0, 0, 0)

    def test_color_mask_missing_class(self, tmp_path):
        lbl = np.array([[7]], dtype=np.uint8)
        with pytest.raises(DataError):
            write_color_mask(lbl, default_palette(3), tmp_path / "mask.ppm")

    @pytest.mark.parametrize("bad", [-1, 3, 256, 1 << 40])
    def test_color_mask_rejects_class_outside_palette(self, tmp_path, bad):
        lbl = np.array([[0, 1], [bad, IGNORE]], dtype=np.int64)
        with pytest.raises(DataError, match=f"class {bad}$"):
            write_color_mask(lbl, default_palette(3), tmp_path / "mask.ppm")

    def test_color_mask_bytes_match_float_image(self, tmp_path):
        """A cropped int32 view renders as write_ppm renders the same colours."""
        pal = default_palette(19)
        lbl = (Rng(5).uniform(2 * 24 * 40) * 19).astype(np.int32).reshape(2, 24, 40)
        lbl[0, :3, :5] = IGNORE
        view = lbl[0, :21, :37]
        write_color_mask(view, pal, tmp_path / "mask.ppm")
        rgb = np.array([pal[c] for c in view.ravel()], dtype=np.float32).reshape(21, 37, 3)
        write_ppm(rgb.transpose(2, 0, 1), tmp_path / "ref.ppm")
        assert (tmp_path / "mask.ppm").read_bytes() == (tmp_path / "ref.ppm").read_bytes()


class TestManifest:
    def test_relative_paths_resolve(self, tmp_path):
        sub = tmp_path / "set"
        sub.mkdir()
        img = _random_image(8, 8, seed=2)
        lbl = np.zeros((8, 8), dtype=np.uint8)
        write_ppm(img.data, sub / "a.ppm")
        write_pgm(lbl, sub / "a.pgm")
        man = sub / "manifest.txt"
        man.write_text("# demo\n\na.ppm a.pgm\n")
        pairs = read_manifest(man)
        assert len(pairs) == 1
        ds = SegDataset.from_manifest(man)
        sample = ds.load(0)
        assert (sample.image.data == img.data).all()
        assert (sample.label == lbl).all()

    def test_malformed_line(self, tmp_path):
        man = tmp_path / "manifest.txt"
        man.write_text("only_one_token\n")
        with pytest.raises(DataError) as exc:
            read_manifest(man)
        assert ":1:" in str(exc.value)

    def test_empty_manifest(self, tmp_path):
        man = tmp_path / "manifest.txt"
        man.write_text("# nothing\n\n")
        with pytest.raises(DataError):
            read_manifest(man)


def _flat_sample(h, w, seed=3):
    img = _random_image(h, w, seed)
    lbl = (Rng(seed + 1).uniform(h * w) * 3).astype(np.uint8).reshape(h, w)
    return Sample(image=img, label=lbl)


class TestAugment:
    def test_identity_geometry(self):
        s = _flat_sample(16, 16)
        cfg = AugmentConfig(mean=(1.0, 2.0, 3.0), hflip_prob=0.0, scales=(1.0,),
                            crop_h=16, crop_w=16)
        out = augment(s, cfg, Rng(0))
        mean = np.array([1.0, 2.0, 3.0], dtype=np.float32).reshape(1, 3, 1, 1)
        assert (out.image.data == s.image.data - mean).all()
        assert (out.label == s.label).all()

    def test_flip_involution(self):
        s = _flat_sample(16, 16, seed=4)
        cfg = AugmentConfig(mean=(0.0, 0.0, 0.0), hflip_prob=1.0, scales=(1.0,),
                            crop_h=16, crop_w=16)
        once = augment(s, cfg, Rng(5))
        twice = augment(once, cfg, Rng(5))
        assert (twice.image.data == s.image.data).all()
        assert (twice.label == s.label).all()
        assert (once.image.data == s.image.data[:, :, :, ::-1]).all()

    def test_scaling_adds_no_label_classes(self):
        s = _flat_sample(32, 32, seed=6)
        cfg = AugmentConfig(hflip_prob=0.0, scales=(1.5,), crop_h=32, crop_w=32)
        out = augment(s, cfg, Rng(7))
        assert set(np.unique(out.label)) <= set(np.unique(s.label))

    def test_padding_values(self):
        s = _flat_sample(16, 16, seed=8)
        cfg = AugmentConfig(hflip_prob=0.0, scales=(1.0,), crop_h=64, crop_w=64)
        out = augment(s, cfg, Rng(9))
        assert out.label.shape == (64, 64)
        assert out.label[0, 0] == IGNORE
        assert out.image.data[0, :, 0, 0].tolist() == [0.0, 0.0, 0.0]
        inner = out.label != IGNORE
        assert inner.sum() == 16 * 16

    def test_deterministic_under_seed(self):
        s = _flat_sample(48, 48, seed=10)
        cfg = AugmentConfig(crop_h=32, crop_w=32)
        a = augment(s, cfg, sample_rng(3, epoch=2, index=5))
        b = augment(s, cfg, sample_rng(3, epoch=2, index=5))
        assert (a.image.data == b.image.data).all()
        assert (a.label == b.label).all()

    def test_rng_varies_with_epoch_and_index(self):
        streams = {
            (e, i): sample_rng(1, e, i).u64(4).tolist()
            for e in range(3) for i in range(3)
        }
        seen = [tuple(v) for v in streams.values()]
        assert len(set(seen)) == len(seen)

    def test_crop_offsets_cover_range(self):
        s = _flat_sample(32, 32, seed=11)
        cfg = AugmentConfig(hflip_prob=0.0, scales=(1.0,), crop_h=16, crop_w=16)
        crops = set()
        for i in range(64):
            out = augment(s, cfg, sample_rng(0, 0, i))
            crops.add(out.label.tobytes())
        assert len(crops) > 10  # many distinct windows appear

    def test_config_validation(self):
        with pytest.raises(ArgumentError):
            AugmentConfig(hflip_prob=1.5)
        with pytest.raises(ArgumentError):
            AugmentConfig(scales=())
        with pytest.raises(ArgumentError):
            AugmentConfig(crop_h=0)


def _expected_class_fraction(h, w):
    """Mean pixel fraction of classes 1 (rectangles) and 2 (circles) in
    three-class scenes, ignoring occlusion: half the shapes are of each kind,
    with sides and radii uniform over their ranges."""
    m2 = min(h, w) ** 2
    lo, hi = RECT_SIDE_FRAC
    rect_area = ((lo + hi) / 2.0) ** 2 * m2
    lo, hi = CIRCLE_RADIUS_FRAC
    circ_area = np.pi * (hi**3 - lo**3) / (3.0 * (hi - lo)) * m2
    per_kind = (SHAPES_PER_SCENE[0] + SHAPES_PER_SCENE[1]) / 2.0 / 2
    return {1: per_kind * rect_area / (h * w), 2: per_kind * circ_area / (h * w)}


class TestSynth:
    def test_deterministic(self):
        a = synth_shapes(3, 32, 32, 3, seed=5)
        b = synth_shapes(3, 32, 32, 3, seed=5)
        for sa, sb in zip(a, b):
            assert (sa.image.data == sb.image.data).all()
            assert (sa.label == sb.label).all()

    def test_labels_in_range(self):
        for c in (2, 3):
            for s in synth_shapes(4, 24, 24, c, seed=6):
                assert set(np.unique(s.label)) <= set(range(c))

    def test_images_are_byte_exact(self):
        for s in synth_shapes(3, 24, 24, 3, seed=7):
            img = s.image.data
            assert (img >= 0).all() and (img <= 255).all()
            assert (img == np.rint(img)).all()

    def test_round_trip_through_files(self, tmp_path):
        samples = synth_shapes(3, 24, 24, 3, seed=8)
        manifest = write_dataset(samples, tmp_path / "set", num_classes=3)
        ds = SegDataset.from_manifest(manifest)
        assert len(ds) == 3
        for i, orig in enumerate(samples):
            back = ds.load(i)
            assert (back.image.data == orig.image.data).all()
            assert (back.label == orig.label).all()

    def test_class_frequencies_near_expectation(self):
        h = w = 64
        samples = synth_shapes(100, h, w, 3, seed=9)
        counts = {1: 0, 2: 0}
        for s in samples:
            for c in counts:
                counts[c] += int((s.label == c).sum())
        expect = _expected_class_fraction(h, w)
        for c in counts:
            observed = counts[c] / (100 * h * w)
            assert observed > 0
            assert expect[c] / 3 < observed < expect[c] * 3, (c, observed, expect[c])

    def test_two_class_scenes_have_no_circles(self):
        for s in synth_shapes(5, 24, 24, 2, seed=10):
            assert 2 not in np.unique(s.label)

    def test_validation(self):
        with pytest.raises(ArgumentError):
            synth_shapes(1, 24, 24, 1, seed=0)
        with pytest.raises(ArgumentError):
            synth_shapes(1, 4, 24, 2, seed=0)
        for count, classes in ((0, 3), (-1, 3), (1, 256), (1, 300)):
            with pytest.raises(ArgumentError):
                synth_shapes(count, 24, 24, classes, seed=0)


class TestMetrics:
    def test_hand_case(self):
        cm = ConfusionMatrix(2)
        cm.update(np.array([0, 1, 1, 1]), np.array([0, 0, 1, 1]))
        assert cm.counts.tolist() == [[1, 1], [0, 2]]
        res = miou(cm)
        assert abs(res.per_class[0] - 0.5) < 1e-12
        assert abs(res.per_class[1] - 2.0 / 3.0) < 1e-12
        assert abs(res.miou - 7.0 / 12.0) < 1e-12
        assert abs(res.pixel_accuracy - 0.75) < 1e-12

    def test_perfect_and_complement(self):
        gt = np.array([0, 0, 1, 1])
        cm = ConfusionMatrix(2)
        cm.update(gt, gt)
        assert miou(cm).miou == 1.0
        cm2 = ConfusionMatrix(2)
        cm2.update(1 - gt, gt)
        res = miou(cm2)
        assert res.miou == 0.0
        assert res.pixel_accuracy == 0.0

    def test_update_order_independent(self):
        rng = Rng(11)
        pred = (rng.uniform(256) * 4).astype(np.int64)
        gt = (rng.uniform(256) * 4).astype(np.int64)
        whole = ConfusionMatrix(4)
        whole.update(pred, gt)
        parts = ConfusionMatrix(4)
        parts.update(pred[128:], gt[128:])
        parts.update(pred[:128], gt[:128])
        assert (whole.counts == parts.counts).all()

    def test_ignore_pixels_dropped(self):
        pred = np.array([0, 1, 0, 1])
        gt = np.array([0, 255, 255, 1])
        cm = ConfusionMatrix(2)
        cm.update(pred, gt)
        assert cm.counts.sum() == 2
        assert miou(cm).miou == 1.0

    def test_out_of_range_rejected(self):
        cm = ConfusionMatrix(3)
        with pytest.raises(DataError):
            cm.update(np.array([3]), np.array([0]))
        with pytest.raises(DataError):
            cm.update(np.array([0]), np.array([-1]))

    def test_absent_class_is_nan_and_excluded(self):
        cm = ConfusionMatrix(3)
        cm.update(np.array([0, 1]), np.array([0, 1]))
        res = miou(cm)
        assert np.isnan(res.per_class[2])
        assert res.miou == 1.0

    def test_empty_matrix(self):
        res = miou(ConfusionMatrix(4))
        assert res.miou is None and res.pixel_accuracy is None
        assert np.isnan(res.per_class).all()

    def test_matches_brute_oracle(self):
        for trial in range(20):
            rng = Rng(100 + trial)
            pred = (rng.uniform(16 * 16) * 5).astype(np.int64).reshape(16, 16)
            gt = (rng.uniform(16 * 16) * 5).astype(np.int64).reshape(16, 16)
            gt[rng.uniform(16 * 16).reshape(16, 16) < 0.1] = 255
            cm = ConfusionMatrix(5)
            cm.update(pred, gt)
            res = miou(cm)
            ref_per_class, ref_mean, ref_acc = brute_miou(pred, gt, 5)
            for c in range(5):
                if ref_per_class[c] is None:
                    assert np.isnan(res.per_class[c])
                else:
                    assert res.per_class[c] == ref_per_class[c]
            assert res.miou == ref_mean
            assert res.pixel_accuracy == ref_acc


class TestResizeLabels:
    def test_downscale_centers(self):
        lbl = np.arange(16).reshape(4, 4)
        out = resize_nearest_labels(lbl, 2, 2)
        assert out.tolist() == [[5, 7], [13, 15]]

    def test_identity(self):
        lbl = np.arange(4).reshape(2, 2)
        out = resize_nearest_labels(lbl, 2, 2)
        assert (out == lbl).all() and out is not lbl

    def test_upscale_preserves_values(self):
        lbl = np.array([[0, 1], [2, 3]], dtype=np.uint8)
        out = resize_nearest_labels(lbl, 5, 5)
        assert out.shape == (5, 5)
        assert set(np.unique(out)) <= {0, 1, 2, 3}
