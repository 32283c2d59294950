import numpy as np
import pytest

from drokit import (ContractError, FormatError, PointCloud, read_dromx, read_dropc,
                    write_dromx, write_dropc)
from drokit.formats import decode_dromx, decode_dropc, encode_dromx, encode_dropc


def random_cloud(rng, labeled):
    labels = None
    if labeled:
        n_links = int(rng.integers(1, 6))
        n = int(rng.integers(n_links, 200))
        counts = rng.multinomial(n - n_links, np.ones(n_links) / n_links) + 1
        labels = [f"link{k}" for k, c in enumerate(counts) for _ in range(c)]
        n = len(labels)
    else:
        n = int(rng.integers(1, 200))
    return PointCloud(rng.normal(size=(n, 3)), labels)


# ---------------------------------------------------------------- DROPC

def test_dropc_round_trip_unlabeled(tmp_path):
    rng = np.random.default_rng(0)
    cloud = random_cloud(rng, labeled=False)
    path = tmp_path / "c.dropc"
    write_dropc(path, cloud)
    back = read_dropc(path)
    assert np.array_equal(back.points, cloud.points)
    assert back.labels is None
    # re-encode is bitwise identical
    assert encode_dropc(back) == path.read_bytes()


def test_dropc_round_trip_labeled(tmp_path):
    rng = np.random.default_rng(1)
    for _ in range(25):
        cloud = random_cloud(rng, labeled=True)
        data = encode_dropc(cloud)
        back = decode_dropc(data)
        assert np.array_equal(back.points, cloud.points)
        assert back.labels == cloud.labels
        assert encode_dropc(back) == data


def test_dropc_bad_magic():
    with pytest.raises(FormatError) as err:
        decode_dropc(b"NOTPC\x00" + b"\x00" * 16)
    assert "byte offset 0" in str(err.value)


def test_dropc_truncation_reports_offset():
    cloud = PointCloud(np.zeros((10, 3)))
    data = encode_dropc(cloud)
    with pytest.raises(FormatError) as err:
        decode_dropc(data[:20])
    assert "byte offset" in str(err.value)


def test_dropc_trailing_garbage_rejected():
    cloud = PointCloud(np.zeros((2, 3)))
    with pytest.raises(FormatError):
        decode_dropc(encode_dropc(cloud) + b"xx")


def test_dropc_bad_trailer_json():
    cloud = PointCloud(np.zeros((2, 3)), labels=["a", "a"])
    data = encode_dropc(cloud)
    trailer_off = data.rindex(b"{")
    # not JSON, JSON that is not an object, and an object whose names are
    # not strings
    for trailer in (b"{not json", b"[1]", b"5", b'{"0":1}'):
        with pytest.raises(FormatError) as err:
            decode_dropc(data[:trailer_off] + trailer)
        assert f"trailer at byte offset {trailer_off}" in str(err.value)


def test_dropc_version_checked():
    cloud = PointCloud(np.zeros((1, 3)))
    data = bytearray(encode_dropc(cloud))
    data[6] = 9  # version field
    with pytest.raises(FormatError) as err:
        decode_dropc(bytes(data))
    assert "version" in str(err.value)


@pytest.mark.parametrize("decode, data", [
    (decode_dropc, encode_dropc(PointCloud(np.zeros((2, 3)), ["a", "b"]))),
    (decode_dromx, encode_dromx(np.ones((2, 3)))),
], ids=["dropc", "dromx"])
def test_header_checked_at_its_offsets(decode, data):
    # both formats share one magic-and-version check
    for at, byte, message in ((0, ord("X"), "bad magic at byte offset 0"),
                              (6, 2, "unsupported version 2 at byte offset 6")):
        bad = bytearray(data)
        bad[at] = byte
        with pytest.raises(FormatError, match=message):
            decode(bytes(bad))


def test_dropc_bad_label_flag_or_missing_label_index():
    data = bytearray(encode_dropc(PointCloud(np.zeros((2, 3)), ["a", "b"])))
    flag_off = 6 + 4 + 4
    flagged = bytearray(data)
    flagged[flag_off] = 2
    with pytest.raises(FormatError, match=f"label flag must be 0 or 1 at byte offset {flag_off}"):
        decode_dropc(bytes(flagged))
    # the second point's label index 1 has no name in a trailer naming only 0
    trailer_off = data.rindex(b"{")
    idx_off = trailer_off - 8
    with pytest.raises(FormatError, match=f"label index '1' missing from trailer "
                                          rf"\(indices start at byte offset {idx_off}\)"):
        decode_dropc(bytes(data[:trailer_off]) + b'{"0":"a"}')


# ---------------------------------------------------------------- DROMX

def test_dromx_round_trip_f64(tmp_path):
    rng = np.random.default_rng(2)
    mat = rng.normal(size=(17, 9))
    path = tmp_path / "m.dromx"
    write_dromx(path, mat)
    back = read_dromx(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, mat)
    assert encode_dromx(back, "f64") == path.read_bytes()


def test_dromx_round_trip_f32_lossless_at_f32(tmp_path):
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(8, 5)).astype(np.float32)
    path = tmp_path / "m32.dromx"
    write_dromx(path, mat, dtype="f32")
    back = read_dromx(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, mat)
    assert encode_dromx(back, "f32") == path.read_bytes()


def test_dromx_file_size_arithmetic(tmp_path):
    mat = np.zeros((512, 512))
    path = tmp_path / "big.dromx"
    write_dromx(path, mat, dtype="f64")
    assert path.stat().st_size == 6 + 1 + 4 + 4 + 4 + 512 * 512 * 8


def test_dromx_truncation_reports_offset():
    data = encode_dromx(np.ones((4, 4)))
    with pytest.raises(FormatError) as err:
        decode_dromx(data[:30])
    assert "byte offset" in str(err.value)


def test_dromx_unknown_dtype_code():
    data = bytearray(encode_dromx(np.ones((2, 2))))
    data[18] = 7  # dtype byte
    with pytest.raises(FormatError) as err:
        decode_dromx(bytes(data))
    assert "dtype" in str(err.value)


def test_dromx_many_random_round_trips():
    rng = np.random.default_rng(4)
    for _ in range(50):
        rows = int(rng.integers(1, 40))
        cols = int(rng.integers(1, 40))
        mat = rng.normal(size=(rows, cols))
        dtype = "f32" if rng.random() < 0.5 else "f64"
        if dtype == "f32":
            mat = mat.astype(np.float32)
        data = encode_dromx(mat, dtype)
        back = decode_dromx(data)
        assert np.array_equal(back, mat)
        assert encode_dromx(back, dtype) == data


@pytest.mark.parametrize("dtype, numpy_dtype", [("f64", np.float64), ("f32", np.float32)])
def test_dromx_decoded_matrix_owns_its_memory(dtype, numpy_dtype):
    mat = np.arange(12.0, dtype=numpy_dtype).reshape(3, 4)
    data = bytearray(encode_dromx(mat, dtype))
    back = decode_dromx(data)
    data[19:] = b"\xff" * (len(data) - 19)  # overwrite the whole payload
    assert np.array_equal(back, mat)
    assert back.flags.writeable and back.flags.owndata


@pytest.mark.parametrize("matrix, dtype, message", [
    (np.ones((2, 3)), "f16", "dtype must be one of"),
    (np.ones((2, 3, 4)), "f64", r"matrix must be 2-D, got shape \(2, 3, 4\)"),
    (np.ones(3), "f32", r"matrix must be 2-D, got shape \(3,\)"),
], ids=["dtype", "3d", "1d"])
def test_encode_dromx_rejects_bad_dtype_or_shape(matrix, dtype, message):
    with pytest.raises(ContractError, match=message):
        encode_dromx(matrix, dtype)
