import json
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hta.cli import run
from hta.tensor_io import (MAGIC, load_checkpoint, read_tensor,
                           save_checkpoint, write_tensor)


def test_roundtrip_shapes(tmp_path):
    rng = np.random.default_rng(0)
    for shape in ((), (3,), (2, 5), (2, 3, 4), (1, 2, 3, 4, 5)):
        a = rng.normal(size=shape)
        p = tmp_path / "t.hta"
        write_tensor(p, a)
        b = read_tensor(p)
        assert b.shape == a.shape
        assert b.dtype == np.float64
        assert np.allclose(b, a, atol=1e-6)    # float32 storage


@pytest.mark.parametrize("bad", [[1e39, np.nan], [np.nan], [-np.inf], [-1e39]])
def test_write_rejects_values_float32_cannot_hold(tmp_path, bad):
    p = tmp_path / "t.hta"
    with pytest.raises(ValueError, match="float32"):
        write_tensor(p, np.array(bad))
    assert not p.exists()                     # refused before opening


def test_write_keeps_float32_extremes(tmp_path):
    top = float(np.finfo(np.float32).max)
    write_tensor(tmp_path / "t.hta", [top, -top])
    assert read_tensor(tmp_path / "t.hta").tolist() == [top, -top]


def test_header_layout(tmp_path):
    p = tmp_path / "t.hta"
    write_tensor(p, np.arange(6, dtype=np.float64).reshape(2, 3))
    raw = p.read_bytes()
    assert raw[:4] == MAGIC
    assert struct.unpack("<I", raw[4:8]) == (2,)
    assert struct.unpack("<II", raw[8:16]) == (2, 3)
    vals = np.frombuffer(raw[16:], dtype="<f4")
    assert vals.tolist() == [0, 1, 2, 3, 4, 5]   # row-major
    assert len(raw) == 16 + 4 * 6


def test_bad_magic_and_truncation(tmp_path):
    p = tmp_path / "bad.hta"
    p.write_bytes(b"NOPE" + b"\x00" * 8)
    with pytest.raises(ValueError, match="magic"):
        read_tensor(p)
    q = tmp_path / "short.hta"
    write_tensor(q, np.zeros((4, 4)))
    q.write_bytes(q.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated"):
        read_tensor(q)


def test_bytes_past_the_payload_raise_value_error(tmp_path):
    p = tmp_path / "long.hta"
    write_tensor(p, np.arange(6.0).reshape(2, 3))
    p.write_bytes(p.read_bytes() + b"\x00" * 8)            # 8 bytes appended
    with pytest.raises(ValueError, match=re.escape(
            f"{p}: 8 bytes past the payload: shape (2, 3) in 48 bytes")):
        read_tensor(p)
    write_tensor(p, np.arange(9.0).reshape(3, 3))
    raw = p.read_bytes()
    p.write_bytes(raw[:8] + struct.pack("<II", 2, 3) + raw[16:])   # (3, 3) payload
    with pytest.raises(ValueError, match=re.escape(
            f"{p}: 12 bytes past the payload: shape (2, 3) in 52 bytes")):
        read_tensor(p)


def test_every_proper_prefix_raises_value_error(tmp_path, capsys):
    good = tmp_path / "good.hta"
    write_tensor(good, np.arange(6.0).reshape(2, 3))
    raw = good.read_bytes()
    p = tmp_path / "prefix.hta"
    for n in range(len(raw)):
        p.write_bytes(raw[:n])
        with pytest.raises(ValueError):
            read_tensor(p)
        assert run(["eval", "--video-emb", str(p), "--text-emb", str(good)]) == 1
        assert "error:" in capsys.readouterr().err


def test_huge_header_extents_rejected_before_reading(tmp_path):
    p = tmp_path / "huge.hta"
    p.write_bytes(MAGIC + struct.pack("<I", 0xFFFFFFFF))
    with pytest.raises(ValueError, match="rank 4294967295"):
        read_tensor(p)
    p.write_bytes(MAGIC + struct.pack("<III", 2, 0xFFFFFFFF, 0xFFFFFFFF))
    with pytest.raises(ValueError, match="truncated payload"):
        read_tensor(p)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.binary(max_size=64),
                 st.binary(max_size=64).map(lambda b: MAGIC + b)))
def test_arbitrary_bytes_raise_only_value_error(tmp_path, blob):
    p = tmp_path / "any.hta"
    p.write_bytes(blob)
    try:
        read_tensor(p)
    except ValueError:
        pass


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    params = {"layer0.slt.wq": rng.normal(size=(4, 4)),
              "cls": rng.normal(size=(1, 4)),
              "log_tau": np.asarray(-2.5)}
    cfg = {"D": 4, "heads": 2}
    save_checkpoint(tmp_path / "ckpt", params, config=cfg)
    loaded, cfg2 = load_checkpoint(tmp_path / "ckpt")
    assert cfg2 == cfg
    assert set(loaded) == set(params)
    for k in params:
        assert np.allclose(loaded[k], params[k], atol=1e-6)
    assert (tmp_path / "ckpt" / "manifest.json").exists()


def test_checkpoint_shape_mismatch(tmp_path):
    save_checkpoint(tmp_path / "c", {"w": np.zeros((2, 2))})
    write_tensor(tmp_path / "c" / "w.hta", np.zeros((3, 3)))
    with pytest.raises(ValueError, match="shape"):
        load_checkpoint(tmp_path / "c")


def test_checkpoint_name_collision_rejected_before_writing(tmp_path):
    params = {"a.b": np.ones(2), "a_b": np.zeros(2)}    # both -> a_b.hta
    with pytest.raises(ValueError, match="'a.b' and 'a_b'"):
        save_checkpoint(tmp_path / "c", params)
    assert not (tmp_path / "c").exists()


def test_failed_save_leaves_existing_checkpoint_unchanged(tmp_path):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, {"a": np.ones(2), "b": np.ones(3)}, config={"v": 1})
    before = {p.name: p.read_bytes() for p in ckpt.iterdir()}
    with pytest.raises(ValueError, match="NaN"):
        save_checkpoint(ckpt, {"a": np.zeros(2), "b": np.array([np.nan, 0, 0])})
    assert {p.name: p.read_bytes() for p in ckpt.iterdir()} == before
    params, config = load_checkpoint(ckpt)
    assert config == {"v": 1}
    assert np.array_equal(params["a"], np.ones(2))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]   # no temp dirs


def test_save_replaces_checkpoint_whole(tmp_path):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, {"a": np.ones(2), "b": np.ones(3)})
    save_checkpoint(ckpt, {"a": np.zeros(2)})
    params, _ = load_checkpoint(ckpt)
    assert list(params) == ["a"] and np.array_equal(params["a"], np.zeros(2))
    assert sorted(p.name for p in ckpt.iterdir()) == ["a.hta", "manifest.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]


def test_save_refuses_to_replace_a_directory_that_is_not_a_checkpoint(tmp_path):
    d = tmp_path / "data"
    d.mkdir()
    (d / "clips.hta").write_bytes(b"keep me")
    with pytest.raises(ValueError, match="not a checkpoint"):
        save_checkpoint(d, {"a": np.ones(2)})
    assert (d / "clips.hta").read_bytes() == b"keep me"
    empty = tmp_path / "empty"
    empty.mkdir()
    save_checkpoint(empty, {"a": np.ones(2)})
    assert np.array_equal(load_checkpoint(empty)[0]["a"], np.ones(2))


@pytest.mark.parametrize("manifest", [
    [1, 2], {"params": 5}, {"params": {"w": 5}}, {"params": {"w": {"file": 3}}},
    {"params": {"w": {"file": "OUTSIDE", "shape": [2]}}},     # an absolute path
    {"params": {"w": {"file": "../outside.hta", "shape": [2]}}},
    {"params": {"w": {"file": "missing.hta", "shape": [2]}}},
    {"params": {"w": {"file": "", "shape": [2]}}},
    {"params": {"w": {"file": "link.hta", "shape": [2]}}},
    {"params": {"w": {"file": "w.hta"}}},
    {"params": {}, "config": [1]},
], ids=repr)
def test_load_checkpoint_rejects_untrusted_manifest(tmp_path, manifest):
    save_checkpoint(tmp_path / "c", {"w": np.ones(2)})
    write_tensor(tmp_path / "outside.hta", np.ones(2))
    (tmp_path / "c" / "link.hta").symlink_to(tmp_path / "outside.hta")
    (tmp_path / "c" / "manifest.json").write_text(
        json.dumps(manifest).replace("OUTSIDE", str(tmp_path / "outside.hta")))
    with pytest.raises(ValueError):
        load_checkpoint(tmp_path / "c")


MANIFEST_FILES = st.sampled_from(["w.hta", "manifest.json", "..", ".", "",
                                  "/etc/hostname", "../c/w.hta"]) | st.text(max_size=4)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | MANIFEST_FILES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["params", "config", "file", "shape", "w"]), inner,
                      max_size=3), max_leaves=12)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(JSON_VALUES | st.fixed_dictionaries({"params": st.dictionaries(
    st.text(max_size=2), st.fixed_dictionaries({"file": MANIFEST_FILES,
                                                "shape": JSON_VALUES}), max_size=2)}))
def test_arbitrary_manifest_raises_only_value_error(tmp_path, manifest):
    if not (tmp_path / "c").exists():
        save_checkpoint(tmp_path / "c", {"w": np.ones(2)})
    (tmp_path / "c" / "manifest.json").write_text(json.dumps(manifest))
    try:
        load_checkpoint(tmp_path / "c")
    except ValueError:
        pass
