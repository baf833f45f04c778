import pytest

from flexjoint.control import GainSet
from flexjoint.fuzzy import FlrBounds
from flexjoint.gainsio import gains_text, load_gains, load_plant


def test_roundtrip(tmp_path, gains, bounds):
    path = tmp_path / "gains.txt"
    path.write_text(gains_text(gains, bounds))
    loaded = load_gains(path)
    assert loaded.gains == gains
    assert loaded.bounds == bounds
    assert loaded.repaired_pairs == ()


def test_missing_delta_keys_default_to_zero(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("kp1 = 52.19\nkd1 = 10.18\nkp2 = 144.5\nkd2 = 8.636\n")
    loaded = load_gains(path)
    assert loaded.bounds == FlrBounds()


def test_missing_gain_key_rejected(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("kp1 = 1.0\nkd1 = 1.0\nkp2 = 1.0\n")
    with pytest.raises(ValueError, match=r"g\.txt: missing required key 'kd2'"):
        load_gains(path)


def test_reversed_pair_repaired_and_reported(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("kp1 = 52.19\nkd1 = 10.18\nkp2 = 144.5\nkd2 = 8.636\n"
                    "dkp1_lo = 15.27\ndkp1_hi = -11.61\n")
    loaded = load_gains(path)
    assert loaded.bounds.dkp1 == (-11.61, 15.27)
    assert loaded.repaired_pairs == ("dkp1",)


def test_comments_and_blank_lines_allowed(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# tuned gains\n\nkp1 = 1.0  # outer loop\nkd1 = 2.0\n"
                    "kp2 = 3.0\nkd2 = 4.0\n")
    assert load_gains(path).gains == GainSet(1.0, 2.0, 3.0, 4.0)


@pytest.mark.parametrize("content,lineno", [
    ("kp1 = 1.0\nbogus = 2.0\n", 2),
    ("kp1 = 1.0\nkp1 = 2.0\n", 2),
    ("kp1 1.0\n", 1),
    ("kp1 = twelve\n", 1),
    ("kp1 = 1.0\nkd1 = nan\n", 2),
    ("kp1 = inf\n", 1),
])
def test_parse_errors_carry_line_numbers(tmp_path, content, lineno):
    path = tmp_path / "g.txt"
    path.write_text(content)
    with pytest.raises(ValueError, match=rf"g\.txt: line {lineno}: "):
        load_gains(path)


def test_load_plant_overrides(tmp_path):
    path = tmp_path / "plant.txt"
    path.write_text("k = 80.0\nmu = 0.2\n")
    p = load_plant(path)
    assert p.k == 80.0 and p.mu == 0.2
    assert p.m == 1.2756  # untouched defaults


def test_load_plant_rejects_gain_keys(tmp_path):
    path = tmp_path / "plant.txt"
    path.write_text("kp1 = 1.0\n")
    with pytest.raises(ValueError, match=r"plant\.txt: line 1: unknown key 'kp1'"):
        load_plant(path)
