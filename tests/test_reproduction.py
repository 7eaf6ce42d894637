"""The committed reproduction record is exactly what the generator renders."""

import pathlib
from dataclasses import replace

import pytest

from repro.experiments.figures import FIG7
from repro.experiments.reproduction import REGENERATE, record, render_figure

COMMITTED = pathlib.Path(__file__).resolve().parent.parent / "REPRODUCTION.md"


def assert_record_matches(committed: str, fresh: str) -> None:
    """Fail with one line naming the first moved line and the fix."""
    if committed == fresh:
        return
    old, new = committed.splitlines(), fresh.splitlines()
    line = next((i for i, (a, b) in enumerate(zip(old, new), 1) if a != b),
                min(len(old), len(new)) + 1)
    raise AssertionError(f"REPRODUCTION.md differs from record() at line "
                         f"{line}; regenerate with: {REGENERATE}")


@pytest.fixture(scope="module")
def committed():
    return COMMITTED.read_text(encoding="utf-8")


def test_record_equals_committed_file(committed):
    assert_record_matches(committed, record())


def test_mismatch_names_the_regeneration_command(committed):
    moved = committed.replace("1024:2.75x", "1024:2.00x", 1)
    assert moved != committed
    with pytest.raises(AssertionError) as info:
        assert_record_matches(committed, moved)
    message = str(info.value)
    assert "\n" not in message
    assert message.endswith(f"regenerate with: {REGENERATE}")


def test_a_calibration_change_moves_a_fig7_ratio_line(committed):
    fig = FIG7[0]
    machine = fig.machine
    perturbed = replace(fig, machine=replace(
        machine, bandwidth_efficiency=machine.bandwidth_efficiency * 1.01))
    ratio_line = render_figure(fig).splitlines()[-1]
    moved_line = render_figure(perturbed).splitlines()[-1]
    assert ratio_line.startswith("best-CA / best-ScaLAPACK")
    assert ratio_line in committed.splitlines()
    assert moved_line != ratio_line
    assert moved_line not in committed.splitlines()
