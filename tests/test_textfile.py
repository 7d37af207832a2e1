"""The one reading rule that every run-dir reader follows (ant_lab.textfile)."""

import re

import numpy as np
import pytest

from ant_lab.fusion import load_adapter, save_adapter
from ant_lab.mixture import load_dataset_csv, make_mixture, sample_dataset, save_dataset_csv
from ant_lab.net import NetConfig, ScoreNet, load_checkpoint, save_checkpoint
from ant_lab.saliency import SaliencyMask, load_mask, save_mask

_NET = ScoreNet(NetConfig(2, 1, hidden_width=2, n_hidden_layers=1, time_embed_dim=2,
                          cond_embed_dim=1))
_SPEC = make_mixture(4, 2, 2.0, 0.1)

# each reader with a writer of one valid file for it
_FORMATS = {
    "checkpoint": (lambda p: save_checkpoint(p, _NET.init_params(0)), load_checkpoint),
    "mask": (lambda p: save_mask(SaliencyMask(np.array([True, False] * 5)), p), load_mask),
    "adapter": (lambda p: save_adapter(_NET.init_lora(2, 0), 1, p), load_adapter),
    "dataset": (lambda p: save_dataset_csv(sample_dataset(_SPEC, 5, 0), p),
                lambda p: load_dataset_csv(p, _SPEC)),
}


@pytest.mark.parametrize("save, load", _FORMATS.values(), ids=_FORMATS.keys())
def test_non_utf8_bytes_are_rejected_naming_the_file(tmp_path, save, load):
    path = tmp_path / "artifact"
    save(path)
    load(path)
    path.write_bytes(b"\xff\xfe" + path.read_bytes())
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load(path)


def test_non_utf8_bytes_in_a_mask_rule_are_rejected_naming_the_file(tmp_path):
    """The rule is free text, so only the strict decode can reject these bytes:
    decoded with replacement, they would render back as they were read."""
    path = tmp_path / "m.txt"
    save_mask(SaliencyMask(np.array([True]), {"n_maps_intersected": 1, "gamma_rule": "q"}), path)
    path.write_bytes(path.read_bytes().replace(b"gamma_rule=q", b"gamma_rule=\xff"))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_mask(path)
