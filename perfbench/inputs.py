"""Benchmark inputs: zoo checkpoints trained from fixed seeds.

Checkpoints are inputs, not set-up: they are trained once per checkout
with the program's own zoo trainer (``repro.zoo.pretrain``) and written
under ``perfbench/.inputs``.  The file name is a digest of the model
name, every field of the training config, the model spec and the
program's source, so a change to any of them trains afresh instead of
loading a stale file.  The repository's ``.zoo_cache`` is never read:
its names omit the learning rate and the model spec.

Regenerate (or check) the inputs with::

    python3 perfbench/inputs.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INPUT_DIR = HERE / ".inputs"

#: The models the workloads run; each is trained once per checkout.
MODELS = ("stable-diffusion", "sdxl")


def pretrain_config():
    from repro.zoo import PretrainConfig

    # Every field spelled out: the digest must not depend on defaults.
    return PretrainConfig(dataset_size=96, autoencoder_steps=40,
                          denoiser_steps=80, batch_size=8,
                          learning_rate=2e-3, seed=0)


def checkpoint_path(name: str, source_sha256: str) -> Path:
    from repro.models import get_model_spec

    key = json.dumps({"model": name,
                      "pretrain": asdict(pretrain_config()),
                      "spec": asdict(get_model_spec(name)),
                      "source": source_sha256}, sort_keys=True, default=str)
    digest = hashlib.sha256(key.encode()).hexdigest()[:20]
    return INPUT_DIR / f"{name}-{digest}.npz"


def prepare(source_sha256: str, log=sys.stderr) -> float:
    """Train every missing checkpoint; returns the seconds spent."""
    import numpy as np

    from repro.zoo import pretrain

    started = time.perf_counter()
    INPUT_DIR.mkdir(exist_ok=True)
    for name in MODELS:
        path = checkpoint_path(name, source_sha256)
        if path.is_file():
            continue
        print(f"perfbench: training input checkpoint {path.name}", file=log,
              flush=True)
        model = pretrain(name, pretrain_config())
        temporary = path.with_suffix(f".tmp{os.getpid()}.npz")
        try:
            np.savez(temporary, **model.state_dict())
            os.replace(temporary, path)
        finally:
            if temporary.exists():
                temporary.unlink()
    return time.perf_counter() - started


def load_model(name: str, source_sha256: str):
    """A fresh model object with the prepared checkpoint's weights."""
    import numpy as np

    from repro.models import build_model, get_model_spec

    path = checkpoint_path(name, source_sha256)
    if not path.is_file():
        raise FileNotFoundError(
            f"missing benchmark input {path}; run python3 perfbench/inputs.py")
    model = build_model(name, rng=np.random.default_rng(get_model_spec(name).seed))
    with np.load(path) as archive:
        model.load_state_dict({key: archive[key] for key in archive.files})
    model.eval()
    return model


if __name__ == "__main__":
    from env import pin_threads, source_digest

    pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    seconds = prepare(source_digest(ROOT))
    for model_name in MODELS:
        print(checkpoint_path(model_name, source_digest(ROOT)))
    print(f"prepared in {seconds:.1f} s")
