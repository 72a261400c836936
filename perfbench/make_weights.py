"""Write `data/recognizer_seed17.json`, the recognizer that the
`montecarlo` and `recognize` workloads load.

    python3 perfbench/make_weights.py

Trains the seed-17 recipe from the checkout's `src/` (about 17 s on a
2-vCPU x86 host) and stores it with `save_weights`. Rerun it only when a
change to training or to the transfer table is meant to move the stored
recognizer; both workloads' fingerprints move with the file.
"""

import sys

from run import import_package


def main() -> int:
    if import_package() is None:
        print("spinann sources not found", file=sys.stderr)
        return 2
    from spinann import benchmark as letters
    from spinann import trainer

    import workloads

    result = letters.train_recognizer(seed=workloads.TRAIN_SEED)
    workloads.WEIGHTS_FILE.parent.mkdir(exist_ok=True)
    trainer.save_weights(workloads.WEIGHTS_FILE, result)
    print(workloads.WEIGHTS_FILE, workloads.sha256([result.w1, result.w2]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
