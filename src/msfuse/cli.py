"""Command-line interface.

Subcommands: decompose, reconstruct, eval-mask, gen-synthetic.
Exit codes: 0 ok, 1 usage/contract, 2 I/O, 3 numeric failure.
"""

import argparse
import os
import sys

from . import metrics, pipeline, synth, wls
from .config import ConfigError, PipelineConfig
from .core import FormatError, load_image, save_image
from .reconstruct import export_ply, triangulate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


class CliError(Exception):
    def __init__(self, code, message):
        self.code = code
        super().__init__(message)


def _load_config(path):
    if path is None:
        return PipelineConfig()
    try:
        return PipelineConfig.load(path)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read config: {exc}")
    except ConfigError as exc:
        raise CliError(EXIT_USAGE, f"bad config {path}: {exc}")


def _load(path):
    try:
        return load_image(path)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read {path}: {exc}")
    except FormatError as exc:
        raise CliError(EXIT_IO, f"bad image {path}: {exc}")


def _check_same_size(path_a, a, path_b, b):
    if a.shape != b.shape:
        raise CliError(EXIT_USAGE, f"image sizes differ: {path_a} is {a.shape}, "
                                   f"{path_b} is {b.shape}")


def _write_atomic(path, write):
    # write via a temp name so error paths leave no partial outputs
    tmp = path + ".tmp"
    try:
        write(tmp)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise CliError(EXIT_IO, f"cannot write {path}: {exc}")


def _write_image(img, path, format):
    _write_atomic(path, lambda tmp: save_image(img, tmp, format=format))


def cmd_decompose(args):
    config = _load_config(args.config)
    img = _load(args.input)
    try:
        layers = wls.decompose(img, config.wls_params())
    except wls.SolverError as exc:
        raise CliError(EXIT_NUMERIC, str(exc))
    for s, layer in enumerate(layers):
        _write_image(layer, f"{args.out_prefix}base_{s}.pfm", "pfm")
    for s, detail in enumerate(wls.detail_layers(layers)):
        _write_image(detail, f"{args.out_prefix}detail_{s}.pfm", "pfm")
    return EXIT_OK


def cmd_reconstruct(args):
    config = _load_config(args.config)
    left = _load(args.left)
    right = _load(args.right)
    _check_same_size(args.left, left, args.right, right)
    try:
        rig = config.camera_rig(left.shape)
    except (ConfigError, ValueError) as exc:
        raise CliError(EXIT_USAGE, str(exc))

    if args.dump_dir is not None:
        try:
            os.makedirs(args.dump_dir, exist_ok=True)
        except OSError as exc:
            raise CliError(EXIT_IO, f"cannot create {args.dump_dir}: {exc}")

    try:
        d, outputs = pipeline.run(left, right, config,
                                  collect=args.dump_dir is not None)
    except wls.SolverError as exc:
        raise CliError(EXIT_NUMERIC, str(exc))

    _write_image(d, args.out_disparity, "pfm")
    cloud = triangulate(d, rig, intensity=left)
    _write_atomic(args.out_cloud, lambda tmp: export_ply(cloud, tmp))

    if args.dump_dir is not None:
        for name, image in outputs.items():
            _write_image(image, os.path.join(args.dump_dir, f"{name}.pfm"), "pfm")
    return EXIT_OK


def cmd_eval_mask(args):
    pred = _load(args.pred)
    truth = _load(args.truth)
    _check_same_size(args.pred, pred, args.truth, truth)
    counts = metrics.confusion(pred, truth)
    try:
        lines = [
            f"acc={metrics.accuracy(counts):.4f}",
            f"sen={metrics.sensitivity(counts):.4f}",
        ]
    except metrics.UndefinedMetricError as exc:
        raise CliError(EXIT_NUMERIC, str(exc))
    if args.scores is not None:
        scores = _load(args.scores)
        _check_same_size(args.scores, scores, args.truth, truth)
        try:
            lines.append(f"auc={metrics.auc(scores, truth):.4f}")
        except metrics.UndefinedMetricError as exc:
            raise CliError(EXIT_NUMERIC, str(exc))
    print("\n".join(lines))
    return EXIT_OK


def cmd_gen_synthetic(args):
    try:
        left, right, gt = synth.random_dot_pair(
            args.width, args.height, args.disparity, args.seed
        )
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc))
    _write_image(left, f"{args.out_prefix}left.pgm", "pgm8")
    _write_image(right, f"{args.out_prefix}right.pgm", "pgm8")
    _write_image(gt, f"{args.out_prefix}gt.pfm", "pfm")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="msfuse",
        description="Multi-scale stereo matching and 3D reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="4-level WLS base/detail decomposition")
    p.add_argument("input")
    p.add_argument("--config", default=None)
    p.add_argument("--out-prefix", default="")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("reconstruct", help="stereo pair -> disparity + point cloud")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--config", default=None)
    p.add_argument("--out-disparity", default="disparity.pfm")
    p.add_argument("--out-cloud", default="cloud.ply")
    p.add_argument("--dump-dir", default=None)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("eval-mask", help="accuracy/sensitivity/AUC of a mask")
    p.add_argument("pred")
    p.add_argument("truth")
    p.add_argument("--scores", default=None)
    p.set_defaults(func=cmd_eval_mask)

    p = sub.add_parser("gen-synthetic", help="random-dot stereo test pair")
    p.add_argument("width", type=int)
    p.add_argument("height", type=int)
    p.add_argument("disparity", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", default="")
    p.set_defaults(func=cmd_gen_synthetic)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
