#!/usr/bin/env bash
# The README's CLI examples through the installed ``msfuse`` console script,
# in a fresh temporary directory. Every output, the 13 --dump-dir files
# included, must have the same bytes with MSFUSE_THREADS=1 and 2 and with
# OPENBLAS_NUM_THREADS=1 and 2: the WLS solves take nothing from BLAS.
# Run it after installing the project: bash tests/cli_examples.sh
set -euo pipefail
cd "$(mktemp -d)"

# reconstruct PREFIX ARGS... writes PREFIX{disp,cloud}_T_B.{pfm,ply} and
# PREFIXdumps_T_B/ for MSFUSE_THREADS=T, OPENBLAS_NUM_THREADS=B, and
# compares every output with that of T=1, B=1
reconstruct() {
  local prefix=$1
  shift
  for blas in 1 2; do
    for threads in 1 2; do
      local run="${threads}_${blas}"
      MSFUSE_THREADS=$threads OPENBLAS_NUM_THREADS=$blas msfuse reconstruct \
          "${prefix}left.pgm" "${prefix}right.pgm" "$@" \
          --out-disparity "${prefix}disp_$run.pfm" \
          --out-cloud "${prefix}cloud_$run.ply" --dump-dir "${prefix}dumps_$run/"
      test "$(ls "${prefix}dumps_$run" | wc -l)" -eq 13
      cmp "${prefix}disp_1_1.pfm" "${prefix}disp_$run.pfm"
      cmp "${prefix}cloud_1_1.ply" "${prefix}cloud_$run.ply"
      for f in "${prefix}dumps_1_1"/*; do
        cmp "$f" "${prefix}dumps_$run/${f#"${prefix}dumps_1_1/"}"
      done
    done
  done
}

msfuse gen-synthetic 64 64 5 --seed 7 --out-prefix demo_
reconstruct demo_
# and on a pair whose view passes fold 24 blocks each, so that
# blocks can finish out of order with two threads
msfuse gen-synthetic 160 120 5 --seed 7 --out-prefix wide_
echo "cost.d_max = 95" > wide.cfg
reconstruct wide_ --config wide.cfg
# and on an 8x6 pair, where the default radius-4 aggregation window is
# clipped at both ends of every row and column
msfuse gen-synthetic 8 6 1 --out-prefix tiny_
echo "cost.d_max = 3" > tiny.cfg
reconstruct tiny_ --config tiny.cfg
# a header claiming more than its file holds (3.2 GB here, above the
# address-space limit) is a bad image, exit 2, before any read allocates it
printf 'P5\n40000 40000 65535\n0123456789' > forged.pgm
status=0
(ulimit -v 2000000; msfuse reconstruct forged.pgm forged.pgm \
    --out-disparity forged.pfm --out-cloud forged.ply) || status=$?
test "$status" -eq 2
# a WLS solve that misses its tolerance is a numeric failure, exit 3, and
# writes no output
echo "wls.max_iter = 1" > stall.cfg
status=0
msfuse reconstruct demo_left.pgm demo_right.pgm --config stall.cfg \
    --out-disparity stall.pfm --out-cloud stall.ply || status=$?
test "$status" -eq 3
test ! -e stall.pfm && test ! -e stall.ply
msfuse decompose demo_left.pgm --out-prefix layers_
test "$(ls layers_* | wc -l)" -eq 7
msfuse eval-mask demo_dumps_1_1/valid.pfm demo_dumps_1_1/valid.pfm \
    --scores demo_disp_1_1.pfm
