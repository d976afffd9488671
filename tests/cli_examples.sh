#!/usr/bin/env bash
# The README's CLI examples through the installed ``msfuse`` console script,
# in a fresh temporary directory. Every output, the 13 --dump-dir files
# included, must have the same bytes with MSFUSE_THREADS=1 and 2.
# Run it after installing the project: bash tests/cli_examples.sh
set -euo pipefail
cd "$(mktemp -d)"
msfuse gen-synthetic 64 64 5 --seed 7 --out-prefix demo_
MSFUSE_THREADS=1 msfuse reconstruct demo_left.pgm demo_right.pgm \
    --out-disparity demo_disp.pfm --out-cloud demo_cloud.ply \
    --dump-dir dumps/
test "$(ls dumps | wc -l)" -eq 13
# the same bytes with two threads: every output, dumps included
MSFUSE_THREADS=2 msfuse reconstruct demo_left.pgm demo_right.pgm \
    --out-disparity demo_disp_2.pfm --out-cloud demo_cloud_2.ply \
    --dump-dir dumps_2/
test "$(ls dumps_2 | wc -l)" -eq 13
cmp demo_disp.pfm demo_disp_2.pfm
cmp demo_cloud.ply demo_cloud_2.ply
for f in dumps/*; do cmp "$f" "dumps_2/${f#dumps/}"; done
# and on a pair whose view passes fold 14 blocks each, so that
# blocks can finish out of order with two threads
msfuse gen-synthetic 160 120 5 --seed 7 --out-prefix wide_
echo "cost.d_max = 95" > wide.cfg
for threads in 1 2; do
  MSFUSE_THREADS=$threads msfuse reconstruct wide_left.pgm wide_right.pgm \
      --config wide.cfg --out-disparity "wide_disp_$threads.pfm" \
      --out-cloud "wide_cloud_$threads.ply" --dump-dir "wide_dumps_$threads/"
  test "$(ls "wide_dumps_$threads" | wc -l)" -eq 13
done
cmp wide_disp_1.pfm wide_disp_2.pfm
cmp wide_cloud_1.ply wide_cloud_2.ply
for f in wide_dumps_1/*; do cmp "$f" "wide_dumps_2/${f#wide_dumps_1/}"; done
msfuse decompose demo_left.pgm --out-prefix layers_
test "$(ls layers_* | wc -l)" -eq 7
msfuse eval-mask dumps/valid.pfm dumps/valid.pfm --scores demo_disp.pfm
